"""Domain model for splittable-item bin packing with a per-bin part limit.

All quantities are exact rationals (`fractions.Fraction`); solver paths never
touch floating point, so capacity comparisons like ``fill == 1`` are reliable.
Bins have unit capacity, items may be split across bins, and every bin holds
at most ``k`` parts with at most one part per item (same-item parts merge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Any, Collection, Iterable, Iterator, Sequence

# One (item_id, size or part) entry: an item of a stream or a part in a bin.
Item = tuple[int, Fraction]

# A bin is a sequence of (item_id, part) entries, the central packing unit.
BinEntries = tuple[Item, ...]

# A size or part in the unit of ``unit_sizes``: an integer over its bin
# capacity, or the ``Fraction`` itself where that capacity is 1.
Scaled = int | Fraction

DEFAULT_LABEL = "bin"

# Bounds on one rational numeral, so that parsing hostile text is cheap: at
# most this many digits, and a decimal exponent of at most this magnitude.
MAX_NUMERAL_DIGITS = 1000
MAX_DECIMAL_EXPONENT = 1000

# Bound on the parts an instance needs (the sum of ceil(size), see
# ``parts_needed``): each part costs every packer work and memory, so the CLI
# rejects a larger instance before packing it.
MAX_PARTS = 10**6

# Error messages quote an offending value in at most this many characters.
MAX_QUOTED = 60


class InternalError(AssertionError):
    """A solver broke one of its own invariants: a bug, never bad input.

    Raised by explicit checks that stay active under ``python -O``. It is an
    ``AssertionError`` so that callers catching those keep working.
    """


class InvalidPackingError(ValueError):
    """A packing handed to a rewrite is not valid.

    ``violations`` is the full ``validate_packing`` list; the message quotes
    its first entry.
    """

    def __init__(self, violations: Sequence[str]):
        super().__init__(f"packing is not valid: {violations[0]}")
        self.violations = list(violations)


def brief_repr(value: object) -> str:
    """``repr(value)`` cut after ``MAX_QUOTED`` characters (marked by "..."),
    so that an error message stays short however large the input. A value
    that ``repr`` refuses, such as an int past the interpreter's digit
    limit, is named by its type (and an int by its bit length)."""
    if isinstance(value, str):
        value = value[: MAX_QUOTED + 1]
    try:
        text = repr(value)
    except ValueError:
        bits = f" of {value.bit_length()} bits" if isinstance(value, int) else ""
        return f"<{type(value).__name__}{bits}>"
    if len(text) > MAX_QUOTED:
        return text[:MAX_QUOTED] + "..."
    return text


def brief_fraction(value: Fraction) -> str:
    """``str(value)``, with its numerator and denominator each quoted
    through ``brief_repr``: the exact text for an ordinary value, and a
    short one however many digits it has."""
    num = brief_repr(value.numerator)
    return num if value.denominator == 1 else f"{num}/{brief_repr(value.denominator)}"


def too_many_digits(text: str) -> bool:
    """True iff the numeral has more than ``MAX_NUMERAL_DIGITS`` digits: the
    rule by which ``parse_rational`` refuses a numeral, which a writer tests
    on a rendered rational so that it writes only what the reader takes."""
    return (
        len(text) > MAX_NUMERAL_DIGITS
        and sum(map(str.isdigit, text)) > MAX_NUMERAL_DIGITS
    )


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer or decimal strings into an exact rational.

    Decimals convert exactly (d digits become a power-of-ten denominator),
    never through a float. A numeral with more than ``MAX_NUMERAL_DIGITS``
    digits or a decimal exponent above ``MAX_DECIMAL_EXPONENT`` in magnitude
    is rejected before any big integer is built. An ASCII-digit "p" or
    "p/q" then skips ``Fraction``'s pattern and is built from its integers.
    """
    if not isinstance(text, str):
        raise ValueError(
            f"expected a rational as string, got {brief_repr(text)}"
        )
    text = text.strip()
    if too_many_digits(text):
        raise ValueError(
            f"rational {text[:20]!r}... has more than {MAX_NUMERAL_DIGITS} digits"
        )
    if "e" in text or "E" in text:
        exponent = text[max(text.rfind("e"), text.rfind("E")) + 1 :]
        try:
            too_large = abs(int(exponent)) > MAX_DECIMAL_EXPONENT
        except ValueError:
            too_large = False  # malformed: Fraction rejects it below
        if too_large:
            raise ValueError(
                f"rational {brief_repr(text)} has a decimal exponent above "
                f"{MAX_DECIMAL_EXPONENT} in magnitude"
            )
    num, slash, den = text.partition("/")
    try:
        if num.isascii() and num.isdigit():
            if not slash:
                return Fraction(int(num))
            if den.isascii() and den.isdigit():
                return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {brief_repr(text)}") from exc


def size_type(size: Fraction) -> int:
    """Half-unit bracket index i with size in ((i-1)/2, i/2]: type 1 is a
    small item (at most 1/2), type 2 a medium one (above 1/2, at most 1) and
    type 3 or more a large one. The ceiling of 2 * size is taken on the
    numerator and denominator (positive), so no ``Fraction`` is built."""
    return max(1, -(-2 * size.numerator // size.denominator))


@dataclass(frozen=True)
class Instance:
    """An ordered list of positive item sizes plus the per-bin part limit k.

    Item ids are the positions 0..n-1; sizes may exceed 1 (such items must be
    split over several bins).
    """

    k: int
    sizes: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {brief_repr(self.k)}")
        sizes = tuple(
            s if type(s) is Fraction else Fraction(s) for s in self.sizes
        )
        object.__setattr__(self, "sizes", sizes)
        for i, s in enumerate(sizes):
            if s.numerator <= 0:
                raise ValueError(f"item {i} has non-positive size {brief_fraction(s)}")

    @property
    def n(self) -> int:
        return len(self.sizes)

    def items(self) -> Iterator[Item]:
        return iter(enumerate(self.sizes))


def _merge_bin(entries: Iterable[Item]) -> BinEntries:
    merged: dict[int, Fraction] = {}
    for item, part in entries:
        if type(part) is not Fraction:  # an exact type test skips the ABC check
            part = Fraction(part)
        got = merged.get(item)
        merged[item] = part if got is None else got + part
    return tuple(sorted(merged.items()))


@dataclass(frozen=True)
class Packing:
    """A list of bins, each holding (item_id, part) entries, plus one
    provenance label per bin naming the algorithm step that created it."""

    bins: tuple[BinEntries, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.bins) != len(self.labels):
            raise ValueError(
                f"{len(self.bins)} bins but {len(self.labels)} labels"
            )

    @staticmethod
    def build(
        bins: Sequence[Iterable[Item]],
        labels: Sequence[str] | None = None,
    ) -> "Packing":
        """Normalize raw bin contents: same-item parts in one bin merge and
        entries are ordered by item id."""
        merged = tuple(_merge_bin(b) for b in bins)
        if labels is None:
            labels = [DEFAULT_LABEL] * len(merged)
        return Packing(merged, tuple(labels))

    @property
    def n_bins(self) -> int:
        return len(self.bins)

    def coverage(self) -> dict[int, Fraction]:
        totals: dict[int, Fraction] = {}
        for entries in self.bins:
            for item, part in entries:
                totals[item] = totals.get(item, Fraction(0)) + part
        return totals

    def key(self) -> tuple[BinEntries, ...]:
        """Bin-order-independent canonical form, for equality up to reordering."""
        return tuple(sorted(self.bins))

    def __getstate__(self) -> dict[str, Any]:
        return unmarked_state(self)


# The attribute marking a packing or next-fit trace whose bins passed
# ``bin_violations`` for an instance: (k, sizes, bins) of that check. It
# counts only while k is equal and the instance's sizes and the object's
# bins are those very objects, so it never moves to another instance or to
# other bins.
_MARK = "_checked_for"


def mark_checked(inst: Instance, obj: Any) -> None:
    """Mark obj (a ``Packing`` or a next-fit trace), whose bins have just
    passed ``bin_violations`` for inst, as checked for inst. Nothing is
    marked for an instance whose sizes were replaced by a mutable
    sequence."""
    if type(inst.sizes) is tuple:
        object.__setattr__(obj, _MARK, (inst.k, inst.sizes, obj.bins))


def unmarked_state(obj: Any) -> dict[str, Any]:
    """The pickle and copy state of a markable object, without its mark: a
    copy is new bins, checked again in full."""
    return {name: v for name, v in obj.__dict__.items() if name != _MARK}


def checked_violations(inst: Instance, obj: Any) -> list[str]:
    """``bin_violations(inst, obj.bins)``, or ``[]`` at once when obj is
    marked as checked for inst. A clean check marks obj when nothing can
    change its bins in place: a tuple of tuples of entry tuples."""
    mark = getattr(obj, _MARK, None)
    bins = obj.bins
    if mark and mark[0] == inst.k and mark[1] is inst.sizes and mark[2] is bins:
        return []
    problems = bin_violations(inst, bins)
    if not problems and _frozen(bins):
        mark_checked(inst, obj)
    return problems


def _frozen(bins: Any) -> bool:
    return (
        type(bins) is tuple
        and {tuple}.issuperset(map(type, bins))
        and {tuple}.issuperset(map(type, chain.from_iterable(bins)))
    )


def validate_packing(inst: Instance, packing: Packing) -> list[str]:
    """Return every violated packing invariant, empty iff feasible.

    Checks: known item ids, per-bin cardinality <= k, per-bin capacity <= 1,
    strictly positive parts, exact per-item coverage, and no empty bins.

    A packing that a solver or rewrite of this package returned for inst
    was checked when it was built, in its unit, and is not checked again
    (see ``checked_violations``); a packing loaded from a file, built by
    hand, copied, or checked against another instance always gets the
    full check.
    """
    return checked_violations(inst, packing)


def bin_violations(
    inst: Instance,
    bins: Iterable[Collection[Item]],
    cap: int = 1,
    sizes: Sequence[Scaled] | None = None,
) -> list[str]:
    """``validate_packing`` on raw bins, so a rewrite can check its working
    bins without building a ``Packing``; a bin that lists one item twice is
    reported, never merged.

    Parts, bin capacity and item sizes may share any exact unit: by default
    the instance's sizes in bins of capacity 1, and for a solver's bins the
    capacity ``cap`` and the sizes of ``unit_sizes``. Dividing every
    quantity by ``cap`` is exact and keeps every test, so bins valid in the
    unit give a valid packing with parts ``Fraction(p, cap)``.

    Every sum runs on numerator/denominator pairs (see ``_add``), so a bin
    of one-part items needs no ``Fraction`` operator. Bins given as a list
    or tuple in a solver's integer unit (``sizes`` passed, and not
    ``inst.sizes`` itself) first get one pass in native integers
    (``_valid_in_ints``); it returns ``[]`` when it finds nothing, and on
    any problem the pair path below writes the list, so every message and
    its order is the pair path's.
    """
    if sizes is None:
        sizes = inst.sizes
    elif (
        sizes is not inst.sizes
        and type(bins) in (list, tuple)
        and _valid_in_ints(inst.k, bins, cap, sizes)
    ):
        return []
    n = len(sizes)
    k = inst.k
    violations: list[str] = []
    # Coverage per item as a pair; a numerator of 0 means nothing yet.
    cov_num = [0] * n
    cov_den = [1] * n
    last_bin = [-1] * n
    for b, entries in enumerate(bins):
        if not entries:
            violations.append(f"empty bin: bin {b} has no parts")
            continue
        tn, td = 0, 1
        for item, part in entries:
            pn, pd = part.numerator, part.denominator
            if 0 <= item < n:
                if last_bin[item] == b:
                    violations.append(
                        f"duplicate: bin {b} lists item {item} more than once"
                    )
                last_bin[item] = b
                cn = cov_num[item]
                if cn == 0:
                    cov_num[item], cov_den[item] = pn, pd
                elif cov_den[item] == pd:
                    cov_num[item] = cn + pn
                else:
                    cov_num[item], cov_den[item] = _add(cn, cov_den[item], pn, pd)
            else:
                violations.append(
                    f"unknown item: bin {b} references item {brief_repr(item)} "
                    "not in instance"
                )
            if pn <= 0:
                violations.append(
                    f"positivity: bin {b} item {brief_repr(item)} has non-positive "
                    f"part {brief_fraction(part)}"
                )
            if tn == 0:
                tn, td = pn, pd
            elif td == pd:
                tn += pn
            else:
                tn, td = _add(tn, td, pn, pd)
        if len(entries) > k:
            violations.append(
                f"cardinality: bin {b} has {len(entries)} > k={k} parts"
            )
        if tn > cap * td:
            total = brief_fraction(Fraction(tn, td))
            violations.append(f"capacity: bin {b} holds {total} > {brief_repr(cap)}")
    for item, size in enumerate(sizes):
        cn, cd = cov_num[item], cov_den[item]
        sn, sd = size.numerator, size.denominator
        if cn * sd != sn * cd:
            violations.append(
                f"coverage: item {item} covered {brief_fraction(Fraction(cn, cd))} of "
                f"{brief_fraction(size)}"
            )
    return violations


def _valid_in_ints(
    k: int, bins: Sequence[Collection[Item]], cap: int, sizes: Sequence[Scaled]
) -> bool:
    """True only if the bins pass every test of ``bin_violations`` with
    native ``+`` and comparisons: 1 to k entries per bin, known item ids,
    no item twice in a bin, positive parts, every bin total an ``int`` of
    at most cap, and coverage equal to the sizes. A bin total of any other
    type (a ``Fraction`` or float part) gives False, so the pass never
    decides on anything but integers; an entry that native operators
    refuse gives False too, and the pair path handles it as it would have."""
    n = len(sizes)
    covered = [0] * n
    last_bin = [-1] * n
    try:
        for b, entries in enumerate(bins):
            if not 0 < len(entries) <= k:
                return False
            total = 0
            for item, part in entries:
                if not (0 <= item < n and part > 0) or last_bin[item] == b:
                    return False
                last_bin[item] = b
                covered[item] += part
                total += part
            if type(total) is not int or total > cap:
                return False
    except TypeError:
        return False
    return covered == sizes


def _add(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """an/ad + bn/bd over positive denominators, in lowest terms. Summing
    with it, or adding numerators over an equal denominator, keeps a sum's
    denominator a divisor of the lcm of its terms' denominators."""
    num, den = an * bd + bn * ad, ad * bd
    g = math.gcd(num, den)
    return num // g, den // g


# Bound on the bin capacity of ``unit_sizes``: every solver and the normalize
# rewrites run on integers only while the common denominator has at most this
# many bits, so that every comparison and sum is a small-integer operation.
UNIT_BITS = 64


def unit_sizes(
    sizes: Sequence[Fraction], parts: Iterable[Fraction] = ()
) -> tuple[int, Sequence[Scaled]]:
    """The unit the integer paths run in, as (bin capacity, sizes): the
    sizes as integers over the least common denominator of the sizes and
    the ``parts`` when it has at most ``UNIT_BITS`` bits, and otherwise
    (1, sizes) itself. A packing's parts need not divide the sizes' lcm (a
    rewrite may halve a part), so a caller that scales parts names them.

    This is the package's one scaling of rationals to integers. Each size
    is read once, as its integer ratio. The denominator is built one
    distinct denominator at a time and given up as soon as it passes the
    bound, so values with huge coprime denominators cost one step per
    distinct denominator, never a huge product."""
    ratios = [s.as_integer_ratio() for s in sizes]
    scale = 1
    for den in {den for _, den in ratios}.union(p.denominator for p in parts):
        scale = math.lcm(scale, den)
        if scale.bit_length() > UNIT_BITS:
            return 1, sizes
    return scale, [num * (scale // den) for num, den in ratios]


def checked_packing(
    inst: Instance,
    bins: Iterable[Collection[Item]],
    cap: int,
    sizes: Sequence[Scaled],
    labels: Sequence[str],
) -> Packing:
    """The ``Packing`` of a solver's raw bins, whose parts share the unit
    (cap, sizes), marked as checked for inst once ``bin_violations`` accepts
    them in that unit; a bin that fails raises ``InternalError`` with the
    first problem. This is the one exit of every solver and rewrite.

    Each part turns back into a ``Fraction`` once: a part equal to its
    item's size is the instance's own size object, and any other part p
    becomes ``Fraction(p, cap)`` (``Fraction(p)`` at cap 1, which keeps a
    ``Fraction`` part as it is), one object per distinct p. A part may be
    a ``Fraction`` in an integer unit too, such as a half that the oracle's
    ``feasible_in`` padding splits off an odd part. Entries are
    sorted by item id, as ``Packing.build`` orders them; a checked bin lists
    no item twice, so there is nothing to merge. The map divides by cap
    exactly, so the check in the unit certifies the packing and
    ``validate_packing`` need not repeat it. The bins are iterated twice."""
    problems = bin_violations(inst, bins, cap, sizes)
    if problems:
        raise InternalError(
            f"a solver or rewrite built an invalid packing (bin capacity {cap}): "
            f"{problems[0]}"
        )
    whole = inst.sizes
    made: dict[Scaled, Fraction] = {}
    out = []
    for entries in bins:
        row = []
        for i, p in entries:
            if p == sizes[i]:
                row.append((i, whole[i]))
            else:
                part = made.get(p)
                if part is None:
                    part = made[p] = Fraction(p, cap) if cap != 1 else Fraction(p)
                row.append((i, part))
        row.sort()
        out.append(tuple(row))
    packing = Packing(tuple(out), tuple(labels))
    mark_checked(inst, packing)
    return packing


def parts_needed(sizes: Iterable[Fraction]) -> int:
    """The sum of ceil(size): no packing has fewer parts."""
    return sum(-(-s.numerator // s.denominator) for s in sizes)


@dataclass(frozen=True)
class BoundsReport:
    """Three lower bounds on the optimal bin count and their maximum."""

    size_bound: int
    weight_bound: int
    count_bound: int
    best: int


def lower_bounds(inst: Instance) -> BoundsReport:
    """size: total volume; weight: ceil-size parts over k per bin; count:
    every item needs a part and bins take at most k of them.

    All three are computed on integers, in one pass that reads each size's
    numerator and denominator once. The volume sums the numerators per
    denominator, then adds those sums in lowest terms, one step per distinct
    denominator; it builds no ``Fraction`` and never scales the instance to
    one common denominator. The same pass sums ceil(size), as
    ``parts_needed`` does."""
    numerators: dict[int, int] = {}
    parts = 0
    for s in inst.sizes:
        num, den = s.numerator, s.denominator
        numerators[den] = numerators.get(den, 0) + num
        parts -= -num // den
    num, den = 0, 1
    for d, n in numerators.items():
        num, den = _add(num, den, n, d)
    size_bound = -(-num // den)
    weight_bound = -(-parts // inst.k)
    count_bound = -(-inst.n // inst.k)
    return BoundsReport(
        size_bound=size_bound,
        weight_bound=weight_bound,
        count_bound=count_bound,
        best=max(size_bound, weight_bound, count_bound),
    )


class DisjointSets:
    """Union-find over 0..n-1 with path halving."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, u: int, v: int) -> bool:
        """Join the sets of u and v; False if they were already one set."""
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        self.parent[ru] = rv
        return True

    def reset(self, members: Iterable[int]) -> None:
        """Make each member a singleton; members must be whole sets."""
        for x in members:
            self.parent[x] = x


def shared_bins(n: int, bins: Iterable[Collection[int]]) -> list[list[int]]:
    """For each item 0..n-1, the ascending indices of the bins that hold it
    beside another item; bins are given as collections of item ids and a
    one-item bin is left out. For a k = 2 packing these are the item's edges
    in the packing graph."""
    index: list[list[int]] = [[] for _ in range(n)]
    for b, members in enumerate(bins):
        if len(members) > 1:
            for item in members:
                index[item].append(b)
    return index


def is_acyclic(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff the non-loop edges over items 0..n-1 form a forest (parallel
    edges count as cycles; loops never do)."""
    sets = DisjointSets(n)
    return all(sets.union(u, v) for u, v in edges if u != v)
