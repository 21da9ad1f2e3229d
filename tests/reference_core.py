"""Reference validator and scaling for the differential tests of
``splitpack.core``.

``bin_violations`` is the original, kept unchanged: it sums every bin and
every item's coverage with ``Fraction`` (or plain integer) arithmetic. The
numerator/denominator version in ``splitpack.core`` must return exactly its
list on every packing without a duplicate entry, which it does not detect.

``scaled_sizes`` is the oracle's original scaling, an unbounded lcm; below
``core.UNIT_BITS`` bits ``core.unit_sizes`` must return exactly its result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from splitpack.core import Instance, Item


def bin_violations(
    inst: Instance,
    bins: Iterable[Collection[Item]],
    cap: int = 1,
    sizes: Sequence[int | Fraction] | None = None,
) -> list[str]:
    if sizes is None:
        sizes = inst.sizes
    n = len(sizes)
    violations: list[str] = []
    covered: dict[int, int | Fraction] = {}
    for b, entries in enumerate(bins):
        if not entries:
            violations.append(f"empty bin: bin {b} has no parts")
            continue
        total = None
        for item, part in entries:
            if not (0 <= item < n):
                violations.append(
                    f"unknown item: bin {b} references item {item} not in instance"
                )
            if part <= 0:
                violations.append(
                    f"positivity: bin {b} item {item} has non-positive part {part}"
                )
            got = covered.get(item)
            covered[item] = part if got is None else got + part
            total = part if total is None else total + part
        if len(entries) > inst.k:
            violations.append(
                f"cardinality: bin {b} has {len(entries)} > k={inst.k} parts"
            )
        if total > cap:
            violations.append(f"capacity: bin {b} holds {total} > {cap}")
    for item, size in enumerate(sizes):
        got = covered.get(item, 0)
        if got != size:
            violations.append(f"coverage: item {item} covered {got} of {size}")
    return violations


def scaled_sizes(sizes: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The sizes as integers over their least common denominator: returns
    that denominator (the scaled bin capacity) and the scaled sizes."""
    scale = math.lcm(1, *(s.denominator for s in sizes))
    return scale, [s.numerator * (scale // s.denominator) for s in sizes]
