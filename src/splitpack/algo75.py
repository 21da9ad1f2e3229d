"""Two-stage approximation algorithm for k = 2 with repair passes.

Items are classified small (at most 1/2), medium ((1/2, 1]) and large
(above 1). The main pass works through the mediums against the sorted
smalls, then sweeps larges through small-seeded bins; two narrow repair
passes repack the rare configurations where the plain output could land
above 7/5 of the optimum. Every next-fit run of the main pass, the leftover
groups (S3, S6) and the pairs of spare smalls (S5), is one call of the
kernel ``nextfit.next_fit_bins`` with k = 2.

Bin labels record the step that produced each bin, so reports and repair
triggers can tell bins apart without re-deriving history.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .core import (
    Instance,
    InternalError,
    Item,
    Packing,
    Scaled,
    bin_violations,
    unit_packing,
    unit_sizes,
    validate_packing,
)
from . import exact as exact_mod
from .nextfit import next_fit_bins


class StepLabel:
    S2A = "S2a"
    S2B = "S2b"
    S3 = "S3"
    S4 = "S4"
    S5 = "S5"
    S6 = "S6"
    REPACKED = "Repacked"


TWO_BIN_REPACK = "TwoBinRepack"
SEVEN_BIN_SEARCH = "SevenBinSearch"


@dataclass(frozen=True)
class A75Report:
    packing: Packing
    label_counts: dict[str, int]
    reclassified_small: bool
    fallback_triggered: str | None

    @property
    def n_bins(self) -> int:
        return self.packing.n_bins


def split_2b(
    medium: Scaled, s_a: Scaled, s_b: Scaled, cap: int = 1
) -> tuple[Scaled, Scaled]:
    """Split a medium item over two bins beside the two largest smalls, in
    bins of capacity `cap` (sizes and parts share its unit).

    The first bin {s_a, part1} is made exactly full (part1 = cap - s_a); the
    remainder lands beside s_b. With s_a >= s_b both at most cap/2 and
    medium + s_a > cap, the remainder is positive and the second bin fits.
    """
    if not (0 < s_b <= s_a and 2 * s_a <= cap):
        raise ValueError(f"need two small items with s_a >= s_b, got {s_a}, {s_b}")
    if not (cap < 2 * medium and medium <= cap):
        raise ValueError(f"need a medium item, got {medium}")
    if medium + s_a <= cap:
        raise ValueError(f"{medium} fits beside {s_a}; splitting not needed")
    part1 = cap - s_a
    part2 = medium - part1
    return part1, part2


def reclassify_lone_small(
    remaining_mediums: list[Scaled], small: Scaled, cap: int = 1
) -> bool:
    """When one small is left and a medium needs two: does the small turn
    into a medium for the rest of the run? True iff no unpacked medium fits
    beside it in a bin of capacity `cap`."""
    return all(m + small > cap for m in remaining_mediums)


def large_into_smalls(
    smalls: list[Item], larges: list[Item], cap: int = 1
) -> tuple[list[list[Item]], list[str]]:
    """Steps 4 to 6: seed one bin per remaining small (smallest first), sweep
    the larges through them next-fit style (largest first), then pair up any
    untouched seeds with the next-fit kernel (step 5); if the seeds run out
    inside a large item, that item and all later ones continue in fresh bins
    through the same kernel (step 6). Bins have capacity `cap`.
    """
    bins: list[list[Item]] = [[item] for item in smalls]
    labels = [StepLabel.S4] * len(bins)
    cursor = 0
    for idx, (lid, lsize) in enumerate(larges):
        rest = lsize
        while rest > 0 and cursor < len(smalls):
            space = cap - smalls[cursor][1]
            take = min(rest, space)
            bins[cursor].append((lid, take))
            rest -= take
            cursor += 1  # two parts now, the bin takes nothing more
        if rest > 0:
            # Out of seeds mid-item: the remainder and every later large are
            # packed as a trailing next-fit group.
            tail, _ = next_fit_bins([(lid, rest)] + larges[idx + 1 :], 2, cap)
            return bins + tail, labels + [StepLabel.S6] * len(tail)
    # Untouched seeds hold one small each: next fit packs those smalls in
    # pairs, as two smalls always fit one bin.
    spare, _ = next_fit_bins(smalls[cursor:], 2, cap)
    return bins[:cursor] + spare, labels[:cursor] + [StepLabel.S5] * len(spare)


_NEXT_FIT_STEPS = (StepLabel.S3, StepLabel.S6)


def _trailing_group(bins: list[list[Item]], labels: list[str]) -> list[int]:
    """The run of next-fit bins at the end of the packing that share items
    pairwise. Next fit links consecutive bins only through a split item,
    the last entry of one bin and the first of the next; the close reasons
    cannot stand in, since FILLED also closes an exactly full one-part bin."""
    last = len(bins) - 1
    if last < 0 or labels[last] not in _NEXT_FIT_STEPS:
        return []
    first = last
    while (
        first > 0
        and labels[first - 1] in _NEXT_FIT_STEPS
        and bins[first - 1][-1][0] == bins[first][0][0]
    ):
        first -= 1
    return list(range(first, last + 1))


def _repair_two_bin(
    bins: list[list[Item]],
    labels: list[str],
    trail: list[int],
    cap: int,
    sizes: Sequence[Scaled],
) -> bool:
    """Repack the one pair bin plus a two-bin trailing group into two bins
    when the instance has a single large item: medium first, then the large
    item split over both bins, then the small. Bins, sizes and parts share
    the main pass's unit, bins of capacity `cap`. Returns whether it was
    triggered; it may be triggered and leave the packing as it is."""
    if len(trail) != 2 or labels.count(StepLabel.S2A) != 1:
        return False
    if sum(s > cap for s in sizes) != 1:
        return False
    involved = [labels.index(StepLabel.S2A)] + trail
    coverage: dict[int, Scaled] = {}
    for b in involved:
        for i, p in bins[b]:
            coverage[i] = coverage.get(i, 0) + p
    if any(coverage[i] != sizes[i] for i in coverage):
        return True
    # Class 0 small (2s <= cap), 1 medium, 2 large (s > cap).
    by_class: dict[int, list[int]] = {}
    for i in coverage:
        by_class.setdefault((2 * sizes[i] > cap) + (sizes[i] > cap), []).append(i)
    if any(len(by_class.get(c, ())) != 1 for c in range(3)):
        return True
    (s,), (m,), (big,) = by_class[0], by_class[1], by_class[2]
    m_size, s_size, l_size = sizes[m], sizes[s], sizes[big]
    first = [(m, m_size)]
    if m_size < cap:
        first.append((big, cap - m_size))
    second = [(big, l_size - (cap - m_size)), (s, s_size)]
    candidate = [first, second]
    if any(
        sum(p for _, p in entries) > cap or any(p <= 0 for _, p in entries)
        for entries in candidate
    ):
        return True
    for b in sorted(involved, reverse=True):
        del bins[b]
        del labels[b]
    bins.extend(candidate)
    labels.extend([StepLabel.REPACKED] * 2)
    return True


def _seven_bin_pattern(labels: list[str], trail: list[int]) -> bool:
    """Whether the packing is exactly four pair-step bins, one fit-step bin
    and a five-bin trailing group, where the seven-bin repair fires."""
    if len(labels) != 10 or len(trail) != 5:
        return False
    counts = Counter(labels)
    return (
        counts[StepLabel.S2B] == 4
        and counts[StepLabel.S2A] == 1
        and counts[StepLabel.S3] + counts[StepLabel.S6] == 5
    )


def _repair_seven_bin(inst: Instance) -> Packing | None:
    """Search exhaustively for a seven-bin packing of the whole instance:
    ``exact.feasible_in``'s witness, relabelled as repacked, or None when
    none exists or the search runs out of its budget."""
    # A fixed budget, so that the packing never depends on the environment.
    try:
        witness = exact_mod.feasible_in(
            inst, 7, exact_mod.SearchBudget(max_items=inst.n)
        )
    except exact_mod.BudgetExceeded:
        return None
    if witness is None:
        return None
    return Packing(witness.bins, (StepLabel.REPACKED,) * witness.n_bins)


def _main_pass(
    inst: Instance, cap: int = 1, sizes: Sequence[Scaled] | None = None
) -> tuple[list[list[Item]], list[str], Item | None]:
    """Stage one on a k = 2 instance: the raw bins, their step labels and the
    lone small moved into the next-fit stream, if any.

    Sizes and parts share one unit: by default the instance's sizes in bins
    of capacity 1, or the sizes and capacity of ``core.unit_sizes``. Each
    class is sorted by size alone; the sorts are stable, so equal sizes keep
    ascending ids (also under ``reverse=True``)."""
    if sizes is None:
        sizes = inst.sizes
    smalls: list[int] = []
    mediums: list[int] = []
    larges: list[int] = []
    for i, s in enumerate(sizes):
        if 2 * s <= cap:
            smalls.append(i)
        elif s <= cap:
            mediums.append(i)
        else:
            larges.append(i)
    size_of = sizes.__getitem__
    smalls.sort(key=size_of)
    mediums.sort(key=size_of, reverse=True)
    larges.sort(key=size_of, reverse=True)

    bins: list[list[Item]] = []
    labels: list[str] = []
    lo, hi = 0, len(smalls) - 1
    deferred: list[int] = []
    rest_mediums: list[int] = []
    reclassified: Item | None = None

    for idx, mid in enumerate(mediums):
        if lo > hi:
            rest_mediums = mediums[idx:]
            break
        msize = sizes[mid]
        s_lo_id = smalls[lo]
        s_lo = sizes[s_lo_id]
        if msize + s_lo <= cap:
            bins.append([(mid, msize), (s_lo_id, s_lo)])
            labels.append(StepLabel.S2A)
            lo += 1
        elif hi - lo + 1 >= 2:
            sa_id, sb_id = smalls[hi], smalls[hi - 1]
            sa, sb = sizes[sa_id], sizes[sb_id]
            part1, part2 = split_2b(msize, sa, sb, cap)
            bins.append([(sa_id, sa), (mid, part1)])
            labels.append(StepLabel.S2B)
            bins.append([(mid, part2), (sb_id, sb)])
            labels.append(StepLabel.S2B)
            hi -= 2
        else:
            deferred.append(mid)
            # Mediums go largest first, so the last one is the smallest left.
            later = [sizes[mediums[-1]]] if idx + 1 < len(mediums) else []
            if reclassify_lone_small(later, s_lo, cap):
                reclassified = (s_lo_id, s_lo)
                lo += 1

    smalls_left = [(i, sizes[i]) for i in smalls[lo : hi + 1]]
    stream = [(i, sizes[i]) for i in deferred + rest_mediums]
    if reclassified is not None:
        stream.append(reclassified)
    large_items = [(i, sizes[i]) for i in larges]

    if not smalls_left:
        tail, _ = next_fit_bins(stream + large_items, 2, cap)
        bins.extend(tail)
        labels.extend([StepLabel.S3] * len(tail))
    else:
        if stream:
            raise InternalError("mediums remain although small items are unpacked")
        tail_bins, tail_labels = large_into_smalls(smalls_left, large_items, cap)
        bins.extend(tail_bins)
        labels.extend(tail_labels)
    return bins, labels, reclassified


def pack_75(inst: Instance) -> A75Report:
    """Run the full k = 2 algorithm and return the labeled packing.

    Stage one pairs each medium with the smallest small that fits, or splits
    it over the two largest smalls; leftovers flow through next-fit. It runs
    once, in the instance's ``core.unit_sizes`` unit, and so does the
    two-bin repair on its bins. One ``bin_violations`` call checks what
    they leave in that unit before the parts turn back into ``Fraction``s
    once: that check certifies the packing, since the conversion is exact.
    A seven-bin witness that the repair adopts replaces the packing and is
    validated alone. Output is always a valid packing.
    """
    if inst.k != 2:
        raise ValueError(f"this algorithm requires k=2, got k={inst.k}")
    cap, sizes = unit_sizes(inst.sizes)
    bins, labels, reclassified = _main_pass(inst, cap, sizes)
    # The group is read from the entry order the main pass left, which
    # unit_packing sorts by item id.
    trail = _trailing_group(bins, labels)
    fallback: str | None = None
    packing = None
    # The two-bin repair leaves the packing as it is unless it triggers.
    if _repair_two_bin(bins, labels, trail, cap, sizes):
        fallback = TWO_BIN_REPACK
    elif _seven_bin_pattern(labels, trail):
        fallback = SEVEN_BIN_SEARCH
        packing = _repair_seven_bin(inst)
    if packing is None:
        problems = bin_violations(inst, bins, cap, sizes)
    else:
        problems = validate_packing(inst, packing)
    if problems:
        raise InternalError(f"algorithm produced an invalid packing: {problems[0]}")
    if packing is None:
        packing = unit_packing(inst, bins, cap, sizes, labels)
    return A75Report(
        packing=packing,
        label_counts=dict(Counter(packing.labels)),
        reclassified_small=reclassified is not None,
        fallback_triggered=fallback,
    )
