"""Reference bulk solvers for the differential tests of ``pack_75`` and
``next_fit``.

These are the ``Fraction`` versions, kept unchanged: ``_main_pass`` sorts
the items of each class by ``(size, id)`` tuples and compares and splits
``Fraction``s in bins of capacity 1, ``pack_75`` validates its final packing
with ``validate_packing``, and ``next_fit`` feeds the kernel the instance's
``Fraction`` sizes. The solvers in ``splitpack`` run in the unit of
``core.unit_sizes`` and must return equal packings, reports and traces.
The two repairs are the ``Fraction`` versions too, kept unchanged: they
rewrite the main pass's bins in place, and ``pack_75`` validates whatever
they leave. The trailing group is shared; the next-fit kernel and its
close reasons are ``reference_nextfit``'s, and the size classes are the
``Fraction`` forms of ``reference_normalize``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from splitpack import exact as exact_mod
from splitpack.algo75 import (
    SEVEN_BIN_SEARCH,
    TWO_BIN_REPACK,
    A75Report,
    StepLabel,
    _trailing_group,
)
from splitpack.core import (
    Instance,
    InternalError,
    Item,
    Packing,
    validate_packing,
)
from splitpack.nextfit import NF_LABEL, CloseReason, NfTrace

from reference_nextfit import next_fit_bins
from reference_normalize import ItemClass, classify


def split_2b(medium: Fraction, s_a: Fraction, s_b: Fraction) -> tuple[Fraction, Fraction]:
    """Split a medium item over two bins beside the two largest smalls.

    The first bin {s_a, part1} is made exactly full (part1 = 1 - s_a); the
    remainder lands beside s_b. With s_a >= s_b both at most 1/2 and
    medium + s_a > 1, the remainder is positive and the second bin fits.
    """
    if not (0 < s_b <= s_a <= Fraction(1, 2)):
        raise ValueError(f"need two small items with s_a >= s_b, got {s_a}, {s_b}")
    if not (Fraction(1, 2) < medium <= 1):
        raise ValueError(f"need a medium item, got {medium}")
    if medium + s_a <= 1:
        raise ValueError(f"{medium} fits beside {s_a}; splitting not needed")
    part1 = 1 - s_a
    part2 = medium - part1
    return part1, part2


def reclassify_lone_small(remaining_mediums: list[Fraction], small: Fraction) -> bool:
    """When one small is left and a medium needs two: does the small turn
    into a medium for the rest of the run? True iff no unpacked medium fits
    beside it."""
    return all(m + small > 1 for m in remaining_mediums)


def large_into_smalls(
    smalls: list[Item], larges: list[Item]
) -> tuple[list[list[Item]], list[str]]:
    """Steps 4 to 6: seed one bin per remaining small (smallest first), sweep
    the larges through them next-fit style (largest first), then pair up any
    untouched seeds; if the seeds run out inside a large item, that item and
    all later ones continue in fresh bins.
    """
    bins: list[list[Item]] = [[(sid, s)] for sid, s in smalls]
    labels = [StepLabel.S4] * len(bins)
    cursor = 0
    for idx, (lid, lsize) in enumerate(larges):
        rest = lsize
        while rest > 0 and cursor < len(smalls):
            space = 1 - smalls[cursor][1]
            take = min(rest, space)
            bins[cursor].append((lid, take))
            rest -= take
            cursor += 1  # two parts now, the bin takes nothing more
        if rest > 0:
            # Out of seeds mid-item: the remainder and every later large are
            # packed as a trailing next-fit group.
            tail, _ = next_fit_bins([(lid, rest)] + larges[idx + 1 :], 2)
            return bins + tail, labels + [StepLabel.S6] * len(tail)
    if cursor < len(smalls):
        # Untouched seeds hold one small each; repack those smalls in pairs.
        spare = smalls[cursor:]
        bins = bins[:cursor]
        labels = labels[:cursor]
        for j in range(0, len(spare) - 1, 2):
            bins.append([spare[j], spare[j + 1]])
            labels.append(StepLabel.S5)
        if len(spare) % 2 == 1:
            bins.append([spare[-1]])
            labels.append(StepLabel.S5)
    return bins, labels


def _repair_two_bin(
    inst: Instance, bins: list[list[Item]], labels: list[str], trail: list[int]
) -> bool:
    """Repack the one pair bin plus a two-bin trailing group into two bins
    when the instance has a single large item: medium first, then the large
    item split over both bins, then the small. Returns whether it was
    triggered; it may be triggered and leave the packing as it is."""
    if len(trail) != 2 or labels.count(StepLabel.S2A) != 1:
        return False
    larges = [i for i, s in inst.items() if classify(s) is ItemClass.LARGE]
    if len(larges) != 1:
        return False
    involved = [labels.index(StepLabel.S2A)] + trail
    coverage = Packing.build([bins[b] for b in involved]).coverage()
    if any(coverage[i] != inst.sizes[i] for i in coverage):
        return True
    by_class: dict[ItemClass, list[int]] = {}
    for i in coverage:
        by_class.setdefault(classify(inst.sizes[i]), []).append(i)
    if any(len(by_class.get(cls, ())) != 1 for cls in ItemClass):
        return True
    (m,) = by_class[ItemClass.MEDIUM]
    (s,) = by_class[ItemClass.SMALL]
    (big,) = by_class[ItemClass.LARGE]
    m_size, s_size, l_size = inst.sizes[m], inst.sizes[s], inst.sizes[big]
    first = [(m, m_size)]
    if m_size < 1:
        first.append((big, 1 - m_size))
    second = [(big, l_size - (1 - m_size)), (s, s_size)]
    candidate = [first, second]
    if any(
        sum((p for _, p in entries), Fraction(0)) > 1
        or any(p <= 0 for _, p in entries)
        for entries in candidate
    ):
        return True
    for b in sorted(involved, reverse=True):
        del bins[b]
        del labels[b]
    bins.extend(candidate)
    labels.extend([StepLabel.REPACKED] * 2)
    return True


def _repair_seven_bin(
    inst: Instance, bins: list[list[Item]], labels: list[str], trail: list[int]
) -> bool:
    """When the packing is exactly four pair-step bins, one fit-step bin and
    a five-bin trailing group, search exhaustively for a seven-bin packing of
    the whole instance and adopt it when one exists. Never increases the bin
    count. Returns whether it was triggered."""
    if len(bins) != 10 or len(trail) != 5:
        return False
    counts = Counter(labels)
    if not (
        counts[StepLabel.S2B] == 4
        and counts[StepLabel.S2A] == 1
        and counts[StepLabel.S3] + counts[StepLabel.S6] == 5
    ):
        return False
    # A fixed budget, so that the packing never depends on the environment.
    try:
        witness = exact_mod.feasible_in(
            inst, 7, exact_mod.SearchBudget(max_items=inst.n)
        )
    except exact_mod.BudgetExceeded:
        return True
    if witness is None:
        return True
    bins.clear()
    labels.clear()
    bins.extend([list(entries) for entries in witness.bins])
    labels.extend([StepLabel.REPACKED] * witness.n_bins)
    return True


def _main_pass(inst: Instance) -> tuple[list[list[Item]], list[str], Item | None]:
    """Stage one on a k = 2 instance: the raw bins, their step labels and the
    lone small moved into the next-fit stream, if any."""
    by_class: dict[ItemClass, list[Item]] = {cls: [] for cls in ItemClass}
    for item in inst.items():
        by_class[classify(item[1])].append(item)
    smalls = sorted(by_class[ItemClass.SMALL], key=lambda p: (p[1], p[0]))
    mediums = sorted(by_class[ItemClass.MEDIUM], key=lambda p: (-p[1], p[0]))
    larges = sorted(by_class[ItemClass.LARGE], key=lambda p: (-p[1], p[0]))

    bins: list[list[Item]] = []
    labels: list[str] = []
    lo, hi = 0, len(smalls) - 1
    deferred: list[Item] = []
    rest_mediums: list[Item] = []
    reclassified: Item | None = None

    for idx, (mid, msize) in enumerate(mediums):
        if lo > hi:
            rest_mediums = mediums[idx:]
            break
        s_lo_id, s_lo = smalls[lo]
        if msize + s_lo <= 1:
            bins.append([(mid, msize), (s_lo_id, s_lo)])
            labels.append(StepLabel.S2A)
            lo += 1
        elif hi - lo + 1 >= 2:
            sa_id, sa = smalls[hi]
            sb_id, sb = smalls[hi - 1]
            part1, part2 = split_2b(msize, sa, sb)
            bins.append([(sa_id, sa), (mid, part1)])
            labels.append(StepLabel.S2B)
            bins.append([(mid, part2), (sb_id, sb)])
            labels.append(StepLabel.S2B)
            hi -= 2
        else:
            later = [m for _, m in mediums[idx + 1 :]]
            deferred.append((mid, msize))
            if reclassify_lone_small(later, s_lo):
                reclassified = (s_lo_id, s_lo)
                lo += 1

    smalls_left = smalls[lo : hi + 1]
    stream = deferred + rest_mediums
    if reclassified is not None:
        stream.append(reclassified)

    if not smalls_left:
        tail, _ = next_fit_bins(stream + larges, 2)
        bins.extend(tail)
        labels.extend([StepLabel.S3] * len(tail))
    else:
        if stream:
            raise InternalError("mediums remain although small items are unpacked")
        tail_bins, tail_labels = large_into_smalls(smalls_left, larges)
        bins.extend(tail_bins)
        labels.extend(tail_labels)
    return bins, labels, reclassified


def pack_75(inst: Instance) -> A75Report:
    """Run the full k = 2 algorithm and return the labeled packing.

    Stage one pairs each medium with the smallest small that fits, or splits
    it over the two largest smalls; leftovers flow through next-fit. Stage
    two applies the repair passes. Output is always a valid packing.
    """
    if inst.k != 2:
        raise ValueError(f"this algorithm requires k=2, got k={inst.k}")
    bins, labels, reclassified = _main_pass(inst)
    fallback: str | None = None
    # The two-bin repair leaves the packing as it is unless it triggers.
    trail = _trailing_group(bins, labels)
    if _repair_two_bin(inst, bins, labels, trail):
        fallback = TWO_BIN_REPACK
    elif _repair_seven_bin(inst, bins, labels, trail):
        fallback = SEVEN_BIN_SEARCH

    packing = Packing.build(bins, labels)
    problems = validate_packing(inst, packing)
    if problems:
        raise InternalError(f"algorithm produced an invalid packing: {problems[0]}")
    return A75Report(
        packing=packing,
        label_counts=dict(Counter(packing.labels)),
        reclassified_small=reclassified is not None,
        fallback_triggered=fallback,
    )


def next_fit(inst: Instance) -> tuple[Packing, NfTrace]:
    """Run NEXT FIT over the instance in the given order.

    Returns the packing plus the trace. Total on all valid instances; the
    packing of a prefix of the input is a prefix of the full packing except
    for the still-open current bin.
    """
    bins, reasons = next_fit_bins(inst.items(), inst.k)
    blocks: list[tuple[int, int]] = []
    start = 0
    for i, reason in enumerate(reasons):
        if reason is CloseReason.CARDINALITY or i == len(reasons) - 1:
            blocks.append((start, i - start + 1))
            start = i + 1

    packing = Packing.build(bins, [NF_LABEL] * len(bins))
    trace = NfTrace(
        bins=packing.bins,
        close_reasons=tuple(reasons),
        blocks=tuple(blocks),
    )
    return packing, trace
