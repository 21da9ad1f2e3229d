"""Two-stage approximation algorithm for k = 2 with repair passes.

Items are classified small (at most 1/2), medium ((1/2, 1]) and large
(above 1). The main pass takes the mediums largest first: each one joins
the smallest small that fits beside it (S2a) or is split over the two
largest smalls, filling the first bin exactly (S2b). A lone small that no
later medium fits beside turns medium. With smalls left, the larges sweep
through small-seeded bins (S4), running on next fit if the seeds run out
(S6), and the spare smalls pair up (S5); with none left, the leftover
mediums and larges run next fit (S3). Every next-fit run is one call of the
kernel ``nextfit.next_fit_bins`` with k = 2. Two narrow repair passes
repack the rare configurations where the plain output could land above 7/5
of the optimum: a prescribed two-bin repack and an exhaustive seven-bin
search.

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
    brief_repr,
    checked_packing,
    unit_sizes,
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
            tail = next_fit_bins([(lid, rest)] + larges[idx + 1 :], 2, cap)
            return bins + tail, labels + [StepLabel.S6] * len(tail)
    # Untouched seeds hold one small each: next fit packs those smalls in
    # pairs, as two smalls always fit one bin.
    spare = next_fit_bins(smalls[cursor:], 2, cap)
    return bins[:cursor] + spare, labels[:cursor] + [StepLabel.S5] * len(spare)


_NEXT_FIT_STEPS = (StepLabel.S3, StepLabel.S6)


def _trailing_group(bins: list[list[Item]], labels: list[str]) -> list[int]:
    """The run of next-fit bins at the end of the packing that share items
    pairwise. Next fit links consecutive bins only through a split item,
    the last entry of one bin and the first of the next, so the link is
    read from the bins, which are all the kernel returns."""
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
    triggered; it may be triggered and leave the packing as it is.

    The main pass builds the pair bin as [medium m, small s], both whole.
    Once triggered, the repack is made iff the trailing bins hold parts of
    one item `big` alone and its size l has l + m + s <= 2 * cap. The new
    bins are [m, cap - m of `big`] (m alone when m = cap) and [the rest of
    `big`, s]: the fit test is that the second one fits. No more is needed:
    `big` alone in the group's first bin opened an empty next-fit bin and
    still split, so it is above `cap`. On the S3 path all of its parts lie
    in the group. On the S6 path it also has an S4 part of at least cap/2
    beside a rest above `cap`, so l + m > 2 * cap and the fit test
    refuses."""
    if len(trail) != 2 or labels.count(StepLabel.S2A) != 1:
        return False
    if sum(s > cap for s in sizes) != 1:
        return False
    pair = labels.index(StepLabel.S2A)
    (m, m_size), (s, s_size) = bins[pair]
    tail = [entry for b in trail for entry in bins[b]]
    big = tail[0][0]
    l_size = sizes[big]
    if any(i != big for i, _ in tail) or l_size + m_size + s_size > 2 * cap:
        return True
    first = [(m, m_size)]
    if m_size < cap:
        first.append((big, cap - m_size))
    for b in sorted([pair] + trail, reverse=True):
        del bins[b]
        del labels[b]
    bins.extend([first, [(big, l_size - (cap - m_size)), (s, s_size)]])
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
    ``exact.feasible_in``'s witness, or None when none exists or the search
    runs out of its budget."""
    # A fixed budget, so that the packing never depends on the environment.
    try:
        witness = exact_mod.feasible_in(
            inst, 7, exact_mod.SearchBudget(max_items=inst.n)
        )
    except exact_mod.BudgetExceeded:
        return None
    return witness


def _main_pass(
    cap: int, sizes: Sequence[Scaled]
) -> tuple[list[list[Item]], list[str], Item | None]:
    """Stage one on the sizes of a k = 2 instance in bins of capacity `cap`
    (the instance's sizes at capacity 1, or the sizes and capacity of
    ``core.unit_sizes``; parts share their unit): the raw bins, their step
    labels and the lone small moved into the next-fit stream, if any.

    Each class is sorted by size alone; the sorts are stable, so equal
    sizes keep ascending ids (also under ``reverse=True``)."""
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
    leftover: list[int] = []
    reclassified: Item | None = None

    for idx, mid in enumerate(mediums):
        if lo > hi:
            leftover += mediums[idx:]
            break
        msize = sizes[mid]
        s_lo_id = smalls[lo]
        s_lo = sizes[s_lo_id]
        if msize + s_lo <= cap:
            bins.append([(mid, msize), (s_lo_id, s_lo)])
            labels.append(StepLabel.S2A)
            lo += 1
        elif hi > lo:
            # S2b: the medium fills the bin of the largest small exactly;
            # as it does not fit beside the smallest, the rest is positive,
            # and it fits beside the second largest small.
            sa_id, sb_id = smalls[hi], smalls[hi - 1]
            part1 = cap - sizes[sa_id]
            bins.append([(sa_id, sizes[sa_id]), (mid, part1)])
            bins.append([(mid, msize - part1), (sb_id, sizes[sb_id])])
            labels += [StepLabel.S2B, StepLabel.S2B]
            hi -= 2
        else:
            leftover.append(mid)
            # The lone small turns medium unless a later medium fits beside
            # it. Mediums go largest first, so the last is the smallest left.
            if idx + 1 == len(mediums) or sizes[mediums[-1]] + s_lo > cap:
                reclassified = (s_lo_id, s_lo)
                lo += 1

    smalls_left = [(i, sizes[i]) for i in smalls[lo : hi + 1]]
    stream = [(i, sizes[i]) for i in leftover]
    if reclassified is not None:
        stream.append(reclassified)
    large_items = [(i, sizes[i]) for i in larges]

    if not smalls_left:
        tail = next_fit_bins(stream + large_items, 2, cap)
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
    two-bin repair on its bins. A seven-bin witness that the repair adopts
    replaces those bins, relabelled as repacked, in ``Fraction``s at
    capacity 1. ``core.checked_packing`` checks the bins once, in their
    unit, before the parts turn back into ``Fraction``s once: that check
    certifies the packing, since the conversion is exact, so the packing is
    returned marked as checked for inst and ``validate_packing`` does not
    repeat it. A failed check is an ``InternalError``; output is always a
    valid packing.
    """
    if inst.k != 2:
        raise ValueError(f"this algorithm requires k=2, got k={brief_repr(inst.k)}")
    cap, sizes = unit_sizes(inst.sizes)
    bins, labels, reclassified = _main_pass(cap, sizes)
    # The group is read from the entry order the main pass left, which
    # checked_packing sorts by item id.
    trail = _trailing_group(bins, labels)
    fallback: str | None = None
    # The two-bin repair leaves the packing as it is unless it triggers.
    if _repair_two_bin(bins, labels, trail, cap, sizes):
        fallback = TWO_BIN_REPACK
    elif _seven_bin_pattern(labels, trail):
        fallback = SEVEN_BIN_SEARCH
        witness = _repair_seven_bin(inst)
        if witness is not None:
            bins, cap, sizes = witness.bins, 1, inst.sizes
            labels = [StepLabel.REPACKED] * witness.n_bins
    packing = checked_packing(inst, bins, cap, sizes, labels)
    return A75Report(
        packing=packing,
        label_counts=dict(Counter(packing.labels)),
        reclassified_small=reclassified is not None,
        fallback_triggered=fallback,
    )
