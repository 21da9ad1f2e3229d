"""Online NEXT FIT for splittable items under a per-bin part limit.

One stream kernel, ``next_fit_bins``, is the package's only next-fit loop:
``next_fit``, ``pack_75``'s leftover groups (steps 3 and 6) and its pairs of
spare smalls (step 5), and the oracle's upper bound run it; its overflow
step ``spill`` also serves the oracle's best-fit heuristic. The kernel
returns the bins and nothing else. It runs in either of two units, chosen by
the bin capacity ``cap``: the default 1 for ``Fraction`` sizes as given, or
the common denominator of ``core.unit_sizes`` for the sizes scaled to
integers, where every comparison and sum is an integer operation. Scaling is
exact, so both runs give the same bins up to the factor ``cap``. The parts
an overflowing item puts alone into whole bins are ``cap`` itself, an
``int`` in either unit; every other part has the type of the sizes.
``next_fit``, ``pack_75`` and the oracle run in the unit
``core.unit_sizes`` picks: the integers whenever the common denominator has
at most ``core.UNIT_BITS`` bits, the ``Fraction``s otherwise, through the
same code.

Items are consumed strictly in stream order. An item goes into the current
bin while that bin has spare capacity and fewer than k parts; an item that
does not fit entirely fills the current bin, closes it, and spills into
exactly ceil(remaining) fresh bins, all but the last filled to capacity.

``next_fit``'s trace records why each bin stopped accepting parts, read
from the kernel's bins by the rule written beside that code, and the
resulting block structure: a block is a maximal run of bins in which every
bin but the last is exactly full, and every block except possibly the final
one ends with a bin closed by the part limit, holding exactly k parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .core import (
    BinEntries,
    Instance,
    Item,
    Packing,
    Scaled,
    checked_packing,
    checked_violations,
    mark_checked,
    unit_sizes,
    unmarked_state,
)

NF_LABEL = "nf"


class CloseReason(Enum):
    FILLED = "filled"
    CARDINALITY = "cardinality"
    END_OF_INPUT = "end-of-input"


@dataclass(frozen=True)
class NfTrace:
    """Execution record: the bins, per-bin close reasons, and block spans
    (start index, length) covering all bins in order."""

    bins: tuple[BinEntries, ...]
    close_reasons: tuple[CloseReason, ...]
    blocks: tuple[tuple[int, int], ...]

    @property
    def n_bins(self) -> int:
        return len(self.bins)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def __getstate__(self) -> dict:
        return unmarked_state(self)


def spill(item: int, rest: Scaled, cap: int = 1) -> list[list[Item]]:
    """The ceil(rest / cap) fresh bins an item's remainder `rest` fills: each
    holds a part of cap except the last, which holds the rest. A rest of at
    most cap is the one bin ``[[(item, rest)]]``, returned without a
    division."""
    if rest <= cap:
        return [[(item, rest)]]
    whole = -(-rest // cap) - 1
    return [[(item, cap)] for _ in range(whole)] + [[(item, rest - whole * cap)]]


def next_fit_bins(
    stream: Iterable[Item], k: int, cap: int = 1
) -> list[list[Item]]:
    """NEXT FIT over an explicit (id, size) stream, in stream order, into
    bins of capacity `cap` (parts and sizes share its unit).

    Returns the raw bins, unmerged. Sizes may exceed cap, and the first
    entry may be the remainder of an item whose other parts lie elsewhere.
    The open bin, always the last of the bins, is held in a local with its
    fill, so an item that fits costs one append. A bin is closed only when
    it is full, holds k parts, or its last part is the head of an
    overflowing item.
    """
    bins: list[list[Item]] = []
    # The open bin and its fill; a fill of cap opens a bin for the first item.
    current: list[Item] = []
    fill = cap
    for item, size in stream:
        if fill == cap or len(current) == k:
            current = []
            bins.append(current)
            fill = 0
        space = cap - fill
        if size <= space:
            current.append((item, size))
            fill += size
            continue
        # Overflow: a full bin was closed above, so the item's head takes the
        # open bin's room and the rest spills into fresh bins.
        current.append((item, space))
        fresh = spill(item, size - space, cap)
        bins.extend(fresh)
        current = fresh[-1]
        fill = current[0][1]
    return bins


def next_fit(inst: Instance) -> tuple[Packing, NfTrace]:
    """Run NEXT FIT over the instance in the given order.

    Runs the kernel once, in the instance's ``core.unit_sizes`` unit,
    checks its bins there with ``core.checked_packing`` (a failure is an
    ``InternalError``) and converts the parts back to ``Fraction``s once.
    Returns the packing plus the trace, both marked as checked for inst, so
    ``validate_packing`` and ``check_block_inequality`` do not check them
    again. Total on all valid instances; the packing of a prefix of the
    input is a prefix of the full packing except for the still-open current
    bin.
    """
    cap, sizes = unit_sizes(inst.sizes)
    k = inst.k
    bins = next_fit_bins(enumerate(sizes), k, cap)
    packing = checked_packing(inst, bins, cap, sizes, [NF_LABEL] * len(bins))
    # The close reasons, read from the bins: the kernel closes a bin only
    # when it is full, holds k parts or its last part overflows. A bin
    # before the last was closed full (FILLED) when its last item continues
    # in the next bin (item ids are unique), even at k parts, or when it
    # holds fewer than k parts. Otherwise its k-th part completed an item
    # and the part limit closed it (CARDINALITY), even if it is also full.
    # The last bin is closed by the end of the input unless it holds k
    # parts or is full.
    reasons = [
        CloseReason.FILLED
        if len(entries) < k or entries[-1][0] == after[0][0]
        else CloseReason.CARDINALITY
        for entries, after in zip(bins, bins[1:])
    ]
    if bins:
        last = bins[-1]
        if len(last) == k:
            reasons.append(CloseReason.CARDINALITY)
        elif sum(part for _, part in last) == cap:
            reasons.append(CloseReason.FILLED)
        else:
            reasons.append(CloseReason.END_OF_INPUT)
    blocks: list[tuple[int, int]] = []
    start = 0
    for i, reason in enumerate(reasons):
        if reason is CloseReason.CARDINALITY or i == len(reasons) - 1:
            blocks.append((start, i - start + 1))
            start = i + 1
    trace = NfTrace(packing.bins, tuple(reasons), tuple(blocks))
    mark_checked(inst, trace)
    return packing, trace


def check_block_inequality(inst: Instance, trace: NfTrace) -> bool:
    """Check the per-block weight bound on a NEXT FIT trace.

    With nf bins in m blocks, the item weights must satisfy
    sum_i ceil(s_i)/k >= (nf + (m-1)(k-1))/k, checked on integers as
    sum_i ceil(s_i) >= nf + (m-1)(k-1); every bin before a block's last
    is full and each non-final block ends at k parts, which forces at least
    k-1 unsplit items into that closing bin. A False return means the trace
    does not come from this implementation's NEXT FIT.

    The trace's bins must be a valid packing of inst, or ``ValueError`` is
    raised. A trace that ``next_fit`` returned for inst was checked when it
    was built and is not checked again; any other trace, such as one
    rebuilt by hand or passed with another instance, gets the full check.
    """
    problems = checked_violations(inst, trace)
    if problems:
        raise ValueError(f"trace does not match the instance: {problems[0]}")
    nf = trace.n_bins
    m = trace.n_blocks
    return inst.parts_needed >= nf + (m - 1) * (inst.k - 1)
