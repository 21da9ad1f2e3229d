"""Reference next-fit kernel for the differential tests of
``splitpack.nextfit``.

``next_fit_bins`` and ``spill`` are the kernel as it was before it kept the
open bin in a local and before ``spill`` returned a lone bin early: the open
bin is read as ``bins[-1]`` on every item, and every spill divides. It also
records a close reason for each bin as it closes it, through a frozen copy
of the rule the kernel once applied. The kernel in ``splitpack.nextfit``
must return exactly its bins, with parts of the same type, on every stream,
and ``splitpack.next_fit``'s trace exactly its close reasons on every
instance.
"""

from __future__ import annotations

from typing import Iterable

from splitpack.core import Item, Scaled
from splitpack.nextfit import CloseReason


def _close_reason(
    entries: list[Item], fill: Scaled, k: int, cap: int
) -> CloseReason:
    # Only called when the bin's last part completes its item: a spill head
    # is closed as FILLED at the overflow.
    if len(entries) == k:
        return CloseReason.CARDINALITY
    return CloseReason.FILLED if fill == cap else CloseReason.END_OF_INPUT


def spill(item: int, rest: Scaled, cap: int = 1) -> list[list[Item]]:
    whole = -(-rest // cap) - 1
    return [[(item, cap)] for _ in range(whole)] + [[(item, rest - whole * cap)]]


def next_fit_bins(
    stream: Iterable[Item], k: int, cap: int = 1
) -> tuple[list[list[Item]], list[CloseReason]]:
    bins: list[list[Item]] = []
    reasons: list[CloseReason] = []
    fill = 0
    for item, size in stream:
        if not bins or fill == cap or len(bins[-1]) == k:
            if bins:
                reasons.append(_close_reason(bins[-1], fill, k, cap))
            bins.append([])
            fill = 0
        space = cap - fill
        if size <= space:
            bins[-1].append((item, size))
            fill += size
            continue
        bins[-1].append((item, space))
        fresh = spill(item, size - space, cap)
        reasons.extend([CloseReason.FILLED] * len(fresh))
        bins.extend(fresh)
        fill = fresh[-1][0][1]
    if bins:
        reasons.append(_close_reason(bins[-1], fill, k, cap))
    return bins, reasons
