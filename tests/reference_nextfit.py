"""Reference next-fit kernel for the differential tests of
``splitpack.nextfit``.

``next_fit_bins`` and ``spill`` are the kernel as it was before it kept the
open bin in a local and before ``spill`` returned a lone bin early: the open
bin is read as ``bins[-1]`` on every item, and every spill divides. Close
reasons come from ``splitpack.nextfit._close_reason``, which is shared. The
kernel in ``splitpack.nextfit`` must return exactly its bins and close
reasons, with parts of the same type, on every stream.
"""

from __future__ import annotations

from typing import Iterable

from splitpack.core import Item, Scaled
from splitpack.nextfit import CloseReason, _close_reason


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
