"""Reference validator for the differential tests of ``splitpack.core``.

This is the original ``bin_violations``, kept unchanged: it sums every bin
and every item's coverage with ``Fraction`` (or plain integer) arithmetic.
The numerator/denominator version in ``splitpack.core`` must return exactly
its list on every packing without a duplicate entry, which it does not
detect.
"""

from __future__ import annotations

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
