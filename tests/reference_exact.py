"""Reference oracle for the differential tests of ``splitpack.exact``.

This is the original search, kept unchanged apart from its imports: for
k = 2 a forest-plus-loops enumeration that tries every split of the spare
loops with a tree check, and for k >= 3 an enumeration of general incidence
structures decided by Hall's cut condition and a max-flow, with the
``forest_only``, ``symmetry`` and ``maximal_only`` knobs. Its answers and,
for k = 2, its witnesses are the specification the forest oracle must meet.

``partition_lower_bound`` is the plain subset DP of the partition lower
bound, the specification of the oracle's pruned decision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from splitpack.core import (
    Instance,
    Packing,
    lower_bounds,
    validate_packing,
)
from splitpack.exact import BudgetExceeded, SearchBudget
from splitpack.nextfit import next_fit

EXACT_LABEL = "exact"

_PERM_CAP = 1000  # skip symmetry dedup when the relabeling group is larger


@dataclass(frozen=True)
class IncidenceStructure:
    """One candidate bin layout: per bin, the set of items allowed in it.

    No bin repeats an item (same-item parts merge); bins are kept in a sorted
    canonical order so equal structures compare equal.
    """

    bins: tuple[tuple[int, ...], ...]

    @staticmethod
    def build(bins: Sequence[Sequence[int]]) -> "IncidenceStructure":
        return IncidenceStructure(tuple(sorted(tuple(sorted(b)) for b in bins)))

    def degrees(self, n: int) -> list[int]:
        deg = [0] * n
        for b in self.bins:
            for item in b:
                deg[item] += 1
        return deg

    def canonical_key(
        self, perms: Sequence[Sequence[int]]
    ) -> tuple[tuple[int, ...], ...]:
        """Minimal relabeling over the given item permutations (all of which
        must preserve sizes); identity-only groups make this a no-op."""
        if len(perms) <= 1:
            return self.bins
        best = None
        for perm in perms:
            mapped = tuple(
                sorted(tuple(sorted(perm[i] for i in b)) for b in self.bins)
            )
            if best is None or mapped < best:
                best = mapped
        assert best is not None
        return best


# ---------------------------------------------------------------------------
# Exact max-flow feasibility for a fixed structure.


class FlowNetwork:
    """source -> item arcs with capacity s_i, item -> bin arcs with capacity 1
    per incidence, bin -> sink arcs with capacity 1.

    Capacities are rationals; internally they are scaled by the common
    denominator so augmentation runs on integers, which is exact and fast.
    Shortest-augmenting-path search makes termination combinatorial.
    """

    def __init__(self, sizes: Sequence[Fraction], structure: IncidenceStructure):
        self.sizes = tuple(Fraction(s) for s in sizes)
        self.structure = structure
        self.scale = math.lcm(1, *(s.denominator for s in self.sizes))

    def max_flow(self) -> tuple[Fraction, list[list[tuple[int, Fraction]]]]:
        """Return the max-flow value and the per-bin item parts it induces."""
        n = len(self.sizes)
        bins = self.structure.bins
        b_count = len(bins)
        source = 0
        sink = n + b_count + 1
        n_nodes = sink + 1
        cap = self.scale

        to: list[int] = []
        caps: list[int] = []
        adj: list[list[int]] = [[] for _ in range(n_nodes)]

        def add(u: int, v: int, c: int) -> None:
            adj[u].append(len(to))
            to.append(v)
            caps.append(c)
            adj[v].append(len(to))
            to.append(u)
            caps.append(0)

        for i, s in enumerate(self.sizes):
            add(source, 1 + i, int(s * cap))
        item_bin_edge: dict[tuple[int, int], int] = {}
        for b, members in enumerate(bins):
            for i in members:
                item_bin_edge[(i, b)] = len(to)
                add(1 + i, 1 + n + b, cap)
            add(1 + n + b, sink, cap)

        total = 0
        while True:
            parent_edge = [-1] * n_nodes
            parent_edge[source] = -2
            queue = [source]
            while queue and parent_edge[sink] == -1:
                nxt: list[int] = []
                for u in queue:
                    for e in adj[u]:
                        v = to[e]
                        if caps[e] > 0 and parent_edge[v] == -1:
                            parent_edge[v] = e
                            nxt.append(v)
                queue = nxt
            if parent_edge[sink] == -1:
                break
            bottleneck = None
            v = sink
            while v != source:
                e = parent_edge[v]
                if bottleneck is None or caps[e] < bottleneck:
                    bottleneck = caps[e]
                v = to[e ^ 1]
            v = sink
            while v != source:
                e = parent_edge[v]
                caps[e] -= bottleneck
                caps[e ^ 1] += bottleneck
                v = to[e ^ 1]
            total += bottleneck

        parts: list[list[tuple[int, Fraction]]] = []
        for b, members in enumerate(bins):
            entries = []
            for i in members:
                e = item_bin_edge[(i, b)]
                flow = caps[e ^ 1]  # residual of the reverse arc
                if flow > 0:
                    entries.append((i, Fraction(flow, cap)))
            parts.append(entries)
        return Fraction(total, cap), parts


def feasible(inst: Instance, structure: IncidenceStructure) -> Packing | None:
    """Realize the structure as a packing iff max-flow covers all item sizes.

    Parts of value 0 are dropped, and bins left empty by the flow are dropped
    with them.
    """
    for b in structure.bins:
        if len(b) > inst.k:
            raise ValueError(f"structure bin {b} exceeds k={inst.k} parts")
        for item in b:
            if not (0 <= item < inst.n):
                raise ValueError(f"structure references unknown item {item}")
    total = sum(inst.sizes, Fraction(0))
    value, parts = FlowNetwork(inst.sizes, structure).max_flow()
    if value != total:
        return None
    bins = [entries for entries in parts if entries]
    return Packing.build(bins, [EXACT_LABEL] * len(bins))


# ---------------------------------------------------------------------------
# Fast feasibility for forest-plus-loops structures (k = 2).
#
# On a tree, absorbing as much of each item as possible into its own loop
# bins and already-priced child edges before pushing the remainder up to the
# parent edge is optimal, so one post-order pass decides feasibility.


def _forest_feasible(
    scaled_sizes: Sequence[int],
    cap: int,
    edges: Sequence[tuple[int, int]],
    loops: Sequence[int],
) -> bool:
    n = len(scaled_sizes)
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    push = [0] * n
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        order: list[tuple[int, int]] = []
        stack = [(root, -1)]
        seen[root] = True
        while stack:
            node, parent = stack.pop()
            order.append((node, parent))
            for other in neighbors[node]:
                if not seen[other]:
                    seen[other] = True
                    stack.append((other, node))
        for node, parent in reversed(order):
            room = loops[node] * cap
            for other in neighbors[node]:
                if parent != -1 and other == parent:
                    continue
                room += cap - push[other]
            overflow = scaled_sizes[node] - room
            if parent == -1:
                if overflow > 0:
                    return False
                push[node] = 0
            else:
                push[node] = max(0, overflow)
                if push[node] > cap:
                    return False
    return True


# ---------------------------------------------------------------------------
# Structure enumeration.


def _size_perms(sizes: Sequence[Fraction]) -> list[tuple[int, ...]]:
    """All item relabelings that permute equal sizes among themselves, or just
    the identity when the group would be too large to enumerate."""
    groups: dict[Fraction, list[int]] = {}
    for i, s in enumerate(sizes):
        groups.setdefault(s, []).append(i)
    total = 1
    for members in groups.values():
        total *= math.factorial(len(members))
        if total > _PERM_CAP:
            return [tuple(range(len(sizes)))]
    if total == 1:
        return [tuple(range(len(sizes)))]
    perms: list[tuple[int, ...]] = []
    group_lists = [members for members in groups.values() if len(members) > 1]
    fixed = list(range(len(sizes)))
    for combo in itertools.product(
        *(itertools.permutations(members) for members in group_lists)
    ):
        mapping = fixed[:]
        for members, permuted in zip(group_lists, combo):
            for src, dst in zip(members, permuted):
                mapping[src] = dst
        perms.append(tuple(mapping))
    return perms


def _extra_loop_splits(extra: int, n: int) -> Iterator[tuple[int, ...]]:
    """All ways to hand out `extra` additional loops across n items."""
    if extra == 0:
        yield (0,) * n
        return
    for combo in itertools.combinations_with_replacement(range(n), extra):
        out = [0] * n
        for i in combo:
            out[i] += 1
        yield tuple(out)


class _Counter:
    __slots__ = ("value", "limit")

    def __init__(self, limit: int):
        self.value = 0
        self.limit = limit

    def tick(self) -> None:
        self.value += 1
        if self.value > self.limit:
            raise BudgetExceeded(
                f"structure search exceeded {self.limit} nodes"
            )


def _forest_level(
    inst: Instance,
    n_bins: int,
    counter: _Counter,
) -> IncidenceStructure | None:
    """First feasible forest-plus-loops structure with exactly n_bins bins.

    Edges are tried in order of decreasing item need so structures that cover
    hungry items appear early; a slack bound prunes branches that can no
    longer satisfy every item's minimum part count. The cheap tree check
    decides each candidate, so no symmetry dedup is worth its cost here.
    """
    n = inst.n
    ceils = [math.ceil(s) for s in inst.sizes]
    total_need = sum(ceils)
    min_edges = max(0, total_need - n_bins)
    max_edges = min(n_bins, n - 1)
    if min_edges > max_edges:
        return None
    cap = math.lcm(1, *(s.denominator for s in inst.sizes))
    scaled = [int(s * cap) for s in inst.sizes]
    all_edges = sorted(
        ((i, j) for i in range(n) for j in range(i + 1, n)),
        key=lambda e: (-(ceils[e[0]] + ceils[e[1]]), e),
    )

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    deg = [0] * n
    chosen: list[tuple[int, int]] = []

    def examine() -> IncidenceStructure | None:
        need = [max(0, ceils[i] - deg[i]) for i in range(n)]
        extra = n_bins - len(chosen) - sum(need)
        if extra < 0:
            return None
        for bump in _extra_loop_splits(extra, n):
            loops = [need[i] + bump[i] for i in range(n)]
            counter.tick()
            if _forest_feasible(scaled, cap, chosen, loops):
                return IncidenceStructure.build(
                    list(chosen)
                    + [(i,) for i in range(n) for _ in range(loops[i])]
                )
        return None

    def recurse(start: int, need_sum: int) -> IncidenceStructure | None:
        counter.tick()
        # Every future edge frees at most one loop slot net of its own bin.
        slack = n_bins - len(chosen) - need_sum
        if slack + (max_edges - len(chosen)) < 0:
            return None
        if slack >= 0 and len(chosen) >= min_edges:
            hit = examine()
            if hit is not None:
                return hit
        if len(chosen) == max_edges:
            return None
        if len(chosen) + (len(all_edges) - start) < min_edges:
            return None
        for t in range(start, len(all_edges)):
            u, v = all_edges[t]
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            parent[ru] = rv
            relief = (1 if deg[u] < ceils[u] else 0) + (
                1 if deg[v] < ceils[v] else 0
            )
            deg[u] += 1
            deg[v] += 1
            chosen.append((u, v))
            hit = recurse(t + 1, need_sum - relief)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
            parent[ru] = ru
            if hit is not None:
                return hit
        return None

    return recurse(0, total_need)


def _subset_sums(sizes: Sequence[Fraction]) -> list[Fraction]:
    n = len(sizes)
    sums = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + sizes[low.bit_length() - 1]
    return sums


def _hall_feasible(
    n: int, bin_masks: list[int], subset_sums: list[Fraction]
) -> bool:
    """Cut condition for the structure flow: every item subset S must be
    reachable by enough bins, sum(sizes in S) <= #bins meeting S."""
    full = 1 << n
    cnt = [0] * full
    for m in bin_masks:
        cnt[m] += 1
    for b in range(n):
        bit = 1 << b
        for mask in range(full):
            if mask & bit:
                cnt[mask] += cnt[mask ^ bit]
    n_bins = len(bin_masks)
    for s in range(1, full):
        if subset_sums[s] > n_bins - cnt[(full - 1) ^ s]:
            return False
    return True


def _general_level(
    inst: Instance,
    n_bins: int,
    symmetry: bool,
    maximal_only: bool,
    counter: _Counter,
) -> IncidenceStructure | None:
    """First feasible general structure with exactly n_bins bins.

    With maximal_only, every bin allows min(k, n) items: allowing more items
    never breaks feasibility, so checking only the densest bins decides the
    level. Without it all nonempty bins of at most k items are enumerated.
    Symmetry pruning deduplicates structures equal up to permuting items of
    equal size; it engages only while the relabeling group stays small.
    """
    n = inst.n
    k = inst.k
    ceils = [math.ceil(s) for s in inst.sizes]
    width = min(k, n)
    if maximal_only:
        candidates = list(itertools.combinations(range(n), width))
        if n_bins * width < sum(ceils):
            return None
    else:
        candidates = [
            c
            for size in range(1, width + 1)
            for c in itertools.combinations(range(n), size)
        ]
    perms = _size_perms(inst.sizes) if symmetry else [tuple(range(n))]
    if len(perms) > 120:
        perms = [tuple(range(n))]
    seen: set[tuple[tuple[int, ...], ...]] = set()
    sums = _subset_sums(inst.sizes)
    total = sums[(1 << n) - 1]
    deg = [0] * n
    chosen: list[tuple[int, ...]] = []
    masks: list[int] = []

    def recurse(start: int) -> IncidenceStructure | None:
        counter.tick()
        remaining = n_bins - len(chosen)
        deficiency = 0
        for i in range(n):
            gap = ceils[i] - deg[i]
            if gap > remaining:
                return None
            if gap > 0:
                deficiency += gap
        if remaining * k < deficiency:
            return None
        if remaining == 0:
            structure = IncidenceStructure.build(chosen)
            if len(perms) > 1:
                key = structure.canonical_key(perms)
                if key in seen:
                    return None
                seen.add(key)
            if not _hall_feasible(n, masks, sums):
                return None
            value, _ = FlowNetwork(inst.sizes, structure).max_flow()
            assert value == total, "flow disagrees with the cut condition"
            return structure
        for t in range(start, len(candidates)):
            members = candidates[t]
            chosen.append(members)
            masks.append(sum(1 << i for i in members))
            for i in members:
                deg[i] += 1
            hit = recurse(t)
            chosen.pop()
            masks.pop()
            for i in members:
                deg[i] -= 1
            if hit is not None:
                return hit
        return None

    return recurse(0)


def _search_level(
    inst: Instance,
    n_bins: int,
    forest: bool,
    symmetry: bool,
    maximal_only: bool,
    counter: _Counter,
) -> Packing | None:
    if forest:
        structure = _forest_level(inst, n_bins, counter)
    else:
        structure = _general_level(inst, n_bins, symmetry, maximal_only, counter)
    if structure is None:
        return None
    packing = feasible(inst, structure)
    assert packing is not None, "level search accepted an infeasible structure"
    return packing


# ---------------------------------------------------------------------------
# Heuristic upper bounds: any valid packing certifies its own bin count.


def _first_fit_split(inst: Instance) -> Packing:
    """First fit decreasing; items that fit nowhere whole spill over fresh
    bins next-fit style."""
    order = sorted(inst.items(), key=lambda pair: (-pair[1], pair[0]))
    bins: list[list[tuple[int, Fraction]]] = []
    fills: list[Fraction] = []
    for item, size in order:
        best = -1
        best_free = None
        for b in range(len(bins)):
            free = 1 - fills[b]
            if len(bins[b]) < inst.k and free >= size:
                if best_free is None or free < best_free:
                    best, best_free = b, free
        if best >= 0:
            bins[best].append((item, size))
            fills[best] += size
            continue
        rest = size
        whole = math.ceil(rest) - 1
        for _ in range(whole):
            bins.append([(item, Fraction(1))])
            fills.append(Fraction(1))
        bins.append([(item, rest - whole)])
        fills.append(rest - whole)
    return Packing.build(bins, ["ffd"] * len(bins))


def _upper_bound_packing(inst: Instance) -> Packing:
    nf_packing, _ = next_fit(inst)
    ffd_packing = _first_fit_split(inst)
    best = min((nf_packing, ffd_packing), key=lambda p: p.n_bins)
    assert not validate_packing(inst, best), "heuristic produced an invalid packing"
    return best


def _pad_to(inst: Instance, packing: Packing, n_bins: int) -> Packing:
    """Grow a valid packing to exactly n_bins bins by halving parts into
    fresh single-entry bins; splitting never violates capacity or the part
    limit."""
    bins = [list(entries) for entries in packing.bins]
    labels = list(packing.labels)
    while len(bins) < n_bins:
        best = None
        for b, entries in enumerate(bins):
            for e, (item, part) in enumerate(entries):
                if best is None or part > best[0]:
                    best = (part, b, e, item)
        assert best is not None, "cannot pad an empty packing"
        part, b, e, item = best
        half = part / 2
        bins[b][e] = (item, part - half)
        bins.append([(item, half)])
        labels.append(labels[b])
    return Packing.build(bins, labels)


# ---------------------------------------------------------------------------
# Public search entry points.


def exact_opt(
    inst: Instance,
    budget: SearchBudget | None = None,
    *,
    forest_only: bool | None = None,
    symmetry: bool = True,
    maximal_only: bool = True,
) -> tuple[int, Packing]:
    """Minimum feasible bin count plus a witness packing.

    The search ascends from the combined lower bound and stops at the first
    feasible level, so the result is optimal. forest_only defaults to k == 2;
    for k >= 3 general structures are enumerated.
    """
    budget = budget or SearchBudget()
    if inst.n > budget.max_items:
        raise BudgetExceeded(
            f"{inst.n} items exceed the budget of {budget.max_items}"
        )
    if inst.n == 0:
        return 0, Packing((), ())
    lb = lower_bounds(inst).best
    upper = _upper_bound_packing(inst)
    if upper.n_bins == lb:
        return lb, upper
    forest = inst.k == 2 if forest_only is None else forest_only
    if forest and inst.k != 2:
        raise ValueError("forest enumeration is only sound for k=2")
    counter = _Counter(budget.max_structures)
    top = min(upper.n_bins - 1, budget.max_bins)
    for n_bins in range(lb, top + 1):
        witness = _search_level(inst, n_bins, forest, symmetry, maximal_only, counter)
        if witness is not None:
            return n_bins, witness
    if upper.n_bins - 1 <= budget.max_bins:
        return upper.n_bins, upper
    raise BudgetExceeded(
        f"optimum lies above the bin budget of {budget.max_bins}"
    )


def feasible_in(
    inst: Instance,
    n_bins: int,
    budget: SearchBudget | None = None,
    *,
    forest_only: bool | None = None,
    symmetry: bool = True,
    maximal_only: bool = True,
) -> Packing | None:
    """Decision variant: a valid packing with exactly n_bins bins, or None.

    A packing with fewer bins always extends to exactly n_bins by splitting
    parts, so the search may stop at the first feasible level at or below
    n_bins.
    """
    if n_bins < 1:
        raise ValueError(f"bin count must be at least 1, got {n_bins}")
    budget = budget or SearchBudget()
    if inst.n > budget.max_items:
        raise BudgetExceeded(
            f"{inst.n} items exceed the budget of {budget.max_items}"
        )
    if n_bins > budget.max_bins:
        raise BudgetExceeded(
            f"{n_bins} bins exceed the budget of {budget.max_bins}"
        )
    if inst.n == 0:
        return None
    lb = lower_bounds(inst).best
    if n_bins < lb:
        return None
    upper = _upper_bound_packing(inst)
    if upper.n_bins <= n_bins:
        return _pad_to(inst, upper, n_bins)
    forest = inst.k == 2 if forest_only is None else forest_only
    if forest and inst.k != 2:
        raise ValueError("forest enumeration is only sound for k=2")
    counter = _Counter(budget.max_structures)
    for level in range(lb, n_bins + 1):
        witness = _search_level(inst, level, forest, symmetry, maximal_only, counter)
        if witness is not None:
            return _pad_to(inst, witness, n_bins)
    return None


# ---------------------------------------------------------------------------
# The partition lower bound, by a DP over all 3^n (set, subset) pairs.


def partition_lower_bound(inst: Instance) -> int:
    """The least sum of g(G) over the partitions of the items into groups,
    where g(G) = max(ceil(s(G)), ceil((|G| - 1) / (k - 1)),
    sum_G ceil(s_i) - |G| + 1, ceil(sum_G ceil(s_i) / k)) bins are needed
    by one tree of a forest-shaped packing with item set G."""
    n, k = inst.n, inst.k
    full = (1 << n) - 1
    size = [Fraction(0)] * (full + 1)
    ceil_sum = [0] * (full + 1)
    count = [0] * (full + 1)
    need = [0] * (full + 1)
    for group in range(1, full + 1):
        low = group & -group
        i = low.bit_length() - 1
        size[group] = size[group ^ low] + inst.sizes[i]
        ceil_sum[group] = ceil_sum[group ^ low] + math.ceil(inst.sizes[i])
        count[group] = count[group ^ low] + 1
        need[group] = max(
            math.ceil(size[group]),
            -(-(count[group] - 1) // (k - 1)),
            ceil_sum[group] - count[group] + 1,
            -(-ceil_sum[group] // k),
        )
    best = [0] * (full + 1)
    for mask in range(1, full + 1):
        # the group of the lowest item, with every subset of the others
        low = mask & -mask
        others = mask ^ low
        least = need[mask]
        sub = others
        while sub:
            sub = (sub - 1) & others
            group = sub | low
            least = min(least, need[group] + best[mask ^ group])
        best[mask] = least
    return best[full]
