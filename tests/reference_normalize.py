"""Reference rewrites for the differential tests of ``splitpack.normalize``.

This is the original scan-and-restart implementation, kept unchanged: every
rewrite pass and every neighbour query rescans all bins, so it is quadratic,
but its choice order is the specification the indexed version must follow.
``ReferenceGraph`` is the matching edge-scanning packing-graph view. The
size classes (``ItemClass``, ``classify``) are local ``Fraction`` forms, so
no class test is shared with the package; ``reference_algo75`` uses them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from splitpack.core import (
    Instance,
    Packing,
    validate_packing,
)


class ItemClass(Enum):
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


def classify(size: Fraction) -> ItemClass:
    """The definition by ``Fraction`` comparisons: (0, 1/2] small, (1/2, 1]
    medium, above 1 large."""
    if size <= Fraction(1, 2):
        return ItemClass.SMALL
    if size <= 1:
        return ItemClass.MEDIUM
    return ItemClass.LARGE


def size_type(size: Fraction) -> int:
    """Half-unit bracket index i with size in ((i-1)/2, i/2]; small items are type 1."""
    return max(1, math.ceil(2 * size))


@dataclass(frozen=True)
class ReferenceGraph:
    """Edge-scanning packing graph: ``edges[j]`` is bin j as (u, v), u <= v."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def degree(self, item: int) -> int:
        """Number of bins containing a part of the item (loops included)."""
        return sum(1 for u, v in self.edges if item in (u, v))

    def neighbor_edges(self, item: int) -> list[int]:
        """Indices of non-loop edges incident to the item."""
        return [
            j for j, (u, v) in enumerate(self.edges) if u != v and item in (u, v)
        ]

    def neighbor_count(self, item: int) -> int:
        return len(self.neighbor_edges(item))

    def is_forest(self) -> bool:
        """True iff the non-loop edges are acyclic (parallel edges count as
        cycles; loops never do)."""
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            if u == v:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True


def graph_of(inst: Instance, packing: Packing) -> ReferenceGraph:
    if inst.k != 2:
        raise ValueError(f"packing graphs are defined for k=2 only, got k={inst.k}")
    problems = validate_packing(inst, packing)
    if problems:
        raise ValueError(f"packing is not valid: {problems[0]}")
    edges = []
    for entries in packing.bins:
        items = [item for item, _ in entries]
        if len(items) == 1:
            edges.append((items[0], items[0]))
        else:
            u, v = sorted(items)
            edges.append((u, v))
    return ReferenceGraph(n=inst.n, edges=tuple(edges))


WorkBins = list[dict[int, Fraction]]


def _to_work(inst: Instance, packing: Packing) -> tuple[WorkBins, list[str]]:
    if inst.k != 2:
        raise ValueError(f"normalization is defined for k=2 only, got k={inst.k}")
    problems = validate_packing(inst, packing)
    if problems:
        raise ValueError(f"packing is not valid: {problems[0]}")
    bins = [dict(entries) for entries in packing.bins]
    return bins, list(packing.labels)


def _from_work(bins: WorkBins, labels: list[str]) -> Packing:
    return Packing.build([list(b.items()) for b in bins], labels)


def _require_acyclic(inst: Instance, packing: Packing) -> None:
    if not graph_of(inst, packing).is_forest():
        raise ValueError("packing graph must be acyclic")


def _edge_bins(bins: WorkBins, item: int) -> list[int]:
    """Indices of two-item bins containing the item, in bin order."""
    return [b for b, entries in enumerate(bins) if item in entries and len(entries) == 2]


def _other_item(entries: dict[int, Fraction], item: int) -> int:
    for other in entries:
        if other != item:
            return other
    raise AssertionError("expected a two-item bin")


def _find_cycle(bins: WorkBins) -> tuple[list[int], list[int]] | None:
    """First cycle by bin index: returns (items, cycle_bins) where
    cycle_bins[j] holds items[j] and items[(j+1) % t]."""
    n_items = max((max(b) for b in bins if b), default=-1) + 1
    parent = list(range(n_items))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    adjacency: dict[int, list[tuple[int, int]]] = {}
    for b, entries in enumerate(bins):
        if len(entries) != 2:
            continue
        u, v = sorted(entries)
        if find(u) == find(v):
            # Closing bin found; recover the u-v path through accepted edges.
            prev: dict[int, tuple[int, int]] = {u: (-1, -1)}
            queue = [u]
            while queue and v not in prev:
                nxt = []
                for node in queue:
                    for other, via in adjacency.get(node, ()):
                        if other not in prev:
                            prev[other] = (node, via)
                            nxt.append(other)
                queue = nxt
            path_items = [v]
            path_bins: list[int] = []
            node = v
            while node != u:
                node, via = prev[node]
                path_items.append(node)
                path_bins.append(via)
            path_items.reverse()  # u ... v
            path_bins.reverse()  # connecting consecutive path items
            return path_items, path_bins + [b]
        parent[find(u)] = find(v)
        adjacency.setdefault(u, []).append((v, b))
        adjacency.setdefault(v, []).append((u, b))
    return None


def remove_cycles(inst: Instance, packing: Packing) -> Packing:
    """Rewrite the packing so its graph is a forest plus loops.

    Bin count never increases; it drops when a cycle bin can be emptied into
    the two adjacent cycle bins.
    """
    bins, labels = _to_work(inst, packing)
    while True:
        found = _find_cycle(bins)
        if found is None:
            break
        items, cycle = found
        t = len(cycle)

        def bin_total(b: int) -> Fraction:
            return sum(bins[b].values(), Fraction(0))

        # Try to empty the lightest cycle bin into its two cycle neighbors.
        order = sorted(range(t), key=lambda j: (bin_total(cycle[j]), cycle[j]))
        emptied = False
        for j in order:
            b_mid = cycle[j]
            left_item = items[j]
            right_item = items[(j + 1) % t]
            b_left = cycle[(j - 1) % t]
            b_right = cycle[(j + 1) % t]
            part_left = bins[b_mid][left_item]
            part_right = bins[b_mid][right_item]
            if t == 2:
                fits = 1 - bin_total(b_left) >= part_left + part_right
            else:
                fits = (
                    1 - bin_total(b_left) >= part_left
                    and 1 - bin_total(b_right) >= part_right
                )
            if fits:
                bins[b_left][left_item] += part_left
                bins[b_right][right_item] += part_right
                del bins[b_mid]
                del labels[b_mid]
                emptied = True
                break
        if emptied:
            continue
        # Otherwise rotate mass around the cycle; bin totals stay put and the
        # smallest entry on the decreasing side hits zero.
        forward = [(bins[cycle[j]][items[(j + 1) % t]], j) for j in range(t)]
        backward = [(bins[cycle[j]][items[j]], j) for j in range(t)]
        if min(forward)[0] <= min(backward)[0]:
            delta = min(forward)[0]
            for j in range(t):
                mover = items[(j + 1) % t]
                bins[cycle[j]][mover] -= delta
                bins[cycle[(j + 1) % t]][mover] += delta
        else:
            delta = min(backward)[0]
            for j in range(t):
                mover = items[j]
                bins[cycle[j]][mover] -= delta
                bins[cycle[(j - 1) % t]][mover] += delta
        for b in cycle:
            zero = [i for i, part in bins[b].items() if part == 0]
            for i in zero:
                del bins[b][i]
    return _from_work(bins, labels)


def smalls_to_leaves(inst: Instance, packing: Packing) -> Packing:
    """Give every small item at most one neighbor; bin count is unchanged.

    A small item beside another small collapses with it into their shared
    bin (their total is at most 1, and the vacated bins keep their other
    occupant). A small beside two bigger items either trades its part for an
    equal slice of the second neighbor or, when that neighbor's part is even
    smaller, moves in outright.
    """
    bins, labels = _to_work(inst, packing)
    _require_acyclic(inst, _from_work(bins, labels))
    small = [classify(s) is ItemClass.SMALL for s in inst.sizes]

    def separate_pair(s: int, u: int, shared: int) -> None:
        for b in list(_edge_bins(bins, s)):
            if b == shared:
                continue
            bins[shared][s] += bins[b].pop(s)
        for b in list(_edge_bins(bins, u)):
            if b == shared:
                continue
            bins[shared][u] += bins[b].pop(u)

    while True:
        # One pass over the bins indexes every item's edge bins.
        edge_bins_of: dict[int, list[int]] = {}
        for b, entries in enumerate(bins):
            if len(entries) == 2:
                for item in entries:
                    edge_bins_of.setdefault(item, []).append(b)
        # Small-small edges with a non-leaf endpoint collapse first, so every
        # remaining violator only has bigger neighbors.
        acted = False
        for b, entries in enumerate(bins):
            if len(entries) != 2:
                continue
            u, v = sorted(entries)
            if small[u] and small[v] and (
                len(edge_bins_of[u]) > 1 or len(edge_bins_of[v]) > 1
            ):
                separate_pair(u, v, b)
                acted = True
                break
        if acted:
            continue
        violator = -1
        for item in range(inst.n):
            if small[item] and len(edge_bins_of.get(item, ())) >= 2:
                violator = item
                break
        if violator < 0:
            break
        s = violator
        b1, b2 = edge_bins_of[s][:2]
        o2 = _other_item(bins[b2], s)
        s1 = bins[b1][s]
        w2 = bins[b2][o2]
        if s1 <= w2:
            # Trade: an s1-sized slice of the second neighbor fills the hole
            # in bin 1; both bin totals are unchanged.
            del bins[b1][s]
            bins[b1][o2] = bins[b1].get(o2, Fraction(0)) + s1
            bins[b2][o2] -= s1
            if bins[b2][o2] == 0:
                del bins[b2][o2]
            bins[b2][s] += s1
        else:
            # w2 < s1 <= 1/2 and the s parts sum to at most 1/2, so bin 2
            # takes the part outright.
            del bins[b1][s]
            bins[b2][s] += s1
    return _from_work(bins, labels)


def bound_degrees(inst: Instance, packing: Packing) -> Packing:
    """Cap every item of size in ((i-1)/2, i/2] at i neighbors (i >= 2).

    Trees are processed from the root down. An over-degree item x merges its
    two smallest down parts into one bin: with down-degree at least i and
    total size at most i/2 those two parts always fit together. One of the
    two displaced neighbors is sliced just enough to keep both bins at
    capacity; small neighbors are never sliced (two small parts share a bin
    without slicing), so leaf status of small items survives.
    """
    bins, labels = _to_work(inst, packing)
    _require_acyclic(inst, _from_work(bins, labels))

    while True:
        target = _first_over_degree(inst, bins)
        if target is None:
            break
        x, down_bins = target
        down = sorted(
            (bins[b][x], b, _other_item(bins[b], x)) for b in down_bins
        )
        xp, b_p, partner_p = down[0]
        xq, b_q, partner_q = down[1]
        # Prefer slicing a non-small partner; the smaller-part bin's partner
        # is sliced when both qualify.
        slice_first = (b_p, partner_p, xp)
        carry = (b_q, partner_q, xq)
        if classify(inst.sizes[partner_p]) is ItemClass.SMALL and classify(
            inst.sizes[partner_q]
        ) is not ItemClass.SMALL:
            slice_first, carry = (b_q, partner_q, xq), (b_p, partner_p, xp)
        b_d, partner_d, _ = slice_first
        b_c, partner_c, _ = carry
        w_d = bins[b_d][partner_d]
        w_c = bins[b_c][partner_c]
        delta = max(Fraction(0), w_d + w_c - 1)
        # Carrier bin keeps x (parts merged); donor bin keeps its partner's
        # remainder plus the carried neighbor. Both stay within capacity:
        # the two original bins sum to at most 2.
        del bins[b_c][partner_c]
        bins[b_c][x] = xp + xq
        del bins[b_d][x]
        if delta > 0:
            bins[b_c][partner_d] = delta
            bins[b_d][partner_d] = w_d - delta
            if bins[b_d][partner_d] == 0:
                del bins[b_d][partner_d]
        bins[b_d][partner_c] = w_c
    return _from_work(bins, labels)


def _first_over_degree(
    inst: Instance, bins: WorkBins
) -> tuple[int, list[int]] | None:
    """First item (top-down, then by id) whose neighbor count exceeds its
    size type; returns it with its down-edge bins."""
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for b, entries in enumerate(bins):
        if len(entries) != 2:
            continue
        u, v = sorted(entries)
        adjacency.setdefault(u, []).append((v, b))
        adjacency.setdefault(v, []).append((u, b))
    seen: set[int] = set()
    for root in range(inst.n):
        if root in seen or root not in adjacency:
            continue
        queue: list[tuple[int, int]] = [(root, -1)]
        seen.add(root)
        while queue:
            node, up_bin = queue.pop(0)
            down = [b for _, b in adjacency.get(node, ()) if b != up_bin]
            bracket = size_type(inst.sizes[node])
            if bracket >= 2:
                allowed_down = bracket if up_bin == -1 else bracket - 1
                if len(down) > allowed_down:
                    return node, down
            for other, b in sorted(adjacency.get(node, ())):
                if b != up_bin and other not in seen:
                    seen.add(other)
                    queue.append((other, b))
    return None


def normalize(inst: Instance, packing: Packing) -> Packing:
    """remove_cycles, then smalls_to_leaves, then bound_degrees.

    All three post-conditions hold on the result and the composition is
    idempotent up to bin order.
    """
    out = remove_cycles(inst, packing)
    out = smalls_to_leaves(inst, out)
    out = bound_degrees(inst, out)
    return out


def normalization_violations(inst: Instance, packing: Packing) -> list[str]:
    """Check all normalization post-conditions; empty means normalized."""
    problems = validate_packing(inst, packing)
    if problems:
        return problems
    graph = graph_of(inst, packing)
    out = []
    if not graph.is_forest():
        out.append("graph has a cycle")
    for item, size in inst.items():
        neighbors = graph.neighbor_count(item)
        bracket = size_type(size)
        if classify(size) is ItemClass.SMALL and neighbors > 1:
            out.append(f"small item {item} has {neighbors} neighbors")
        elif bracket >= 2 and neighbors > bracket:
            out.append(
                f"item {item} of type {bracket} has {neighbors} neighbors"
            )
    return out
