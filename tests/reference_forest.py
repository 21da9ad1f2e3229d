"""Reference candidate loop for the differential tests of ``splitpack.exact``.

``ForestSearch`` is ``exact._ForestSearch`` with its ``_first_forest`` as it
was before the twin rule and the bit-mask loop: every acyclic candidate is a
budget node, the acyclicity test builds a set of tree names, and the part
count's relief is counted item by item. Swap it in for ``_ForestSearch`` to
run ``exact_opt`` and ``feasible_in`` on it. It reads the candidates, in
their order, from the rows ``_ForestSearch`` builds.

``ForestLoops`` is ``exact._ForestLoops`` as it was before a push was tested
from the per-candidate table: every push copies ``tree``, walks the new tree
with ``_tree_order`` and reruns ``_tree_loops`` on it, and a pop restores the
copy. ``_tree_order`` and ``_tree_loops`` are ``exact._tree_order`` and
``exact._tree_loops`` of that time: the DP sums and sorts the pushes into
every bin. The reference loop runs on them, so the differential tests
compare two independent tree DPs. ``tree_totals`` runs them tree by tree on
a whole forest, at any base loops, as ``exact._min_loops`` did before it
became a loop of ``_ForestLoops`` pushes, now ``test_exact._min_loops``.
"""

from __future__ import annotations

from typing import Sequence

from splitpack import exact
from splitpack.core import Scaled


def _tree_order(
    forest: Sequence[Sequence[int]], item_bins: Sequence[Sequence[int]], root: int
) -> list[tuple[int, int]]:
    order = [(root, -1)]
    for i, up in order:
        for b in item_bins[i]:
            if b != up:
                for j in forest[b]:
                    if j != i:
                        order.append((j, b))
    return order


def _tree_loops(
    scaled: Sequence[Scaled],
    cap: int,
    forest: Sequence[Sequence[int]],
    item_bins: Sequence[Sequence[int]],
    order: Sequence[tuple[int, int]],
    base: Sequence[int],
) -> int:
    pushes: dict[int, list[int]] = {}
    loops = 0
    for i, up in reversed(order):
        excess = scaled[i] - base[i] * cap
        for b in item_bins[i]:
            if b == up:
                continue
            held = pushes.get(b, ())
            total = sum(held)
            if total > cap:
                for push in sorted(held, reverse=True):
                    total -= push
                    loops += 1
                    if total <= cap:
                        break
            excess -= cap - total
        if excess > 0:
            whole = -(-excess // cap)
            if up == -1:
                loops += whole
            else:
                loops += whole - 1
                pushes.setdefault(up, []).append(excess - (whole - 1) * cap)
    return loops


def tree_totals(
    scaled: Sequence[Scaled],
    cap: int,
    forest: Sequence[Sequence[int]],
    base: Sequence[int],
) -> dict[int, tuple[list[int], int]]:
    """Per tree of the forest, keyed by its least item: its items and the
    fewest loops to add to base[i] per item i so that its bins and the loops
    hold them."""
    n = len(scaled)
    item_bins: list[list[int]] = [[] for _ in range(n)]
    for b, members in enumerate(forest):
        for i in members:
            item_bins[i].append(b)
    seen = [False] * n
    totals = {}
    for root in range(n):
        if seen[root]:
            continue
        order = _tree_order(forest, item_bins, root)
        for i, _ in order:
            seen[i] = True
        loops = _tree_loops(scaled, cap, forest, item_bins, order, base)
        totals[root] = ([i for i, _ in order], loops)
    return totals


class ForestLoops:
    def __init__(self, scaled: Sequence[Scaled], cap: int, ceils: Sequence[int]):
        n = len(scaled)
        self.scaled = scaled
        self.cap = cap
        self.no_loops = [0] * n
        self.bins: list[tuple[int, ...]] = []
        self.item_bins: list[list[int]] = [[] for _ in range(n)]
        self.tree = list(range(n))
        # An item alone needs ceil(size) loops.
        self.tree_loops = list(ceils)
        self.loops = sum(ceils)
        self._undo: list[tuple[list[int], int, int, int]] = []

    def push(self, members: tuple[int, ...]) -> None:
        tree = self.tree
        tree_loops = self.tree_loops
        top = tree[members[0]]
        self._undo.append((tree[:], top, tree_loops[top], self.loops))
        merged = 0
        for i in members:
            merged += tree_loops[tree[i]]
        b = len(self.bins)
        self.bins.append(members)
        for i in members:
            self.item_bins[i].append(b)
        order = _tree_order(self.bins, self.item_bins, members[0])
        for i, _ in order:
            tree[i] = top
        loops = _tree_loops(
            self.scaled, self.cap, self.bins, self.item_bins, order, self.no_loops
        )
        tree_loops[top] = loops
        self.loops += loops - merged

    def pop(self) -> None:
        saved, top, kept, loops = self._undo.pop()
        for i in self.bins.pop():
            self.item_bins[i].pop()
        self.tree[:] = saved
        self.tree_loops[top] = kept
        self.loops = loops


class ForestSearch(exact._ForestSearch):
    def _first_forest(self, n_bins: int) -> list[tuple[int, ...]] | None:
        n = self.n
        width = self.width
        ceils = self.ceils
        candidates = [members for members, *_ in self.rows]
        tick = self.counter.tick
        forest = ForestLoops(self.scaled, self.cap, ceils)
        chosen = forest.bins
        tree = forest.tree
        item_bins = forest.item_bins

        def recurse(start: int, need: int, merges_left: int):
            left = n_bins - len(chosen)
            used = len(chosen) + forest.loops
            if used <= n_bins:
                return list(chosen)
            if used - min(merges_left, left * (width - 1)) > n_bins:
                return None
            # Each bin left holds at most `width` of the parts still needed.
            most = (left - 1) * width
            for t in range(start, len(candidates)):
                members = candidates[t]
                if len({tree[i] for i in members}) < len(members):
                    continue
                tick()
                relief = 0
                for i in members:
                    if len(item_bins[i]) < ceils[i]:
                        relief += 1
                if need - relief > most:
                    continue
                forest.push(members)
                hit = recurse(t + 1, need - relief, merges_left - len(members) + 1)
                forest.pop()
                if hit is not None:
                    return hit
            return None

        tick()
        return recurse(0, sum(ceils), n - 1)
