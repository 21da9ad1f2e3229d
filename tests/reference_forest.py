"""Reference candidate loop for the differential tests of ``splitpack.exact``.

``ForestSearch`` is ``exact._ForestSearch`` with its ``_first_forest`` as it
was before the twin rule and the bit-mask loop: every acyclic candidate is a
budget node, the acyclicity test builds a set of tree names, and the part
count's relief is counted item by item. Swap it in for ``_ForestSearch`` to
run ``exact_opt`` and ``feasible_in`` on it. It reads the candidates, in
their order, from the rows ``_ForestSearch`` builds.
"""

from __future__ import annotations

from splitpack import exact


class ForestSearch(exact._ForestSearch):
    def _first_forest(self, n_bins: int) -> list[tuple[int, ...]] | None:
        n = self.inst.n
        width = self.width
        ceils = self.ceils
        candidates = [members for members, *_ in self.rows]
        tick = self.counter.tick
        forest = exact._ForestLoops(self.scaled, self.cap, ceils)
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
