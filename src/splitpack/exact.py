"""Brute-force exact optimum for desk-scale instances.

Some optimal packing has a forest as its bipartite item-bin incidence graph,
for every k: around any cycle, shift mass alternately between the item-bin
incidences until a part reaches zero. Bin totals and item coverage stay the
same and the part count only falls (the acyclic support of a basic
transportation solution). So one search serves every k. A structure is a
forest F of multi-item bins, each holding 2..min(k, n) items, completed by
single-item bins ("loops"). Loops never close a cycle, so the forest only
has to be acyclic in its multi-item bins.

Both public entry points are thin callers of one private ``_solve``, driven
by two values: a goal, at or below which the upper bound is taken without a
search, and a top, the highest level searched. ``exact_opt`` asks for goal 0
and top ``max_bins``; ``feasible_in(inst, B)`` asks for goal and top B,
and ``_solve`` answers it with None for an answer of more than B bins or of
none, and else grows the answer to B bins before its one check. So the
budget checks, the bounds and the level loop below exist once, and so does
the exit: everything below ``_solve`` returns raw bins in the call's unit,
and ``_solve`` turns the one answer into the one ``Packing`` of the call
through one ``core.checked_packing``.

Each call takes its unit once from ``core.unit_sizes``: the sizes as
integers over their common denominator, in bins of that capacity, while it
has at most ``core.UNIT_BITS`` bits, and the ``Fraction``s themselves in
bins of capacity 1 above that. The search, both upper-bound heuristics and
the witness ``_realise`` run in that unit through the same code; every test
they make is scale-invariant, so both units give the same answers and
witnesses.

The search ascends from the first level the partition bound (below) does
not rule out, so the first feasible bin count is optimal by construction.
At level B it walks the forests depth first over candidate bins ordered by
(-sum of ceil(size), bin size, item tuple) and accepts the first forest F
with |F| + minloops(F) <= B. minloops is the sum over the trees of F of one
post-order pass per tree (``_tree_loops``). ``_ForestLoops`` is its one
driver: it keeps one total per tree, a push walks the one tree the new bin
forms and reruns the pass on it unless handed that tree's total, and a pop
restores the old totals. The walk pushes and pops as it goes.
A branch is cut when its items still need more parts than the bins left can
hold, or when even the best merges left cannot bring |F| + minloops(F) down
to B: a d-item bin lowers that sum by at most d - 1. Both cuts are sound, so
the accepted forest is the first one in candidate order.

A candidate is tested before it is pushed, by one test: the child's own
merge cut on a lower bound of the total of the tree the bin forms. A child
that cut would stop is skipped without being pushed. Most candidates hold
only items in no chosen bin, and such a bin forms a tree of its own, whose
total does not depend on F. The search keeps that total per candidate,
computed on first use by a push and a pop in the walk's own forest and
shared by every level; the bound is the total itself, and the push is handed
it and runs no DP. The table grows with the candidates, never with the nodes
walked. A bin that joins chosen bins is bounded by the room of the tree it
would form: that tree's bins times cap less its items' sizes, summed from
the rooms of the trees it joins. Its bins and loops must hold its items, so
it needs at least max(0, ceil(-room / cap)) loops. Every cut stays the
child's own, so the walk, its node counts and its witnesses are those of
pushing every candidate. Only a joining bin that passes reruns the pass, on
the one tree it forms, and its undo record names only the items it
relabels. The acyclicity test runs only for a bin with two or more items in
chosen bins: an item in none is a tree of its own and closes no cycle.

The witness is the tree DP's own fill of the accepted forest (``_realise``):
one pass per tree, rooted at its largest item, that records the parts the
pass's rule implies, so the forest gets minloops(F) loops and no other
decider runs. The bins come out in sorted member order, the forest's and
one ``(i,)`` per loop of item i, as raw bins of parts in the search's unit.
The search asks for the first feasible level only, so no fewer bins can
come out, and any other count than the level raises ``InternalError``.
When they are the answer, ``_solve``'s ``core.checked_packing`` checks them
there and turns them into the witness ``Packing``, marked as checked, as it
does every solver output.

Equal sizes make many forests relabellings of one another, so the walk
breaks that symmetry. An item's twin is the largest earlier item of the same
size. A candidate bin that holds an item j but not its twin i is skipped
while no chosen bin holds i or j. Swapping i and j keeps sizes, loops and
acyclicity, leaves the chosen bins as they are and maps the candidate to an
earlier one in candidate order; so every forest through the skipped
candidate has an image of equal cost that comes first, the first feasible
forest is never skipped, and the witnesses are those of the walk without the
rule. Only the node counts fall.

The levels are ruled out before the search is built. The item sets of the
trees of a forest-shaped packing partition the items, and a tree with item
set G needs at least g(G) bins (``_partition_level`` gives g); so level L
is infeasible when no partition has sum g(G) <= L. This rests on the forest
lemma, as the search does. Only such levels are skipped, and the upper bound
is taken when the bound rules out every level below it, so every answer and
witness is the one the search from the combined lower bound finds. The
bound's work is capped by its own count of groups tried,
``_PARTITION_STEPS``, not by the node budget; past the cap it leaves the
level it was deciding, and those above, to the search.

A level whose search runs out of nodes falls back on the partition bound's
groups (``_pack_groups``). At the first level searched that is the
partition that opened the level; at a later one, which that partition
cannot pack, or one the bound gave up on, the bound is asked again at that
level. Each group G of the partition is
packed on its own into g(G) bins, in the caller's unit: by the upper-bound
bins of its items when they are g(G) (next fit puts a single item into
ceil(size) bins and a group with g(G) = 1 into one), and else by the forest
search of its items at level g(G) alone. No group's bins are checked on
their own: their union, under the instance's item ids and in the same
unit, is the answer that ``_solve`` checks. Every level below was searched
or ruled out, so in a union that succeeds no group fits in fewer than g(G)
bins, and the union, of sum g(G) bins, is optimal. A partition of one
group, or a group that does not pack, raises the search's own error again.
The fallback runs only where the search raises, so every answer and
witness the search gives stays the same.

One budget node is one candidate bin that passes the acyclicity and twin
tests; the witness counts none. A call the partition bound settles counts
no node. The group fallback counts on a fresh counter of its own, one node
per group and the nodes of its groups' searches.

Heuristic packings serve as upper bounds: a valid packing is a
certificate, so the search only has to exhaust the levels below it. Next fit
(through the one ``nextfit.next_fit_bins`` kernel) and, when next fit misses
the lower bound, best fit decreasing run in the call's unit, and the winner
stays raw bins there. Only when the upper bound is the answer does
``_solve``'s ``core.checked_packing`` check its bins against the unit's
sizes and capacity, the same checks ``validate_packing`` makes, before the
parts turn back into ``Fraction``s for one ``Packing``. Dividing by cap is
exact, so the check is a certificate for that packing, which is marked as
checked; a failed check raises ``InternalError``. So there is one
``Packing``, and one check, per oracle answer, a grown ``feasible_in``
answer included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import neg
from typing import Sequence

from .core import (
    Instance,
    InternalError,
    Item,
    Packing,
    Scaled,
    brief_repr,
    checked_packing,
    lower_bounds,
    shared_bins,
    too_many_digits,
    unit_sizes,
)
from .nextfit import NF_LABEL, next_fit_bins, spill

EXACT_LABEL = "exact"

# The CLI reads its budget from this variable, in ``SearchBudget.from_spec``
# form; the library reads no environment.
BUDGET_ENV_VAR = "SPLITPACK_BUDGET"


class BudgetExceeded(Exception):
    """The instance or search exceeds the configured oracle budget.

    Raised instead of ever returning a wrong answer; harnesses catch it and
    mark the case as skipped.
    """


_SPEC_FIELDS = {
    "items": "max_items",
    "bins": "max_bins",
    "structures": "max_structures",
}


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for the exhaustive search.

    max_structures counts search nodes: every candidate bin of the level
    search that passes the acyclicity and twin tests; building the witness
    of a level counts none. It is a fresh allowance per call. When the
    search runs out of it, the group fallback gets one more fresh
    allowance, shared by its groups: each group ticks one node, and the
    search of a group at its level g(G) counts its nodes there. It does not
    bound the set-up: the search ranks all sum_{s=2}^{min(k, n)} C(n, s)
    candidate bins before it counts a node, and only max_items bounds that
    work. The partition bound that rules out levels before the search, and
    finds the fallback's groups, counts no node either: its work is capped
    on its own, at ``_PARTITION_STEPS`` groups per call.
    """

    max_items: int = 8
    max_bins: int = 10
    max_structures: int = 5_000_000

    @staticmethod
    def from_spec(spec: str) -> "SearchBudget":
        """Parse "items=10,bins=12,structures=2000000" style overrides.

        A value is ASCII digits, at most ``core.MAX_NUMERAL_DIGITS`` of
        them; any other component raises ``ValueError`` quoting it through
        ``core.brief_repr``."""
        given: dict[str, int] = {}
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, _, value = chunk.partition("=")
            field = _SPEC_FIELDS.get(key.strip())
            digits = value.strip()
            if (
                field is None
                or not (digits.isascii() and digits.isdigit())
                or too_many_digits(digits)
            ):
                raise ValueError(f"bad budget component: {brief_repr(chunk)}")
            given[field] = int(digits)
        return SearchBudget(**given)


# ---------------------------------------------------------------------------
# The min-loop tree DP.
#
# Root each tree of the forest at an item and work upwards. An item fills the
# room its child bins leave, then its own loops, and pushes what is left
# into its parent bin; pushing the least possible, with the fewest loops, is
# never worse for the ancestors, because one more loop absorbs any push. A
# bin whose children push more than it holds gives one more loop each to its
# largest pushers until the rest fit, which both needs the fewest loops and
# leaves its parent the most room.


def _tree_loops(
    scaled: Sequence[Scaled],
    cap: int,
    item_bins: Sequence[Sequence[int]],
    order: Sequence[tuple[int, int]],
) -> int:
    """Fewest loops so that the bins of one tree, given breadth first from a
    root as (item, parent bin) pairs, and the loops hold its items. The
    minimum does not depend on the root. An item of size at most 0 needs
    nothing, so b loops already given to an item of size s count as its
    size s - b * cap.

    A bin no child pushes into costs one subtraction, and a bin with one
    pusher one more: a single push never exceeds cap. Only several pushers
    are summed, and sorted only when they overfill the bin."""
    pushes: dict[int, list[Scaled]] = {}
    loops = 0
    for i, up in reversed(order):
        excess = scaled[i]
        for b in item_bins[i]:
            if b == up:
                continue
            held = pushes.get(b)
            if held is None:
                excess -= cap
            elif len(held) == 1:
                excess -= cap - held[0]
            else:
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
                excess -= (whole - 1) * cap
                held = pushes.get(up)
                if held is None:
                    pushes[up] = [excess]
                else:
                    held.append(excess)
    return loops


class _ForestLoops:
    """A growing forest of multi-item bins and ``loops``, its min-loop total,
    kept as one total per tree.

    ``tree[i]`` names the tree of item i (an item of it); ``tree_loops``
    holds each tree's total under that name, and ``tree_room`` its bins
    times cap less its items' sizes. An item in no bin is its own tree, with
    max(0, ceil(size)) loops and room -size; a pushed bin's tree has room
    cap plus the rooms of the trees it joins.

    ``push`` adds a bin whose items lie in distinct trees. It is the one
    tree walk of the oracle: a breadth-first walk of the tree the bin forms,
    from the bin's first item, relabels the items outside that item's tree
    and gives ``_tree_loops`` its order. A caller that knows the new tree's
    total passes it, and no DP runs: the search does so for a bin of items
    in no bin, from its per-candidate table, which it fills by a push and a
    pop.
    ``pop`` undoes the last push; its record holds the old tree of each
    relabelled item, not a copy of ``tree``, and the new tree's name's old
    total and room.
    """

    def __init__(self, scaled: Sequence[Scaled], cap: int):
        n = len(scaled)
        self.scaled = scaled
        self.cap = cap
        self.bins: list[tuple[int, ...]] = []
        self.item_bins: list[list[int]] = [[] for _ in range(n)]
        self.tree = list(range(n))
        self.tree_loops = [max(0, -(-s // cap)) for s in scaled]
        self.tree_room = [-s for s in scaled]
        self.loops = sum(self.tree_loops)
        # Per push: the relabelled items, their old trees, the new tree's
        # name, that name's old total and room, and the old forest total.
        self._undo: list[
            tuple[Sequence[int], Sequence[int], int, int, Scaled, int]
        ] = []

    def push(self, members: tuple[int, ...], loops: int = -1) -> None:
        """Add a bin; loops, when not negative, is the total of the tree it
        forms."""
        tree = self.tree
        tree_loops = self.tree_loops
        tree_room = self.tree_room
        bins = self.bins
        item_bins = self.item_bins
        top = tree[members[0]]
        merged = 0
        room = self.cap
        for i in members:
            joined = tree[i]
            merged += tree_loops[joined]
            room += tree_room[joined]
        b = len(bins)
        bins.append(members)
        for i in members:
            item_bins[i].append(b)
        # (item, parent bin) pairs, parents first; the root's parent is -1.
        # The walk relabels as it goes and records only what it changes.
        order = [(members[0], -1)]
        moved: list[int] = []
        olds: list[int] = []
        for i, up in order:
            old = tree[i]
            if old != top:
                moved.append(i)
                olds.append(old)
                tree[i] = top
            for c in item_bins[i]:
                if c != up:
                    for j in bins[c]:
                        if j != i:
                            order.append((j, c))
        self._undo.append((moved, olds, top, tree_loops[top], tree_room[top], self.loops))
        if loops < 0:
            loops = _tree_loops(self.scaled, self.cap, item_bins, order)
        tree_loops[top] = loops
        tree_room[top] = room
        self.loops += loops - merged

    def pop(self) -> None:
        moved, olds, top, kept, room, loops = self._undo.pop()
        item_bins = self.item_bins
        for i in self.bins.pop():
            item_bins[i].pop()
        tree = self.tree
        for i, old in zip(moved, olds):
            tree[i] = old
        self.tree_loops[top] = kept
        self.tree_room[top] = room
        self.loops = loops


def _realise(
    scaled: Sequence[Scaled], cap: int, forest: Sequence[tuple[int, ...]]
) -> list[tuple[tuple[int, ...], list[Item]]]:
    """The bins that the tree DP's rule fills for a forest, as (members,
    entries) pairs: the forest's bins and one ``(i,)`` per loop of item i,
    sorted by members, with parts in the unit (cap, scaled).

    Each tree is rooted at its largest item, the lowest id among equal
    sizes, and run leaves first. An item fills the room its child bins
    leave, in ascending bin order, then takes whole loops of cap and last
    its remainder: a root keeps it as a loop, any other item pushes it into
    its parent bin. A bin its pushers overfill sends its largest pushers,
    the lower id first on ties, to one loop each until the rest fit. So the
    loops number minloops(F), which does not depend on the root. A part of
    0 is never made, so a bin that no item reaches keeps no entry."""
    bins = sorted(forest)
    item_bins = shared_bins(len(scaled), bins)
    entries: list[list[Item]] = [[] for _ in bins]
    loops: list[list[Scaled]] = [[] for _ in scaled]
    pushes: dict[int, list[Item]] = {}
    placed = [False] * len(scaled)
    for root in sorted(range(len(scaled)), key=lambda i: (-scaled[i], i)):
        if placed[root]:
            continue
        placed[root] = True
        # (item, parent bin) pairs, parents first; the root's parent is -1.
        order = [(root, -1)]
        for i, up in order:
            for b in item_bins[i]:
                if b != up:
                    for j in bins[b]:
                        if j != i:
                            placed[j] = True
                            order.append((j, b))
        for i, up in reversed(order):
            rest = scaled[i]
            for b in item_bins[i]:
                if b == up:
                    continue
                held = sorted(pushes.get(b, ()), key=lambda e: (-e[1], e[0]))
                total = sum(push for _, push in held)
                while total > cap:
                    j, push = held.pop(0)
                    loops[j].append(push)
                    total -= push
                put = min(rest, cap - total)
                if put > 0:
                    held.append((i, put))
                    rest -= put
                entries[b] = held
            if rest > 0:
                whole = -(-rest // cap) - 1
                loops[i] += [cap] * whole
                rest -= whole * cap
                if up == -1:
                    loops[i].append(rest)
                else:
                    pushes.setdefault(up, []).append((i, rest))
    rows = list(zip(bins, entries))
    rows += [((i,), [(i, part)]) for i, parts in enumerate(loops) for part in parts]
    rows.sort(key=lambda row: row[0])
    return rows


# ---------------------------------------------------------------------------
# The forest search.


class _Counter:
    __slots__ = ("value", "limit")

    def __init__(self, limit: int):
        self.value = 0
        self.limit = limit

    def tick(self) -> None:
        self.value += 1
        if self.value > self.limit:
            raise self.exceeded()

    def exceeded(self) -> BudgetExceeded:
        """The error of a search past its node limit."""
        return BudgetExceeded(f"structure search exceeded {self.limit} nodes")


class _ForestSearch:
    """The level search of k-part bins over sizes scaled by cap, sharing one
    node budget. ``level`` answers in that unit, with raw bins that no one
    has checked yet: the caller's one ``checked_packing`` does."""

    def __init__(self, k: int, cap: int, scaled: Sequence[Scaled], counter: _Counter):
        self.n = n = len(scaled)
        self.counter = counter
        self.width = min(k, n)
        self.cap, self.scaled = cap, scaled
        self.ceils = ceils = [-(-s // cap) for s in scaled]
        # An item's twin is the largest earlier item of the same size.
        bits = [1 << i for i in range(n)]
        twinned = 0  # the items with a twin
        twin_bits = [0] * n  # per item i, the item whose twin is i
        last: dict[Scaled, int] = {}
        for j, s in enumerate(scaled):
            if s in last:
                twinned |= bits[j]
                twin_bits[last[s]] = bits[j]
            last[s] = j
        self.twinned = twinned
        # The candidates in order of (-sum of ceil(size), bin size, item
        # tuple), each with the bit masks of its items and of the items whose
        # twin it holds.
        ranked: list[tuple[int, int, tuple[int, ...], int, int]] = []
        for size in range(2, self.width + 1):
            ranked.extend(
                zip(
                    map(neg, map(sum, itertools.combinations(ceils, size))),
                    itertools.repeat(size),
                    itertools.combinations(range(n), size),
                    map(sum, itertools.combinations(bits, size)),
                    map(sum, itertools.combinations(twin_bits, size)),
                )
            )
        ranked.sort()
        # Each row: the candidate, its items, its items whose twin it does
        # not hold ("lonely"), the items it takes out of ``free``, and the sum
        # of its items' ceil(size).
        self.rows = [
            (members, mask, mask & twinned & ~held, mask | held, -neg_ceil)
            for neg_ceil, _, members, mask, held in ranked
        ]
        # Per row, the min-loop total of its bin alone, or -1 until the
        # search first needs it; shared by every level.
        self.alone = [-1] * len(self.rows)

    def level(self, n_bins: int) -> list[list[Item]] | None:
        """The raw bins of a witness with n_bins bins, or None when none
        exists: the first forest that fits, realised by ``_realise``. The
        caller asks for the first feasible level only, so no fewer bins can
        come out."""
        forest = self._first_forest(n_bins)
        if forest is None:
            return None
        bins = [entries for _, entries in _realise(self.scaled, self.cap, forest) if entries]
        if len(bins) != n_bins:
            raise InternalError(f"the forest of level {n_bins} realises {len(bins)} bins")
        return bins

    def _first_forest(self, n_bins: int) -> list[tuple[int, ...]] | None:
        """The first forest in candidate order whose bins and loops fit in
        n_bins bins, or None; the module docstring gives its cuts and the
        twin rule."""
        n = self.n
        width = self.width
        ceils = self.ceils
        rows = self.rows
        alone = self.alone
        n_rows = len(rows)
        counter = self.counter
        limit = counter.limit
        forest = _ForestLoops(self.scaled, self.cap)
        chosen = forest.bins
        tree = forest.tree
        tree_loops = forest.tree_loops
        tree_room = forest.tree_room
        cap = self.cap
        item_bins = forest.item_bins
        # Items that may need more than one part.
        multi = sum(1 << i for i in range(n) if ceils[i] > 1)

        def recurse(
            start: int, need: int, merges_left: int, short: int, free: int, touched: int
        ):
            # short: the items still below ceil(size) parts. free: the items
            # j with a twin i such that no chosen bin holds i or j. touched:
            # the items in a chosen bin.
            left = n_bins - len(chosen)
            used = len(chosen) + forest.loops
            if used <= n_bins:
                return list(chosen)
            if used - min(merges_left, left * (width - 1)) > n_bins:
                return None
            # Each bin left holds at most `width` of the parts still needed.
            most = (left - 1) * width
            # A child's merge cut allows the least of its merges left and this.
            child_room = (left - 1) * (width - 1)
            for t in range(start, n_rows):
                members, mask, lonely, taken, ceil_sum = rows[t]
                if lonely & free:
                    continue
                joins = mask & touched
                # Two items in chosen bins may already share a tree; an item
                # in none is a tree of its own.
                if joins & (joins - 1):
                    if len(members) == 2:
                        if tree[members[0]] == tree[members[1]]:
                            continue
                    elif len({tree[i] for i in members}) < len(members):
                        continue
                counter.value += 1
                if counter.value > limit:
                    raise counter.exceeded()
                relief = (mask & short).bit_count()
                if need - relief > most:
                    continue
                child_merges = merges_left - len(members) + 1
                # The child's merge cut, on a lower bound of the new tree's
                # total: a fresh tree's is in the table, and a joining bin's
                # is bounded by its room. A child it would stop is skipped.
                if joins:
                    merged = 0
                    room = cap
                    for i in members:
                        joined = tree[i]
                        merged += tree_loops[joined]
                        room += tree_room[joined]
                    least = -(room // cap) if room < 0 else 0
                    loops = -1
                else:
                    loops = alone[t]
                    if loops < 0:
                        forest.push(members)
                        loops = alone[t] = forest.tree_loops[members[0]]
                        forest.pop()
                    merged, least = ceil_sum, loops
                if used + 1 + least - merged - min(child_merges, child_room) > n_bins:
                    continue
                forest.push(members, loops)
                after = short & ~mask
                if mask & multi:
                    for i in members:
                        if len(item_bins[i]) < ceils[i]:
                            after |= 1 << i
                hit = recurse(
                    t + 1,
                    need - relief,
                    child_merges,
                    after,
                    free & ~taken,
                    touched | mask,
                )
                forest.pop()
                if hit is not None:
                    return hit
            return None

        counter.tick()
        return recurse(0, sum(ceils), n - 1, (1 << n) - 1, self.twinned, 0)


# ---------------------------------------------------------------------------
# The partition lower bound.

# Candidate groups one call of ``_partition_level`` may try before it gives
# up and leaves the levels from the one it was deciding to the search.
_PARTITION_STEPS = 2000


class _GiveUp(Exception):
    """The partition bound tried ``_PARTITION_STEPS`` groups."""


def _partition_level(
    k: int, cap: int, scaled: Sequence[Scaled], levels: range
) -> tuple[int, list[tuple[tuple[int, ...], int]] | None]:
    """The first level of ``levels`` that the partition bound does not rule
    out, or ``levels.stop`` when it rules out each one; with it, the
    partition found to fit that level, as (items, g(G)) per group, or None
    when the bound ruled out every level or gave up.

    A tree of a forest-shaped packing, with item set G, needs g(G) =
    max(ceil(s(G)), ceil((|G| - 1) / (k - 1)), sum_G ceil(s_i) - |G| + 1,
    ceil(sum_G ceil(s_i) / k)) bins: its b bins hold |G| + b - 1 parts, at
    most k * b and at least sum_G ceil(s_i). Level L is ruled out when no
    partition of the items into groups has sum g(G) <= L, that is, when no
    partition fits in the waste L * cap - s of the level, where a group
    costs g(G) * cap - s(G) >= 0.

    A depth-first search over the items sorted by decreasing size decides
    it. It groups the first item left with some of the others, and runs on
    the rest with the waste the group leaves: each group is closed before
    it grows by one more item, in item order, so the partition found tends
    to have many small groups, which the group fallback packs one at a time.
    Since (k - 1) * g(G) * cap >= (|G| - 1) * cap, a group fits only while
    sum_G (cap - (k - 1) * s_j) <= (k - 1) * waste + cap; the sort makes the
    terms non-decreasing, so growth stops at the first item that passes
    it. A rest whose ceil(size) or ceil(parts / k) bound already costs more
    than the waste left fails. Equal sizes join a group first come first,
    so each multiset of sizes is tried once, and a failed rest is memoized
    with the most waste it failed with. Every level shares the memo and the
    ``_PARTITION_STEPS`` cap; past it the level being decided is returned.
    A partition that fits is collected as its groups close on the way back.
    """
    order = sorted(range(len(scaled)), key=lambda i: -scaled[i])
    sizes = [scaled[i] for i in order]
    n = len(sizes)
    ceils = [-(-s // cap) for s in sizes]
    spreads = [cap - (k - 1) * s for s in sizes]
    failed: dict[int, Scaled] = {}
    steps = 0
    # The groups of the partition found, innermost first, as (mask, g(G)).
    found: list[tuple[int, int]] = []

    def fits(rest: int, size: Scaled, ceil_sum: int, waste: Scaled) -> bool:
        # rest: the items left, of total size and ceil(size) sum.
        if not rest:
            return True
        if failed.get(rest, -1) >= waste:
            return False
        if max(-(-size // cap), -(-ceil_sum // k)) * cap - size > waste:
            return False
        first = (rest & -rest).bit_length() - 1
        others = [j for j in range(first + 1, n) if rest >> j & 1]
        limit = (k - 1) * waste + cap

        def grow(
            at: int, group: int, g_size: Scaled, count: int, g_ceil: int, spread: Scaled
        ) -> bool:
            # Whether the group, closed or grown, leaves a rest that fits.
            nonlocal steps
            steps += 1
            if steps > _PARTITION_STEPS:
                raise _GiveUp
            bins = max(
                -(-g_size // cap),
                -(-(count - 1) // (k - 1)),
                g_ceil - count + 1,
                -(-g_ceil // k),
            )
            cost = bins * cap - g_size
            if cost <= waste and fits(
                rest & ~group, size - g_size, ceil_sum - g_ceil, waste - cost
            ):
                found.append((group, bins))
                return True
            for t in range(at, len(others)):
                j = others[t]
                if spread + spreads[j] > limit:
                    break
                if t > at and sizes[j] == sizes[others[t - 1]]:
                    continue
                if grow(
                    t + 1,
                    group | 1 << j,
                    g_size + sizes[j],
                    count + 1,
                    g_ceil + ceils[j],
                    spread + spreads[j],
                ):
                    return True
            return False

        if grow(0, 1 << first, sizes[first], 1, ceils[first], spreads[first]):
            return True
        failed[rest] = waste
        return False

    total = sum(sizes)
    for level in levels:
        try:
            if fits((1 << n) - 1, total, sum(ceils), level * cap - total):
                return level, [
                    (tuple(sorted(order[j] for j in range(n) if group >> j & 1)), bins)
                    for group, bins in reversed(found)
                ]
        except _GiveUp:
            return level, None
    return levels.stop, None


# ---------------------------------------------------------------------------
# Heuristic upper bounds: any valid packing certifies its own bin count.


def _best_fit_split(k: int, cap: int, scaled: Sequence[Scaled]) -> list[list[Item]]:
    """Best fit decreasing on the sizes scaled by cap, as raw bins of scaled
    parts: items go largest first, each whole into the open bin with below k
    parts whose free room is least but still fits it (the first such bin on
    ties); an item that fits nowhere whole spills over ceil(size) fresh
    bins."""
    bins: list[list[Item]] = []
    fills: list[int] = []
    for item in sorted(range(len(scaled)), key=lambda i: (-scaled[i], i)):
        size = scaled[item]
        best = -1
        best_free = cap + 1
        for b, fill in enumerate(fills):
            free = cap - fill
            if size <= free < best_free and len(bins[b]) < k:
                best, best_free = b, free
        if best >= 0:
            bins[best].append((item, size))
            fills[best] += size
            continue
        fresh = spill(item, size, cap)
        bins.extend(fresh)
        fills.extend([cap] * (len(fresh) - 1))
        fills.append(fresh[-1][0][1])
    return bins


def _upper_bound_packing(
    k: int, cap: int, scaled: Sequence[Scaled], lb: int
) -> tuple[list[list[Item]], str]:
    """The raw bins, in the unit (cap, scaled), of the fewer-bin packing of
    next fit (kept on ties) and best fit, with its label. Best fit runs only
    when next fit has more than lb bins, a lower bound of the items: it
    cannot beat a packing at the bound, and next fit keeps ties. The bins
    are not checked here; the one that ``_solve`` returns is checked there,
    and a group's within the union of ``_pack_groups``."""
    bins = next_fit_bins(enumerate(scaled), k, cap)
    label = NF_LABEL
    if len(bins) > lb:
        bf_bins = _best_fit_split(k, cap, scaled)
        if len(bf_bins) < len(bins):
            # "ffd" stays: byte-stable witnesses carry it whenever this meets the LB.
            bins, label = bf_bins, "ffd"
    return bins, label


# ---------------------------------------------------------------------------
# Search entry points.


def _solve(inst: Instance, budget: SearchBudget, goal: int, top: int) -> Packing | None:
    """The one path of both entry points and the oracle's one exit: the
    upper bound when it has at most max(goal, LB) bins; else the first
    witness of the levels LB .. top below the upper bound, which has as many
    bins as its level, searched from the first level the partition bound
    does not rule out; else the upper bound when it has at most top + 1
    bins, so that every level below it was searched or ruled out; else
    None. A positive goal is a ``feasible_in`` bin count, so an answer with
    more bins than the goal, or with no bins, is None too, unchecked; one
    with fewer grows to the goal: the first largest part, in bin order and
    in item order within a bin, is halved into a fresh one-entry bin until
    there are goal bins, which keeps every bin within capacity and the part
    limit. A half is ``Fraction(part, 2)``, exact in either unit. The
    answer's raw bins, in the call's unit, become its one ``Packing``
    through one ``checked_packing``.

    A level whose search runs out of nodes falls back on packing the groups
    of a partition that fits it one at a time (``_pack_groups``); the
    search's own ``BudgetExceeded`` is raised again when that gives no
    packing. At the first level searched the partition is the one that
    opened it; a later level, which that partition cannot pack, is decided
    again, and so is a level the bound gave up on."""
    if inst.n > budget.max_items:
        raise BudgetExceeded(f"{inst.n} items exceed the budget of {budget.max_items}")
    if top > budget.max_bins:
        raise BudgetExceeded(f"{top} bins exceed the budget of {budget.max_bins}")
    k = inst.k
    lb = lower_bounds(inst).best
    cap, scaled = unit_sizes(inst.sizes)
    bins, label = _upper_bound_packing(k, cap, scaled, lb)
    if len(bins) > max(goal, lb):
        levels = range(lb, min(len(bins) - 1, top) + 1)
        start, groups = _partition_level(k, cap, scaled, levels)
        found = None
        if start < levels.stop:
            search = _ForestSearch(k, cap, scaled, _Counter(budget.max_structures))
            for n_bins in range(start, levels.stop):
                try:
                    found = search.level(n_bins)
                except BudgetExceeded:
                    if n_bins > start or groups is None:
                        groups = _partition_level(k, cap, scaled, range(n_bins, n_bins + 1))[1]
                    found = _pack_groups(k, budget, cap, scaled, groups, n_bins)
                    if found is None:
                        raise
                if found is not None:
                    break
        if found is not None:
            bins, label = found, EXACT_LABEL
        elif len(bins) > top + 1:
            return None
    if goal and not 0 < len(bins) <= goal:
        return None
    if len(bins) < goal:
        bins = [sorted(entries) for entries in bins]
        while len(bins) < goal:
            row = max(bins, key=lambda row: max(part for _, part in row))
            e = max(range(len(row)), key=lambda e: row[e][1])
            item, part = row[e]
            half = Fraction(part, 2)
            row[e] = (item, part - half)
            bins.append([(item, half)])
    return checked_packing(inst, bins, cap, scaled, [label] * len(bins))


def _pack_groups(
    k: int,
    budget: SearchBudget,
    cap: int,
    scaled: Sequence[Scaled],
    groups: list[tuple[tuple[int, ...], int]] | None,
    level: int,
) -> list[list[Item]] | None:
    """The raw bins of a packing of ``level`` bins made of each group G of
    ``groups``, a partition with sum g(G) <= level, packed on its own into
    g(G) bins, or None when there is no partition, it has a single group,
    or some group does not pack.

    Each group runs in the caller's unit (cap, scaled) on its own sizes: it
    takes the upper-bound bins when they are g(G), which next fit gives a
    single item and a group with g(G) = 1, and else the forest search at
    level g(G) alone. The groups share one fresh node counter, which also
    ticks once per group. The caller searched or ruled out every level
    below ``level``, so in a union that succeeds no group fits in fewer
    than g(G) bins, and the levels below g(G) need no search. The union is
    returned in the caller's unit under the instance's item ids, unchecked,
    with exactly ``level`` bins; it is optimal, and ``_solve`` checks it."""
    if groups is None or len(groups) < 2:
        return None
    counter = _Counter(budget.max_structures)
    bins: list[list[Item]] = []
    try:
        for members, n_bins in groups:
            counter.tick()
            sizes = [scaled[i] for i in members]
            packed, _ = _upper_bound_packing(k, cap, sizes, n_bins)
            if len(packed) > n_bins:
                packed = _ForestSearch(k, cap, sizes, counter).level(n_bins)
                if packed is None:
                    return None
            bins.extend([(members[j], part) for j, part in entries] for entries in packed)
    except BudgetExceeded:
        return None
    if len(bins) != level:
        raise InternalError(f"the groups of level {level} pack into {len(bins)} bins")
    return bins


def exact_opt(
    inst: Instance, budget: SearchBudget = SearchBudget()
) -> tuple[int, Packing]:
    """Minimum feasible bin count plus a witness packing.

    The search ascends from the combined lower bound and stops at the first
    feasible level, so the result is optimal.
    """
    packing = _solve(inst, budget, 0, budget.max_bins)
    if packing is None:
        raise BudgetExceeded(f"optimum lies above the bin budget of {budget.max_bins}")
    return packing.n_bins, packing


def feasible_in(
    inst: Instance, n_bins: int, budget: SearchBudget = SearchBudget()
) -> Packing | None:
    """Decision variant: a valid packing with exactly n_bins bins, or None.

    A packing with fewer bins always extends to exactly n_bins by splitting
    parts, so the search may stop at the first feasible level at or below
    n_bins; ``_solve`` grows its answer and checks it once. An empty
    instance has no packing of n_bins bins, so it gets None.
    """
    if n_bins < 1:
        raise ValueError(f"bin count must be at least 1, got {n_bins}")
    return _solve(inst, budget, n_bins, n_bins)
