"""Structural rewrites of k = 2 packings.

Three transformations, each preserving validity and item coverage exactly:

- remove_cycles: break every cycle in the packing graph, either by emptying
  the lightest cycle bin into its neighbors (bin count drops) or by rotating
  part mass around the cycle until an entry hits zero (edge turns into a
  loop). Output graph is a forest plus loops.
- smalls_to_leaves: every item of size at most 1/2 ends up with at most one
  neighbor. Loops do not count as neighbors: an item split over private bins
  is structurally a leaf already, and insisting otherwise would force bin
  deletions.
- bound_degrees: an item of size in ((i-1)/2, i/2] keeps at most i
  neighbors. Works top-down from each tree root; over-degree items merge
  their two smallest parts into one bin, cutting one neighbor in two and
  moving the other down a level.

Only remove_cycles may reduce the bin count; the other two keep it fixed.

Choice order. Each rewrite picks its next target by bin index or item id
alone, never by dict order, so its output is fully determined:

- remove_cycles scans bins in index order, joining the endpoints of each
  two-item bin in a union-find; the first bin whose endpoints are already
  joined closes the next cycle, which runs along the unique path between
  them through earlier bins.
- smalls_to_leaves first collapses small-small edges that have a non-leaf
  endpoint, lowest bin index first; then it fixes violating small items,
  lowest item id first, each at its two lowest-index edge bins.
- bound_degrees takes over-degree items top-down in BFS order: roots by
  ascending id, children in id order.

Cost. The rewrites work in one integer unit, ``core.unit_sizes`` over the
instance's sizes and the packing's parts: every part is an integer over a
common capacity, so a fill, a slice or a merge is an integer sum and every
comparison an integer test. Dividing by the capacity keeps every comparison,
so every choice and output byte is the one exact ``Fraction`` arithmetic
gives; when the common denominator passes ``core.UNIT_BITS`` the same code
runs on the ``Fraction`` parts at capacity 1. The input is validated once
(not at all when ``validate_packing`` has already passed it for the
instance). The working copy is not checked between rewrites; the output of
``normalize`` and of each public step is checked once, at the exit: for
validity in the unit, converted back by ``core.checked_packing`` (so it is
returned marked as checked), and for a forest graph. Each item's size type
(1 for a small item) is computed once. The rewrites share one
packing-graph index, built once by ``core.shared_bins`` over the working
bins and updated in place: each item's edge bins (the two-item bins holding
it) as a list sorted by bin index. No rewrite rescans the packing.
remove_cycles walks the tree each cycle lies in once, a BFS that yields
both the cycle's path and the tree's items, resumes its scan at the
closing bin and re-joins only that tree;
smalls_to_leaves needs one forward scan per phase, because no rewrite
creates a new collapse candidate or raises a small item's neighbor count;
bound_degrees is one resumable sweep, since a merge at x rewires only edges
below x. Beyond the edge-list updates (O(degree) each) and the tree each
cycle lies in, the work is near-linear in the bin count.
"""

from __future__ import annotations

import bisect
import gc
import heapq
from collections import deque
from typing import Iterator

from .core import (
    DisjointSets,
    Instance,
    InternalError,
    InvalidPackingError,
    Packing,
    Scaled,
    brief_repr,
    checked_packing,
    is_acyclic,
    shared_bins,
    size_type,
    unit_sizes,
    validate_packing,
)


class _Work:
    """A k = 2 packing rewritten in place, with its packing-graph index.

    ``cap`` and ``sizes`` are the unit of ``core.unit_sizes`` over the
    instance's sizes and the packing's parts. ``bins[b]`` maps item to part
    in that unit, or is None once bin b has been emptied; later bins keep
    their indices, so index order stays bin order. ``edge_bins[i]`` lists
    the two-item bins holding item i, ascending. ``types[i]`` is item i's
    ``size_type``: 1 for a small item.
    """

    def __init__(self, inst: Instance, packing: Packing) -> None:
        if inst.k != 2:
            raise ValueError(
                f"normalization is defined for k=2 only, got k={brief_repr(inst.k)}"
            )
        problems = validate_packing(inst, packing)
        if problems:
            raise InvalidPackingError(problems)
        self.inst = inst
        cap, sizes = unit_sizes(
            inst.sizes, (part for entries in packing.bins for _, part in entries)
        )
        self.cap, self.sizes = cap, sizes
        self.bins: list[dict[int, Scaled] | None]
        if sizes is inst.sizes:  # no integer unit: the Fractions at cap 1
            self.bins = [dict(entries) for entries in packing.bins]
        else:
            self.bins = [
                {i: p.numerator * (cap // p.denominator) for i, p in entries}
                for entries in packing.bins
            ]
        self.labels = list(packing.labels)
        self.types = [size_type(s) for s in inst.sizes]
        self.edge_bins = shared_bins(inst.n, self.bins)

    def other(self, b: int, item: int) -> int:
        for other in self.bins[b]:
            if other != item:
                return other
        raise InternalError("expected a two-item bin")

    def edges_before(self, item: int, limit: int) -> Iterator[tuple[int, int]]:
        """(neighbor, bin) for each of the item's edge bins below limit."""
        for b in self.edge_bins[item]:
            if b >= limit:
                return
            yield self.other(b, item), b

    def unlink(self, b: int, item: int) -> None:
        """Drop bin b from the item's edge bins."""
        edge_bins = self.edge_bins[item]
        del edge_bins[bisect.bisect_left(edge_bins, b)]

    def link(self, b: int, item: int) -> None:
        bisect.insort(self.edge_bins[item], b)

    def is_forest(self) -> bool:
        edges = (tuple(b) for b in self.bins if b is not None and len(b) == 2)
        return is_acyclic(self.inst.n, edges)

    def require_forest(self) -> None:
        if not self.is_forest():
            raise ValueError("packing graph must be acyclic")

    def packing(self) -> Packing:
        """The output ``Packing``, marked as checked: the one check of every
        rewrite's result. Its bins pass the validity check in the unit
        (``checked_packing``) and its graph must be a forest; every rewrite
        keeps both, so a failure is an ``InternalError``."""
        live = [b for b, entries in enumerate(self.bins) if entries is not None]
        packing = checked_packing(
            self.inst,
            [self.bins[b].items() for b in live],
            self.cap,
            self.sizes,
            [self.labels[b] for b in live],
        )
        if not self.is_forest():
            raise InternalError("a rewrite left a cycle in the packing graph")
        return packing


def remove_cycles(inst: Instance, packing: Packing) -> Packing:
    """Rewrite the packing so its graph is a forest plus loops.

    Bin count never increases; it drops when a cycle bin can be emptied into
    the two adjacent cycle bins.
    """
    work = _Work(inst, packing)
    _remove_cycles(work)
    return work.packing()


def _remove_cycles(work: _Work) -> None:
    bins = work.bins
    sets = DisjointSets(work.inst.n)
    b = 0
    while b < len(bins):
        entries = bins[b]
        if entries is None or len(entries) != 2:
            b += 1
            continue
        u, v = sorted(entries)
        if sets.union(u, v):
            b += 1
            continue
        items, cycle, tree = _cycle_through(work, u, v, b)
        _break_cycle(work, items, cycle)
        # Breaking the cycle only removed edges of its tree, so the bins
        # before b still form a forest: make the tree's one set singletons,
        # re-join what is left of it and rescan from b.
        sets.reset(tree)
        for node in tree:
            for other, _ in work.edges_before(node, b):
                sets.union(node, other)


def _cycle_through(
    work: _Work, u: int, v: int, closing: int
) -> tuple[list[int], list[int], dict[int, tuple[int, int]]]:
    """The cycle closed by bin ``closing``: returns (items, cycle_bins, tree)
    where cycle_bins[j] holds items[j] and items[(j+1) % t], items[0] = u
    and items[-1] = v. The bins before ``closing`` form a forest, so the u-v
    path through them is unique. One BFS from u walks the whole tree of u
    through those bins: ``tree`` maps each item it reaches to its BFS
    parent and the bin joining them, so its keys are u's union-find set."""
    tree: dict[int, tuple[int, int]] = {u: (-1, -1)}
    queue = [u]
    while queue:
        nxt = []
        for node in queue:
            for other, via in work.edges_before(node, closing):
                if other not in tree:
                    tree[other] = (node, via)
                    nxt.append(other)
        queue = nxt
    path_items = [v]
    path_bins: list[int] = []
    node = v
    while node != u:
        node, via = tree[node]
        path_items.append(node)
        path_bins.append(via)
    path_items.reverse()  # u ... v
    path_bins.reverse()  # connecting consecutive path items
    return path_items, path_bins + [closing], tree


def _break_cycle(work: _Work, items: list[int], cycle: list[int]) -> None:
    bins, cap = work.bins, work.cap
    t = len(cycle)

    def fill_of(b: int) -> Scaled:
        return sum(bins[b].values())

    # Try to empty the lightest cycle bin into its two cycle neighbors.
    order = sorted(range(t), key=lambda j: (fill_of(cycle[j]), cycle[j]))
    for j in order:
        b_mid = cycle[j]
        left_item = items[j]
        right_item = items[(j + 1) % t]
        b_left = cycle[(j - 1) % t]
        b_right = cycle[(j + 1) % t]
        part_left = bins[b_mid][left_item]
        part_right = bins[b_mid][right_item]
        if t == 2:
            fits = cap - fill_of(b_left) >= part_left + part_right
        else:
            fits = (
                cap - fill_of(b_left) >= part_left
                and cap - fill_of(b_right) >= part_right
            )
        if fits:
            bins[b_left][left_item] += part_left
            bins[b_right][right_item] += part_right
            bins[b_mid] = None
            work.unlink(b_mid, left_item)
            work.unlink(b_mid, right_item)
            return
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
        if zero:
            # The other entry gained mass, so the bin becomes a loop.
            for i in bins[b]:
                work.unlink(b, i)
            for i in zero:
                del bins[b][i]


def smalls_to_leaves(inst: Instance, packing: Packing) -> Packing:
    """Give every small item at most one neighbor; bin count is unchanged.

    A small item beside another small collapses with it into their shared
    bin (their total is at most 1, and the vacated bins keep their other
    occupant). A small beside two bigger items either trades its part for an
    equal slice of the second neighbor or, when that neighbor's part is even
    smaller, moves in outright.
    """
    work = _Work(inst, packing)
    work.require_forest()
    _smalls_to_leaves(work)
    return work.packing()


def _smalls_to_leaves(work: _Work) -> None:
    bins, edge_bins = work.bins, work.edge_bins
    small = [t == 1 for t in work.types]
    # No rewrite below adds a small-small edge or a neighbor of a small item:
    # a collapse only turns edges into loops, and a violator's neighbors are
    # not small (else its edge to them would still be a collapse candidate).
    # So a bin or item that fails its test now fails it for good, and each
    # phase is one forward scan.
    for shared, entries in enumerate(bins):
        if entries is None or len(entries) != 2:
            continue
        u, v = sorted(entries)
        if not (small[u] and small[v]):
            continue
        if len(edge_bins[u]) > 1 or len(edge_bins[v]) > 1:
            for item in (u, v):
                for b in edge_bins[item]:
                    if b != shared:
                        entries[item] += bins[b].pop(item)
                        work.unlink(b, next(iter(bins[b])))
                edge_bins[item] = [shared]
    for s in range(work.inst.n):
        if not small[s]:
            continue
        while len(edge_bins[s]) >= 2:
            b1, b2 = edge_bins[s][:2]
            o2 = work.other(b2, s)
            s1 = bins[b1][s]
            w2 = bins[b2][o2]
            if s1 <= w2:
                # Trade: an s1-sized slice of the second neighbor fills the
                # hole in bin 1; both bin totals are unchanged. Bin 1 cannot
                # hold o2 already: the graph has no parallel edges.
                del bins[b1][s]
                work.unlink(b1, s)
                bins[b1][o2] = s1
                work.link(b1, o2)
                bins[b2][o2] -= s1
                if bins[b2][o2] == 0:
                    del bins[b2][o2]
                    work.unlink(b2, o2)
                    work.unlink(b2, s)
                bins[b2][s] += s1
            else:
                # w2 < s1 <= 1/2 and the s parts sum to at most 1/2, so bin 2
                # takes the part outright.
                o1 = work.other(b1, s)
                del bins[b1][s]
                work.unlink(b1, s)
                work.unlink(b1, o1)
                bins[b2][s] += s1


def bound_degrees(inst: Instance, packing: Packing) -> Packing:
    """Cap every item of size in ((i-1)/2, i/2] at i neighbors (i >= 2).

    Trees are processed from the root down. An over-degree item x merges its
    two smallest down parts into one bin: with down-degree at least i and
    total size at most i/2 those two parts always fit together. One of the
    two displaced neighbors is sliced just enough to keep both bins at
    capacity; small neighbors are never sliced (two small parts share a bin
    without slicing), so leaf status of small items survives.
    """
    work = _Work(inst, packing)
    work.require_forest()
    _bound_degrees(work)
    return work.packing()


def _bound_degrees(work: _Work) -> None:
    # A merge at x rewires only edges below x, and a subtree it cuts loose
    # has a larger minimum id than the current root. So the BFS order of the
    # nodes already visited never changes: fixing x where it stands and then
    # continuing visits items in the order a restart after every merge would.
    n, edge_bins, types = work.inst.n, work.edge_bins, work.types
    seen = [False] * n
    for root in range(n):
        if seen[root] or not edge_bins[root]:
            continue
        seen[root] = True
        queue: deque[tuple[int, int]] = deque([(root, -1)])
        while queue:
            x, up_bin = queue.popleft()
            bracket = types[x]
            if bracket >= 2:
                allowed_down = bracket if up_bin == -1 else bracket - 1
                _merge_down_parts(work, x, up_bin, allowed_down)
            children = sorted(
                (work.other(b, x), b) for b in edge_bins[x] if b != up_bin
            )
            for other, b in children:
                if not seen[other]:
                    seen[other] = True
                    queue.append((other, b))


def _merge_down_parts(work: _Work, x: int, up_bin: int, allowed_down: int) -> None:
    """Merge x's two smallest down parts until at most allowed_down remain."""
    bins, types = work.bins, work.types
    if len(work.edge_bins[x]) - (up_bin != -1) <= allowed_down:
        return
    # A sorted list is a valid min-heap.
    down = sorted(
        (bins[b][x], b, work.other(b, x)) for b in work.edge_bins[x] if b != up_bin
    )
    while len(down) > allowed_down:
        xp, b_p, partner_p = heapq.heappop(down)
        xq, b_q, partner_q = heapq.heappop(down)
        # Prefer slicing a non-small partner; the smaller-part bin's partner
        # is sliced when both qualify.
        slice_first = (b_p, partner_p)
        carry = (b_q, partner_q)
        if types[partner_p] == 1 and types[partner_q] != 1:
            slice_first, carry = carry, slice_first
        b_d, partner_d = slice_first
        b_c, partner_c = carry
        w_d = bins[b_d][partner_d]
        w_c = bins[b_c][partner_c]
        delta = w_d + w_c - work.cap  # the slice, where positive
        # Carrier bin keeps x (parts merged); donor bin keeps its partner's
        # remainder plus the carried neighbor. Both stay within capacity:
        # the two original bins sum to at most 2 * cap. The remainder
        # w_d - delta is cap - w_c > 0, as the carrier bin also held part of x.
        del bins[b_c][partner_c]
        work.unlink(b_c, partner_c)
        bins[b_c][x] = xp + xq
        del bins[b_d][x]
        work.unlink(b_d, x)
        if delta > 0:
            bins[b_c][partner_d] = delta
            work.link(b_c, partner_d)
            bins[b_d][partner_d] = w_d - delta
            heapq.heappush(down, (xp + xq, b_c, partner_d))
        else:
            work.unlink(b_c, x)
        bins[b_d][partner_c] = w_c
        work.link(b_d, partner_c)


def normalize(inst: Instance, packing: Packing) -> Packing:
    """remove_cycles, then smalls_to_leaves, then bound_degrees.

    All three post-conditions hold on the result and the composition is
    idempotent up to bin order. The steps rewrite one working copy and share
    its index and unit, making their choices in the order the module
    docstring states. The copy is not checked between steps: its result is
    checked once, as each public step checks its own, for validity in the
    unit and for a forest graph, and a failure raises ``InternalError``. So
    a bug that corrupts the copy in the first or second step surfaces at
    the exit, or as the next step's own exception, not before the next
    step runs. The output is marked as checked, so ``validate_packing`` and
    ``normalization_violations`` do not check its validity again. An
    invalid input raises ``InvalidPackingError`` with every violation; an
    input that ``validate_packing`` has passed for inst is not validated
    again.

    The steps build many small objects that live until it returns, and the
    cyclic collector's passes over them cost a sixth to a third of its time
    on a next-fit packing of 10^5 items; so the collector is paused for the
    call, and on again at return only if it was on before.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        work = _Work(inst, packing)
        _remove_cycles(work)
        _smalls_to_leaves(work)
        _bound_degrees(work)
        return work.packing()
    finally:
        if collecting:
            gc.enable()


def normalization_violations(inst: Instance, packing: Packing) -> list[str]:
    """Check all normalization post-conditions; empty means normalized. An
    invalid packing yields its ``validate_packing`` list.

    The graph is indexed by ``core.shared_bins`` over the item ids of each
    bin, with no working copy. No type allows fewer than two neighbours to
    violate, so only items with two or more have their type computed."""
    if inst.k != 2:
        k = brief_repr(inst.k)
        raise ValueError(f"normalization is defined for k=2 only, got k={k}")
    problems = validate_packing(inst, packing)
    if problems:
        return problems
    members = [[item for item, _ in entries] for entries in packing.bins]
    out = []
    if not is_acyclic(inst.n, (ids for ids in members if len(ids) == 2)):
        out.append("graph has a cycle")
    for item, edge_bins in enumerate(shared_bins(inst.n, members)):
        neighbors = len(edge_bins)
        if neighbors < 2:
            continue
        bracket = size_type(inst.sizes[item])
        if bracket == 1:
            out.append(f"small item {item} has {neighbors} neighbors")
        elif neighbors > bracket:
            out.append(
                f"item {item} of type {bracket} has {neighbors} neighbors"
            )
    return out
