"""Differential tests: the indexed rewrites against the scan-and-restart
reference in ``reference_normalize``, which they must match exactly (same
bins, same bin order, same labels)."""

import random
from fractions import Fraction as F

import pytest

import reference_normalize as ref
from splitpack import (
    Instance,
    Packing,
    PackingGraph,
    bound_degrees,
    gen_random,
    next_fit,
    normalization_violations,
    normalize,
    pack_75,
    remove_cycles,
    smalls_to_leaves,
)

STEPS = (
    (remove_cycles, ref.remove_cycles),
    (smalls_to_leaves, ref.smalls_to_leaves),
    (bound_degrees, ref.bound_degrees),
    (normalize, ref.normalize),
)


def outcome(fn, inst, packing):
    try:
        return fn(inst, packing)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same_rewrites(inst, packing):
    """Every public step and ``normalize`` on the packing and on each
    intermediate result, plus the violation lists along the way."""
    inputs = [packing]
    rc = ref.remove_cycles(inst, packing)
    inputs += [rc, ref.smalls_to_leaves(inst, rc), ref.bound_degrees(inst, rc)]
    inputs.append(ref.normalize(inst, packing))
    for p in inputs:
        for new, old in STEPS:
            assert outcome(new, inst, p) == outcome(old, inst, p), (
                new.__name__, inst.sizes, p.bins,
            )
        assert normalization_violations(inst, p) == ref.normalization_violations(
            inst, p
        )


def random_multigraph_packing(rng, n, n_bins):
    """Random k = 2 bins with loops, cycles and parallel edges; item sizes
    are whatever the bins cover, so every bin is at or below capacity."""
    bins = []
    for b in range(n_bins):
        first = b if b < n else rng.randrange(n)
        total = rng.randint(2, 24)  # in 24ths
        if n > 1 and rng.random() < 0.8:
            second = rng.choice([i for i in range(n) if i != first])
            cut = rng.randint(1, total - 1)
            bins.append([(first, F(cut, 24)), (second, F(total - cut, 24))])
        else:
            bins.append([(first, F(total, 24))])
    covered = Packing.build(bins).coverage()
    labels = [f"b{j}" for j in range(n_bins)]
    return Instance(k=2, sizes=tuple(covered[i] for i in range(n))), Packing.build(
        bins, labels
    )


def shuffled(rng, sizes, bins):
    bins = list(bins)
    rng.shuffle(bins)
    return Instance(k=2, sizes=tuple(sizes)), Packing.build(bins, ["input"] * len(bins))


def triangles(rng, count):
    sizes = [F(rng.randint(6, 12), 12) for _ in range(3 * count)]
    bins = []
    for t in range(count):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        for u, v in ((a, b), (b, c), (c, a)):
            bins.append([(u, sizes[u] / 2), (v, sizes[v] / 2)])
    return sizes, bins


def ring(length):
    sizes = [F(2, 3)] * length
    bins = [[(i, F(1, 3)), ((i + 1) % length, F(1, 3))] for i in range(length)]
    return sizes, bins


def stars(rng, count):
    sizes, bins = [], []
    for _ in range(count):
        i = rng.randint(2, 4)
        degree = i + rng.randint(1, 3)
        centre = len(sizes)
        sizes.append(F(i, 2))
        for _ in range(degree):
            leaf = len(sizes)
            sizes.append(F(rng.randint(1, 6), 12))
            bins.append([(centre, F(i, 2) / degree), (leaf, sizes[leaf])])
    return sizes, bins


@pytest.mark.parametrize("dist", ["mixed", "uniform"])
def test_matches_reference_on_algorithm_packings(dist):
    rng = random.Random(2026 if dist == "mixed" else 1017)
    for _ in range(25):
        inst = gen_random(rng.randint(1, 60), 2, dist, seed=rng.randrange(2**30))
        assert_same_rewrites(inst, next_fit(inst)[0])
        assert_same_rewrites(inst, pack_75(inst).packing)


def test_matches_reference_at_1000_items():
    for seed in (7, 8):
        inst = gen_random(1000, 2, "mixed", seed=seed)
        packing, _ = next_fit(inst)
        assert normalize(inst, packing) == ref.normalize(inst, packing)
        assert normalization_violations(inst, packing) == (
            ref.normalization_violations(inst, packing)
        )


def test_matches_reference_on_structured_packings():
    rng = random.Random(5)
    for _ in range(3):
        assert_same_rewrites(*shuffled(rng, *triangles(rng, 12)))
        assert_same_rewrites(*shuffled(rng, *stars(rng, 8)))
    assert_same_rewrites(*shuffled(rng, *ring(60)))


def test_matches_reference_on_parallel_edges():
    inst = Instance(k=2, sizes=(F(3, 4), F(3, 4)))
    packing = Packing.build(
        [[(0, F(1, 2)), (1, F(1, 4))], [(0, F(1, 4)), (1, F(1, 2))]]
    )
    assert_same_rewrites(inst, packing)


def test_matches_reference_when_a_trade_empties_the_neighbour_part():
    # Small item 0 trades its 1/4 in bin 0 for item 2's whole 1/4 in bin 1.
    inst = Instance(k=2, sizes=(F(1, 2), F(1), F(1)))
    packing = Packing.build(
        [[(0, F(1, 4)), (1, F(3, 4))], [(0, F(1, 4)), (2, F(1, 4))], [(1, F(1, 4))],
         [(2, F(3, 4))]]
    )
    assert smalls_to_leaves(inst, packing) == ref.smalls_to_leaves(inst, packing)
    assert_same_rewrites(inst, packing)


def test_matches_reference_on_random_multigraphs():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 12)
        inst, packing = random_multigraph_packing(rng, n, rng.randint(n, 2 * n + 4))
        assert_same_rewrites(inst, packing)


def test_graph_queries_match_brute_force():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 9)
        edges = []
        for _ in range(rng.randint(0, 14)):
            u = rng.randrange(n)
            v = u if rng.random() < 0.3 else rng.randrange(n)
            edges.append((min(u, v), max(u, v)))
        fast = PackingGraph(n=n, edges=tuple(edges))
        slow = ref.ReferenceGraph(n=n, edges=tuple(edges))
        assert fast.is_forest() == slow.is_forest()
        for item in range(-1, n + 1):
            assert fast.degree(item) == slow.degree(item)
            assert fast.neighbor_edges(item) == slow.neighbor_edges(item)
            assert fast.neighbor_count(item) == slow.neighbor_count(item)
