"""Differential tests: the indexed rewrites against the scan-and-restart
reference in ``reference_normalize``, which they must match exactly (same
bins, same bin order, same labels)."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import reference_normalize as ref
from splitpack import (
    Instance,
    Packing,
    bound_degrees,
    gen_random,
    next_fit,
    normalization_violations,
    normalize,
    pack_75,
    remove_cycles,
    smalls_to_leaves,
)
from splitpack.core import (
    UNIT_BITS,
    is_acyclic,
    shared_bins,
    size_type,
    unit_sizes,
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


def chain(inst, packing):
    """The public steps one after another, each checking its input."""
    return bound_degrees(inst, smalls_to_leaves(inst, remove_cycles(inst, packing)))


def assert_same_rewrites(inst, packing):
    """Every public step and ``normalize`` on the packing and on each
    intermediate result, plus the violation lists along the way; and
    ``normalize``, which checks only its output, against the chain of
    public steps."""
    inputs = [packing]
    rc = ref.remove_cycles(inst, packing)
    inputs += [rc, ref.smalls_to_leaves(inst, rc), ref.bound_degrees(inst, rc)]
    inputs.append(ref.normalize(inst, packing))
    for p in inputs:
        for new, old in STEPS:
            assert outcome(new, inst, p) == outcome(old, inst, p), (
                new.__name__, inst.sizes, p.bins,
            )
        assert outcome(normalize, inst, p) == outcome(chain, inst, p)
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
        slow = ref.ReferenceGraph(n=n, edges=tuple(edges))
        assert is_acyclic(n, edges) == slow.is_forest()
        index = shared_bins(n, [{u, v} for u, v in edges])
        assert index == [slow.neighbor_edges(item) for item in range(n)]


# ---------------------------------------------------------------------------
# The rewrites run in the integer unit of ``core.unit_sizes`` over the sizes
# and the parts; these cases sit at both edges of that unit.


def unit_cap(inst, packing):
    """The rewrites' bin capacity: 1 when no integer unit exists."""
    parts = [part for entries in packing.bins for _, part in entries]
    return unit_sizes(inst.sizes, parts)[0]


def needs_fallback(inst, packing):
    """True iff some size or part is not an integer: the unit passed
    ``UNIT_BITS`` and the rewrites run on the ``Fraction``s at cap 1."""
    values = list(inst.sizes) + [p for entries in packing.bins for _, p in entries]
    return unit_cap(inst, packing) == 1 and any(v.denominator != 1 for v in values)


# Pairwise coprime denominators of 30 to 31 digits: any two have an lcm far
# beyond UNIT_BITS.
COPRIME_DENS = (2**100, 3**63, 5**43, 7**36, 11**29, 13**27)

PRIMES_INSTANCE = Instance(
    k=2,
    sizes=(
        F(300000000000000000000000000, 2**89 - 1),
        F(500000000000000000000000000, 2**89 - 1),
        F(100000000000000000000000000000000, 2**107 - 1),
        F(300000000000000000000000000000000000000, 2**127 - 1),
        F(1, 2**127 - 1),
        F(3, 4),
    ),
)


def test_matches_reference_on_the_primes_instance():
    inst = PRIMES_INSTANCE
    for packing in (next_fit(inst)[0], pack_75(inst).packing):
        assert needs_fallback(inst, packing)
        assert_same_rewrites(inst, packing)


def test_matches_reference_with_coprime_30_digit_denominators():
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randint(2, 10)
        sizes = []
        for _ in range(n):
            den = rng.choice(COPRIME_DENS)
            sizes.append(F(rng.randint(1, 2 * den), den))
        inst = Instance(k=2, sizes=tuple(sizes))
        for packing in (next_fit(inst)[0], pack_75(inst).packing):
            assert_same_rewrites(inst, packing)
    cases = 0
    for _ in range(40):
        n = rng.randint(2, 10)
        base, packing = random_multigraph_packing(rng, n, rng.randint(n, 2 * n + 4))
        # Each bin's parts shrink by a factor over its own denominator, so
        # sizes and parts have many coprime 30-digit denominators.
        factors = [
            F(rng.randint(1, den), den)
            for den in (rng.choice(COPRIME_DENS) for _ in packing.bins)
        ]
        bins = [
            [(i, part * f) for i, part in entries]
            for entries, f in zip(packing.bins, factors)
        ]
        covered = Packing.build(bins).coverage()
        inst = Instance(k=2, sizes=tuple(covered[i] for i in range(n)))
        packing = Packing.build(bins, packing.labels)
        cases += needs_fallback(inst, packing)
        assert_same_rewrites(inst, packing)
    assert cases >= 30


def halved_triangles(rng, count, den):
    """Triangles as in ``triangles``, over sizes with denominator den."""
    sizes = [F(rng.randrange(den // 2 + 1, den, 2), den) for _ in range(3 * count)]
    bins = []
    for t in range(count):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        for u, v in ((a, b), (b, c), (c, a)):
            bins.append([(u, sizes[u] / 2), (v, sizes[v] / 2)])
    return sizes, bins


@pytest.mark.parametrize("bits", [UNIT_BITS - 1, UNIT_BITS])
def test_matches_reference_when_halves_reach_the_unit_bound(bits):
    # Sizes over 2^(bits-1) have a unit within the bound; their halves need
    # 2^bits, which has bits + 1 bits: at UNIT_BITS - 1 the halves still fit
    # the integer unit, at UNIT_BITS only the Fraction fallback holds them.
    rng = random.Random(bits)
    inst, packing = shuffled(rng, *halved_triangles(rng, 6, 2 ** (bits - 1)))
    assert unit_sizes(inst.sizes)[0] == 2 ** (bits - 1)
    assert unit_cap(inst, packing) == (2**bits if bits < UNIT_BITS else 1)
    assert_same_rewrites(inst, packing)


def test_matches_reference_when_parts_do_not_divide_the_sizes_lcm():
    # Halves of twelfths, and a centre of size i/2 split in 2 * degree-ths:
    # the unit's capacity is a proper multiple of the sizes' lcm.
    rng = random.Random(12)
    for make in (lambda: triangles(rng, 8), lambda: stars(rng, 6)):
        for _ in range(6):
            inst, packing = shuffled(rng, *make())
            sizes_cap = unit_sizes(inst.sizes)[0]
            cap = unit_cap(inst, packing)
            assert cap != sizes_cap and cap % sizes_cap == 0
            assert_same_rewrites(inst, packing)


def size_class(size):
    """The item class of a ``size_type`` bracket: 1 is small, 2 is medium,
    3 or more is large."""
    bracket = size_type(size)
    if bracket == 1:
        return ref.ItemClass.SMALL
    if bracket == 2:
        return ref.ItemClass.MEDIUM
    return ref.ItemClass.LARGE


_BOUNDARY = st.builds(
    lambda i, eps: F(i, 2) + eps,
    st.integers(1, 60),
    st.sampled_from([F(0), F(1, 10**30), -F(1, 10**30), F(1, 3), -F(1, 7)]),
).filter(lambda s: s > 0)


@given(
    size=st.one_of(
        _BOUNDARY,
        st.fractions(min_value=F(1, 10**6), max_value=F(40)),
        st.builds(F, st.integers(1, 10**40), st.integers(1, 10**40)),
    )
)
def test_integer_classes_match_fraction_forms(size):
    assert size_type(size) == ref.size_type(size)
    assert size_class(size) is ref.classify(size)


def test_integer_classes_match_fraction_forms_at_every_half():
    tiny = F(1, 10**40)
    for i in range(1, 401):
        for size in (F(i, 2), F(i, 2) - tiny, F(i, 2) + tiny):
            assert size_type(size) == ref.size_type(size), size
            assert size_class(size) is ref.classify(size), size
