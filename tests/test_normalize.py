import gc
import hashlib
import importlib
import random
from fractions import Fraction as F

import pytest

from splitpack import (
    Instance,
    Packing,
    bound_degrees,
    exact_opt,
    gen_random,
    next_fit,
    normalization_violations,
    normalize,
    remove_cycles,
    smalls_to_leaves,
    validate_packing,
)
from splitpack.core import InternalError, is_acyclic, shared_bins


def members(packing):
    return [[item for item, _ in entries] for entries in packing.bins]


def is_forest(inst, packing):
    """True iff the two-item bins of a k = 2 packing form a forest."""
    return is_acyclic(inst.n, (ids for ids in members(packing) if len(ids) == 2))


def neighbor_counts(inst, packing):
    """Per item, the number of bins it shares with another item."""
    return [len(edges) for edges in shared_bins(inst.n, members(packing))]


def three_cycle():
    inst = Instance(k=2, sizes=(F(2, 3),) * 3)
    packing = Packing.build(
        [
            [(0, F(1, 3)), (1, F(1, 3))],
            [(1, F(1, 3)), (2, F(1, 3))],
            [(2, F(1, 3)), (0, F(1, 3))],
        ]
    )
    return inst, packing


def test_remove_cycles_merges_three_cycle():
    inst, packing = three_cycle()
    out = remove_cycles(inst, packing)
    assert out.n_bins == 2
    assert validate_packing(inst, out) == []
    assert is_forest(inst, out)
    # the two bins carry a whole item plus a half of the middle item
    assert sorted(sorted(p for _, p in b) for b in out.bins) == [
        [F(1, 3), F(2, 3)],
        [F(1, 3), F(2, 3)],
    ]


def test_remove_cycles_keeps_forest_untouched():
    inst = Instance(k=2, sizes=(F(1, 2), F(1, 2), F(1, 2)))
    packing = Packing.build([[(0, F(1, 2)), (1, F(1, 2))], [(2, F(1, 2))]])
    assert remove_cycles(inst, packing).key() == packing.key()


def test_remove_cycles_parallel_edge():
    inst = Instance(k=2, sizes=(F(3, 4), F(3, 4)))
    packing = Packing.build(
        [
            [(0, F(1, 2)), (1, F(1, 4))],
            [(0, F(1, 4)), (1, F(1, 2))],
        ]
    )
    out = remove_cycles(inst, packing)
    assert validate_packing(inst, out) == []
    assert is_forest(inst, out)
    assert out.n_bins <= 2


def test_smalls_to_leaves_slice_branch():
    # s split (1/5, 1/5) beside 7/10 and 3/5: trade a 1/5 slice of the
    # second neighbor into bin 1, the small consolidates in bin 2.
    inst = Instance(k=2, sizes=(F(2, 5), F(7, 10), F(3, 5)))
    packing = Packing.build(
        [[(0, F(1, 5)), (1, F(7, 10))], [(0, F(1, 5)), (2, F(3, 5))]]
    )
    out = smalls_to_leaves(inst, packing)
    assert out.n_bins == 2
    assert validate_packing(inst, out) == []
    assert neighbor_counts(inst, out)[0] == 1
    assert out.key() == (
        ((0, F(2, 5)), (2, F(2, 5))),
        ((1, F(7, 10)), (2, F(1, 5))),
    )


def test_smalls_to_leaves_move_branch():
    # second neighbor part is below s1: the s part moves outright and the
    # first bin keeps its occupant as a loop
    inst = Instance(k=2, sizes=(F(1, 2), F(3, 4), F(6, 5)))
    packing = Packing.build(
        [
            [(0, F(1, 4)), (1, F(3, 4))],
            [(0, F(1, 4)), (2, F(1, 5))],
            [(2, F(1))],
        ]
    )
    out = smalls_to_leaves(inst, packing)
    assert validate_packing(inst, out) == []
    assert neighbor_counts(inst, out)[0] == 1
    assert out.n_bins == 3
    assert ((0, F(1, 2)), (2, F(1, 5))) in out.bins


def test_smalls_to_leaves_pair_of_smalls():
    # two smalls sharing an edge collapse into their shared bin
    inst = Instance(k=2, sizes=(F(2, 5), F(2, 5), F(4, 5), F(4, 5)))
    packing = Packing.build(
        [
            [(0, F(1, 5)), (1, F(1, 5))],
            [(0, F(1, 5)), (2, F(4, 5))],
            [(1, F(1, 5)), (3, F(4, 5))],
        ]
    )
    out = smalls_to_leaves(inst, packing)
    assert validate_packing(inst, out) == []
    counts = neighbor_counts(inst, out)
    assert counts[0] <= 1 and counts[1] <= 1
    assert out.n_bins == 3


def test_smalls_already_leaves_unchanged():
    inst = Instance(k=2, sizes=(F(1, 4), F(3, 4)))
    packing = Packing.build([[(0, F(1, 4)), (1, F(3, 4))]])
    assert smalls_to_leaves(inst, packing).key() == packing.key()


def test_bound_degrees_merges_three_neighbors():
    inst = Instance(k=2, sizes=(F(1), F(4, 5), F(7, 10), F(1, 2)))
    packing = Packing.build(
        [
            [(0, F(1, 5)), (1, F(4, 5))],
            [(0, F(3, 10)), (2, F(7, 10))],
            [(0, F(1, 2)), (3, F(1, 2))],
        ]
    )
    out = bound_degrees(inst, packing)
    assert validate_packing(inst, out) == []
    assert out.n_bins == 3
    assert neighbor_counts(inst, out)[0] == 2
    assert out.key() == (
        ((0, F(1, 2)), (1, F(1, 2))),
        ((0, F(1, 2)), (3, F(1, 2))),
        ((1, F(3, 10)), (2, F(7, 10))),
    )


def test_bound_degrees_within_bound_unchanged():
    # an item in (1, 3/2] may keep three neighbors
    inst = Instance(k=2, sizes=(F(5, 4), F(1, 2), F(1, 2), F(1, 2)))
    packing = Packing.build(
        [
            [(0, F(1, 2)), (1, F(1, 2))],
            [(0, F(1, 2)), (2, F(1, 2))],
            [(0, F(1, 4)), (3, F(1, 2))],
        ]
    )
    assert bound_degrees(inst, packing).key() == packing.key()


def test_normalize_requires_k2():
    inst = Instance(k=3, sizes=(F(1, 2),))
    packing = Packing.build([[(0, F(1, 2))]])
    with pytest.raises(ValueError):
        normalize(inst, packing)


def test_normalize_empty_and_loops():
    inst = Instance(k=2, sizes=())
    assert normalize(inst, Packing((), ())).n_bins == 0
    inst = Instance(k=2, sizes=(F(5, 2),))
    packing = Packing.build([[(0, F(1))], [(0, F(1))], [(0, F(1, 2))]])
    out = normalize(inst, packing)
    assert out.key() == packing.key()


def test_normalize_random_corpus():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 6)
        inst = gen_random(n, 2, "mixed", seed=rng.randrange(2**30))
        packing, _ = next_fit(inst)
        out = normalize(inst, packing)
        assert normalization_violations(inst, out) == []
        assert out.n_bins <= packing.n_bins
        again = normalize(inst, out)
        assert again.key() == out.key()


def test_normalize_keeps_optimal_bin_count():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 6)
        inst = gen_random(n, 2, "uniform", seed=rng.randrange(2**30))
        opt, witness = exact_opt(inst)
        out = normalize(inst, witness)
        assert normalization_violations(inst, out) == []
        assert out.n_bins == opt


def test_normalize_golden_10k_items():
    # Output recorded with the original scan-and-restart rewrites (kept in
    # reference_normalize); any change in choice order changes the hash.
    inst = gen_random(10_000, 2, "mixed", seed=20261017)
    packing, _ = next_fit(inst)
    out = normalize(inst, packing)
    assert out.n_bins == 7986
    assert hashlib.sha256(repr(out.key()).encode()).hexdigest() == (
        "7d972a423c235d67a8f405e516e9e29f7d74d13ebf73ae6e10889ab2da813a4f"
    )
    assert normalization_violations(inst, out) == []


def test_normalization_violations_of_an_invalid_packing_are_its_violations():
    inst = Instance(k=2, sizes=(F(1, 2), F(3, 4), F(1, 3)))
    packing = Packing.build(
        [
            [(0, F(1, 2)), (1, F(1, 2))],
            [(1, F(1, 4)), (5, F(1, 3))],
            [(0, F(1, 4)), (2, F(1, 3)), (1, F(0))],
        ]
    )
    expected = [
        "unknown item: bin 1 references item 5 not in instance",
        "positivity: bin 2 item 1 has non-positive part 0",
        "cardinality: bin 2 has 3 > k=2 parts",
        "coverage: item 0 covered 3/4 of 1/2",
    ]
    assert validate_packing(inst, packing) == expected
    assert normalization_violations(inst, packing) == expected


def test_normalization_violations_rejects_k3():
    inst = Instance(k=3, sizes=(F(1, 2), F(1, 2)))
    packing = Packing.build([[(0, F(1, 2)), (1, F(1, 2))]])
    with pytest.raises(ValueError, match="k=2 only, got k=3"):
        normalization_violations(inst, packing)


def test_exit_check_catches_a_broken_rewrite(monkeypatch):
    # The working copy is checked once, at the exit of normalize and of each
    # public step; a failure there is a bug.
    norm = importlib.import_module("splitpack.normalize")
    inst, packing = three_cycle()
    monkeypatch.setattr(norm, "_remove_cycles", lambda work: None)
    for rewrite in (remove_cycles, normalize):
        with pytest.raises(InternalError, match="left a cycle in the packing graph"):
            rewrite(inst, packing)
    monkeypatch.undo()

    def drop_last_bin(work):
        work.bins[-1] = None

    monkeypatch.setattr(norm, "_bound_degrees", drop_last_bin)
    with pytest.raises(
        InternalError,
        match=r"invalid packing \(bin capacity 3\): coverage: item 0 covered 0 of 2",
    ):
        normalize(inst, packing)


@pytest.mark.parametrize("collecting", [True, False])
def test_normalize_pauses_the_cyclic_collector(monkeypatch, collecting):
    # paused while the steps run, and on again afterwards only if it was on
    # before, also when normalize raises
    norm = importlib.import_module("splitpack.normalize")
    inst, packing = three_cycle()
    seen = []
    step = norm._remove_cycles

    def recording(work):
        seen.append(gc.isenabled())
        step(work)

    monkeypatch.setattr(norm, "_remove_cycles", recording)
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        normalize(inst, packing)
        assert seen == [False] and gc.isenabled() == collecting
        with pytest.raises(ValueError):
            normalize(inst, Packing.build([[(0, F(1, 2))]]))
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()
