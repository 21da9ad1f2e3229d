import random
from fractions import Fraction as F

import pytest

from splitpack import (
    Instance,
    exact_opt,
    feasible_in,
    gen_a75_worst,
    gen_from_3partition,
    gen_nf_worst,
    gen_random,
    next_fit,
    three_partition_brute,
    validate_packing,
)
from splitpack.core import size_type


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_nf_worst_family_grid(k, m):
    inst, certified = gen_nf_worst(k, m)
    assert inst.sizes[0] == m * k - 1
    assert len(inst.sizes) == 1 + m * (k - 1) * k
    assert validate_packing(inst, certified) == []
    assert certified.n_bins == m * k
    packing, _ = next_fit(inst)
    assert packing.n_bins == m * (2 * k - 1) - 1


def test_nf_worst_smallest_case():
    inst, certified = gen_nf_worst(2, 1)
    assert inst.sizes == (F(1), F(1, 2), F(1, 2))
    assert certified.n_bins == 2


def test_nf_worst_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_nf_worst(1, 1)
    with pytest.raises(ValueError):
        gen_nf_worst(2, 0)


def test_a75_worst_composition():
    inst, certified = gen_a75_worst(10)
    sizes = inst.sizes
    assert sizes.count(F(1, 5)) == 40
    assert sizes.count(F(9, 10)) == 20
    assert sizes.count(F(4, 5)) == 30
    assert validate_packing(inst, certified) == []
    assert certified.n_bins == 50
    # the certificate is tight: total size equals the bin count
    assert sum(sizes, F(0)) == 50


def test_a75_worst_classes_from_five():
    inst, _ = gen_a75_worst(5)
    # size_type brackets: 1 is small, 2 is medium, 3 or more is large
    assert {size_type(s) for s in inst.sizes} == {1, 2}


def test_a75_worst_rejects_small_n():
    with pytest.raises(ValueError):
        gen_a75_worst(2)


def test_reduction_sizes_k3():
    inst = gen_from_3partition([7, 7, 6, 7, 7, 6], 20, 3)
    assert inst.sizes == (
        F(7, 20),
        F(7, 20),
        F(3, 10),
        F(7, 20),
        F(7, 20),
        F(3, 10),
    )
    assert sum(inst.sizes, F(0)) == 2


def test_reduction_sizes_k4_padding():
    inst = gen_from_3partition([7, 7, 6, 7, 7, 6], 20, 4)
    padding = [s for s in inst.sizes if s == F(11, 12)]
    adapted = [s for s in inst.sizes if s != F(11, 12)]
    assert len(padding) == 2 and len(adapted) == 6
    assert sum(inst.sizes, F(0)) == 2


def test_reduction_total_is_group_count():
    for k in (3, 4, 5):
        inst = gen_from_3partition([7, 7, 6, 7, 7, 6], 20, k)
        assert sum(inst.sizes, F(0)) == 2


def test_reduction_rejects_bad_sum():
    with pytest.raises(ValueError):
        gen_from_3partition([9, 9, 9, 9, 9, 9], 20, 3)


def test_reduction_rejects_boundary_values():
    # 5 sits on the open boundary B/4 and must be rejected
    with pytest.raises(ValueError) as err:
        gen_from_3partition([6, 6, 8, 9, 6, 5], 20, 3)
    assert "number 5" in str(err.value)


def test_three_partition_brute_cases():
    assert three_partition_brute([7, 7, 6, 7, 7, 6], 20)
    assert three_partition_brute([7, 7, 6], 20)
    assert not three_partition_brute([7, 7, 7, 9, 9, 9], 24)


def test_three_partition_brute_cap():
    with pytest.raises(ValueError):
        three_partition_brute(list(range(1, 16)), 24)


def test_reduction_equivalence_small_corpus():
    cases = [
        ([7, 7, 6, 7, 7, 6], 20),
        ([7, 8, 9, 7, 8, 9], 24),
        ([7, 7, 7, 9, 9, 9], 24),
        ([11, 7, 7, 9, 9, 7], 25),
    ]
    for numbers, target in cases:
        expected = three_partition_brute(numbers, target)
        for k in (3, 4):
            inst = gen_from_3partition(numbers, target, k)
            witness = feasible_in(inst, 2)
            assert (witness is not None) == expected


def test_gen_random_deterministic():
    a = gen_random(6, 2, "mixed", seed=99)
    b = gen_random(6, 2, "mixed", seed=99)
    assert a == b
    assert gen_random(0, 2, "uniform", seed=1).n == 0


def test_gen_random_ranges():
    rng = random.Random(0)
    for dist, limit in (("uniform", 1), ("mixed", 2), ("heavy", 3)):
        for _ in range(40):
            inst = gen_random(rng.randint(0, 8), 3, dist, seed=rng.randrange(2**30))
            assert all(0 < s <= limit for s in inst.sizes)


def test_gen_random_rejects_unknown_distribution():
    with pytest.raises(ValueError):
        gen_random(3, 2, "exotic", seed=0)


def test_gen_random_smoke_exact():
    inst = gen_random(6, 2, "mixed", seed=1)
    opt, witness = exact_opt(inst)
    assert validate_packing(inst, witness) == []
    assert opt >= 1
