import hashlib
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from splitpack import (
    Instance,
    Packing,
    algo75,
    core,
    exact,
    exact_opt,
    gen_a75_worst,
    gen_random,
    pack_75,
    validate_packing,
)
from splitpack.algo75 import (
    SEVEN_BIN_SEARCH,
    TWO_BIN_REPACK,
    StepLabel,
    _main_pass,
    _trailing_group,
    large_into_smalls,
)


def test_rejects_other_k():
    with pytest.raises(ValueError):
        pack_75(Instance(k=3, sizes=(F(1, 2),)))


def test_single_fit_pair():
    report = pack_75(Instance(k=2, sizes=(F(3, 10), F(3, 5))))
    assert report.n_bins == 1
    assert report.label_counts == {StepLabel.S2A: 1}


def test_split_step_example():
    inst = Instance(k=2, sizes=(F(9, 10), F(4, 5), F(3, 20), F(1, 5), F(3, 10)))
    report = pack_75(inst)
    assert report.n_bins == 3
    assert report.label_counts == {StepLabel.S2B: 2, StepLabel.S2A: 1}
    assert validate_packing(inst, report.packing) == []
    opt, _ = exact_opt(inst)
    assert opt == 3


@pytest.mark.parametrize(
    "sizes, parts",
    [
        ((F(9, 10), F(3, 10), F(1, 5)), (F(7, 10), F(1, 5))),
        ((F(1), F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
        ((F(3, 5), F(1, 2), F(1, 2)), (F(1, 2), F(1, 10))),
    ],
)
def test_split_step_parts(sizes, parts):
    # item 0, the medium, does not fit beside the smallest small: it fills
    # the largest small's bin exactly and the rest goes beside the other
    inst = Instance(k=2, sizes=sizes)
    report = pack_75(inst)
    assert report.label_counts == {StepLabel.S2B: 2}
    first, second = report.packing.bins
    assert (dict(first)[0], dict(second)[0]) == parts
    assert sum(p for _, p in first) == 1
    assert validate_packing(inst, report.packing) == []


def test_lone_small_beside_the_last_medium_is_reclassified():
    # no later medium can take the small, so it joins the next-fit stream
    inst = Instance(k=2, sizes=(F(9, 10), F(1, 4)))
    report = pack_75(inst)
    assert report.reclassified_small
    assert report.label_counts == {StepLabel.S3: 2}
    assert validate_packing(inst, report.packing) == []


def test_reclassified_small_joins_medium_stream():
    inst = Instance(k=2, sizes=(F(9, 10), F(9, 10), F(1, 4)))
    report = pack_75(inst)
    assert report.reclassified_small
    assert validate_packing(inst, report.packing) == []
    # one medium fills bin one; the next shares with the one-time small
    assert report.label_counts == {StepLabel.S3: 3}


def test_lone_small_kept_for_later_medium():
    # the first medium cannot take the small but a later one can
    inst = Instance(k=2, sizes=(F(9, 10), F(7, 10), F(1, 4)))
    report = pack_75(inst)
    assert not report.reclassified_small
    assert report.label_counts[StepLabel.S2A] == 1


def test_no_smalls_means_no_reclassification():
    inst = Instance(k=2, sizes=(F(9, 10), F(9, 10)))
    report = pack_75(inst)
    assert not report.reclassified_small
    assert report.label_counts == {StepLabel.S3: 2}


def test_large_into_smalls_exact_cover():
    bins, labels = large_into_smalls(
        [(0, F(1, 4)), (1, F(1, 4))], [(2, F(3, 2))]
    )
    assert labels == [StepLabel.S4, StepLabel.S4]
    assert bins == [
        [(0, F(1, 4)), (2, F(3, 4))],
        [(1, F(1, 4)), (2, F(3, 4))],
    ]


def test_large_into_smalls_runs_out_of_seeds():
    bins, labels = large_into_smalls([(0, F(1, 4))], [(1, F(5, 2))])
    assert labels == [StepLabel.S4, StepLabel.S6, StepLabel.S6]
    assert bins == [
        [(0, F(1, 4)), (1, F(3, 4))],
        [(1, F(1))],
        [(1, F(3, 4))],
    ]


def test_large_into_smalls_pairs_leftovers():
    bins, labels = large_into_smalls([(0, F(1, 4)), (1, F(1, 4))], [])
    assert labels == [StepLabel.S5]
    assert bins == [[(0, F(1, 4)), (1, F(1, 4))]]


def test_step5_leaves_at_most_one_single_small():
    rng = random.Random(31)
    for _ in range(120):
        inst = gen_random(rng.randint(1, 7), 2, "mixed", seed=rng.randrange(2**30))
        report = pack_75(inst)
        singles = [
            entries
            for entries, label in zip(report.packing.bins, report.packing.labels)
            if label in (StepLabel.S4, StepLabel.S5) and len(entries) == 1
        ]
        assert len(singles) <= 1


def test_s2b_bins_come_in_even_pairs_with_dispatch_bound():
    rng = random.Random(41)
    for _ in range(150):
        inst = gen_random(rng.randint(1, 7), 2, "mixed", seed=rng.randrange(2**30))
        report = pack_75(inst)
        assert validate_packing(inst, report.packing) == []
        s2b = report.label_counts.get(StepLabel.S2B, 0)
        assert s2b % 2 == 0
        # each split medium exceeded capacity beside the pair's larger small
        pairs = [
            (entries, next_entries)
            for (entries, label), (next_entries, next_label) in zip(
                zip(report.packing.bins, report.packing.labels),
                list(zip(report.packing.bins, report.packing.labels))[1:],
            )
            if label == StepLabel.S2B and next_label == StepLabel.S2B
        ]
        for first, second in pairs[::1]:
            shared = {i for i, _ in first} & {i for i, _ in second}
            if not shared:
                continue
            (medium,) = shared
            small_parts = [
                inst.sizes[i] for i, _ in first + second if i != medium
            ]
            assert inst.sizes[medium] + max(small_parts) > 1


def test_two_bin_repack_success():
    inst = Instance(k=2, sizes=(F(3, 5), F(1, 5), F(6, 5)))
    report = pack_75(inst)
    assert report.fallback_triggered == TWO_BIN_REPACK
    assert report.n_bins == 2
    assert report.label_counts == {StepLabel.REPACKED: 2}
    assert validate_packing(inst, report.packing) == []


def test_two_bin_repack_infeasible_keeps_packing():
    # the prescribed two-bin layout overflows, so the result stays put
    inst = Instance(k=2, sizes=(F(3, 5), F(2, 5), F(9, 5)))
    plain, _, _ = _main_pass(1, inst.sizes)
    report = pack_75(inst)
    assert report.fallback_triggered == TWO_BIN_REPACK
    assert report.n_bins == len(plain)
    opt, _ = exact_opt(inst)
    assert report.n_bins <= math.ceil(F(7, 5) * opt)


def test_two_bin_repack_requires_single_large():
    inst = Instance(k=2, sizes=(F(3, 5), F(1, 5), F(6, 5), F(6, 5)))
    report = pack_75(inst)
    assert report.fallback_triggered != TWO_BIN_REPACK


SEVEN_YES = (F(1, 50),) * 5 + (F(99, 100),) * 2 + (F(11, 20), F(401, 100))
SEVEN_NO = (F(1, 50),) * 5 + (F(99, 100),) * 2 + (F(19, 20), F(401, 100))


def test_seven_bin_search_pattern():
    inst = Instance(k=2, sizes=SEVEN_YES)
    plain, labels, _ = _main_pass(1, inst.sizes)
    assert len(plain) == 10
    assert Counter(labels) == {
        StepLabel.S2B: 4,
        StepLabel.S2A: 1,
        StepLabel.S3: 5,
    }
    report = pack_75(inst)
    assert report.fallback_triggered == SEVEN_BIN_SEARCH
    assert report.n_bins == 7
    assert validate_packing(inst, report.packing) == []


def test_seven_bin_search_infeasible_keeps_packing():
    inst = Instance(k=2, sizes=SEVEN_NO)
    report = pack_75(inst)
    assert report.fallback_triggered == SEVEN_BIN_SEARCH
    assert report.n_bins == 10


def test_seven_bin_search_out_of_budget_keeps_packing(monkeypatch):
    # a search that runs out of its budget finds no witness: the pattern is
    # still reported, and the plain ten bins are kept
    inst = Instance(k=2, sizes=SEVEN_YES)

    def out_of_budget(*args):
        raise exact.BudgetExceeded("structure search exceeded 0 nodes")

    monkeypatch.setattr(exact, "feasible_in", out_of_budget)
    report = pack_75(inst)
    assert report.fallback_triggered == SEVEN_BIN_SEARCH
    assert report.n_bins == 10
    assert report.packing.bins == Packing.build(_main_pass(1, inst.sizes)[0]).bins


def test_seven_bin_search_ignores_budget_env(monkeypatch):
    inst = Instance(k=2, sizes=SEVEN_YES)
    monkeypatch.delenv("SPLITPACK_BUDGET", raising=False)
    unset = pack_75(inst)
    assert unset.n_bins == 7
    for spec in ("structures=1", "items=3"):
        monkeypatch.setenv("SPLITPACK_BUDGET", spec)
        assert pack_75(inst) == unset, spec


def test_seven_bin_witness_bytes():
    # the oracle's level-7 witness, which pack_75 adopts verbatim, and which
    # exact_opt finds at OPT = 7 too: the bytes the benchmark's
    # hazard-seven-bin digest also pins
    inst = Instance(k=2, sizes=SEVEN_YES)
    budget = exact.SearchBudget(max_items=9)
    small, large = F(1, 50), F(49, 50)
    want = (
        *(((i, small), (8, large)) for i in range(4)),
        ((4, F(1, 100)), (5, F(99, 100))),
        ((4, F(1, 100)), (6, F(99, 100))),
        ((7, F(11, 20)), (8, F(9, 100))),
    )
    assert exact.feasible_in(inst, 7, budget).bins == want
    assert exact_opt(inst, budget)[1].bins == want
    assert pack_75(inst).packing.bins == want


def test_seven_bin_search_not_triggered_elsewhere():
    inst = Instance(k=2, sizes=(F(3, 4), F(1, 4)))
    report = pack_75(inst)
    assert report.fallback_triggered is None


def test_one_check_per_run(monkeypatch):
    # one checked_packing, one bin_violations in the unit, certifies every
    # run; an adopted seven-bin witness is checked there too, at capacity 1,
    # and nothing is validated again in Fractions
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for module, name in (
        (algo75, "checked_packing"),
        (core, "bin_violations"),
        (core, "validate_packing"),
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(Packing, "build", staticmethod(counting("build", Packing.build)))
    plain = [gen_random(n, 2, "mixed", n) for n in range(0, 40, 3)]
    two_bin = [(F(3, 5), F(1, 5), F(6, 5)), (F(3, 5), F(2, 5), F(9, 5))]
    for sizes in [inst.sizes for inst in plain] + two_bin:
        calls.clear()
        pack_75(Instance(k=2, sizes=sizes))
        assert calls == {"checked_packing": 1, "bin_violations": 1}, sizes
    # the seven-bin search adds the oracle's one check of its answer: of the
    # witness it finds, and of nothing when it finds none
    for sizes, n_bins, checks in ((SEVEN_NO, 10, 1), (SEVEN_YES, 7, 2)):
        calls.clear()
        report = pack_75(Instance(k=2, sizes=sizes))
        assert report.fallback_triggered == SEVEN_BIN_SEARCH
        assert report.n_bins == n_bins
        assert calls["checked_packing"] == 1 and calls["validate_packing"] == 0
        assert calls["bin_violations"] == checks, sizes


def test_worst_family_counts():
    inst, certified = gen_a75_worst(10)
    report = pack_75(inst)
    assert report.n_bins == 64
    assert report.label_counts == {StepLabel.S2B: 40, StepLabel.S3: 24}
    assert validate_packing(inst, certified) == []
    assert certified.n_bins == 50


def test_ratio_against_oracle():
    rng = random.Random(53)
    for _ in range(150):
        inst = gen_random(rng.randint(0, 6), 2, "mixed", seed=rng.randrange(2**30))
        report = pack_75(inst)
        assert validate_packing(inst, report.packing) == []
        opt, _ = exact_opt(inst)
        if opt:
            assert report.n_bins <= math.ceil(F(7, 5) * opt)


def test_report_counts_sum_to_bins():
    rng = random.Random(61)
    for _ in range(80):
        inst = gen_random(rng.randint(0, 7), 2, "mixed", seed=rng.randrange(2**30))
        report = pack_75(inst)
        assert sum(report.label_counts.values()) == report.n_bins


def test_empty_instance():
    report = pack_75(Instance(k=2, sizes=()))
    assert report.n_bins == 0
    assert report.label_counts == {}


# Recorded at the commit before pack_75's leftovers went through the shared
# next-fit kernel; seed 20261018. "mixed" ends in an S6 group, "uniform" in S3.
@pytest.mark.parametrize(
    "dist, n_bins, digest",
    [
        ("mixed", 7287, "0914dd7128d99865628e606f971f6e815e832be60a7afa599e4513831088f5f0"),
        ("uniform", 7086, "1a972cfcdc0e15e008f6da43e6f3c793c0e22ca0662fcb3d874df53f8cf6c677"),
    ],
    ids=["mixed", "uniform"],
)
def test_pack_75_golden_10k_items(dist, n_bins, digest):
    packing = pack_75(gen_random(10_000, 2, dist, 20261018)).packing
    assert packing.n_bins == n_bins
    key = (packing.bins, packing.labels)
    assert hashlib.sha256(repr(key).encode()).hexdigest() == digest


def _trailing_group_by_item_sets(bins, labels):
    """The trailing group as it was first written: the last run of S3/S6
    bins, wherever it ends, whose consecutive bins share any item."""
    nf_bins = [b for b, lab in enumerate(labels) if lab in (StepLabel.S3, StepLabel.S6)]
    if not nf_bins:
        return []
    group = [nf_bins[-1]]
    for b in reversed(nf_bins[:-1]):
        nxt = group[0]
        if nxt - b == 1 and {i for i, _ in bins[b]} & {i for i, _ in bins[nxt]}:
            group.insert(0, b)
        else:
            break
    return group


def test_trailing_group_matches_item_set_walk():
    lengths = Counter()
    for dist in ("uniform", "mixed", "heavy"):
        for seed in range(670):
            inst = gen_random(seed % 14 + 1, 2, dist, seed)
            bins, labels, _ = _main_pass(1, inst.sizes)
            got = _trailing_group(bins, labels)
            assert got == _trailing_group_by_item_sets(bins, labels), (dist, seed)
            lengths[len(got)] += 1
    # no group, a single bin, and the lengths the two repairs look for
    assert all(lengths[size] > 50 for size in (0, 1, 2, 5)), lengths
