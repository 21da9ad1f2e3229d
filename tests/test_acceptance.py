"""Acceptance suite: every criterion at its stated tolerance, one printed
pass line per criterion (run with -s to watch them)."""

import math
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from splitpack import (
    BudgetExceeded,
    Instance,
    SearchBudget,
    check_block_inequality,
    exact_opt,
    feasible_in,
    gen_a75_worst,
    gen_from_3partition,
    gen_nf_worst,
    gen_random,
    lower_bounds,
    next_fit,
    normalization_violations,
    normalize,
    pack_75,
    three_partition_brute,
    validate_packing,
)
from splitpack.algo75 import SEVEN_BIN_SEARCH, TWO_BIN_REPACK, StepLabel, _main_pass


def _report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def _corpus(k: int, max_n: int, dist: str, trials: int, seed: int):
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        n = rng.randint(0, max_n)
        inst = gen_random(n, k, dist, seed=rng.randrange(2**30))
        out.append(inst)
    return out


def _solved(instances):
    start = time.monotonic()
    rows = [(inst, *exact_opt(inst)) for inst in instances]
    return rows, time.monotonic() - start


@pytest.fixture(scope="module")
def corpus_k2(request):
    return _solved(_corpus(2, 6, "uniform", 1000, seed=20260809))


@pytest.fixture(scope="module")
def corpus_k3(request):
    return _solved(_corpus(3, 6, "uniform", 1000, seed=20260810))


@pytest.fixture(scope="module")
def corpus_mixed(request):
    return _solved(_corpus(2, 7, "mixed", 1000, seed=20260811))


def test_criterion_1_next_fit_worst_family():
    start = time.monotonic()
    for k in (2, 3, 4, 5):
        for m in (1, 2, 3):
            inst, certified = gen_nf_worst(k, m)
            packing, trace = next_fit(inst)
            assert packing.n_bins == m * (2 * k - 1) - 1
            assert validate_packing(inst, certified) == []
            assert certified.n_bins == m * k
            assert check_block_inequality(inst, trace)
    # ratio along k=2: strictly increasing toward 3/2; the sequence passes
    # 4/3 at three big blocks and 17/12 at six
    ratios = []
    for m in (1, 2, 3, 6, 40):
        inst, certified = gen_nf_worst(2, m)
        packing, _ = next_fit(inst)
        ratios.append(F(packing.n_bins, certified.n_bins))
    assert ratios[2] == F(4, 3)
    assert ratios[3] == F(17, 12)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > F(3, 2) - F(1, 50)
    assert all(r < F(3, 2) for r in ratios)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, target < 1s"
    _report(
        "criterion 1",
        "next-fit bins match M(2k-1)-1 on the whole grid, certificates "
        f"validate, k=2 ratios rise {ratios[0]}..{ratios[-1]} toward 3/2 "
        f"({elapsed:.2f}s)",
    )


def test_criterion_2_next_fit_ratio_bound(corpus_k2, corpus_k3):
    start = time.monotonic()
    checked = nonzero = 0
    for k, (corpus, _) in ((2, corpus_k2), (3, corpus_k3)):
        bound = 2 - F(1, k)
        for inst, opt, _ in corpus:
            packing, _ = next_fit(inst)
            # exact rational comparison, zero tolerance
            assert F(packing.n_bins) <= bound * opt, (k, inst.sizes)
            checked += 1
            nonzero += int(opt > 0)
    elapsed = time.monotonic() - start + corpus_k2[1] + corpus_k3[1]
    assert elapsed < 300, f"criterion 2 took {elapsed:.1f}s, target < 5 min"
    _report(
        "criterion 2",
        f"next-fit within 2-1/k of the optimum on {checked} instances "
        f"({nonzero} with a nonzero optimum), exact comparison "
        f"({elapsed:.1f}s incl. oracle)",
    )


def test_criterion_3_two_stage_ratio_bound(corpus_mixed):
    start = time.monotonic()
    checked = nonzero = 0
    for inst, opt, _ in corpus_mixed[0]:
        report = pack_75(inst)
        assert report.n_bins <= math.ceil(F(7, 5) * opt), inst.sizes
        checked += 1
        nonzero += int(opt > 0)
    elapsed = time.monotonic() - start + corpus_mixed[1]
    assert elapsed < 600, f"criterion 3 took {elapsed:.1f}s, target < 10 min"
    _report(
        "criterion 3",
        f"two-stage algorithm within ceil(7/5 opt) on {checked} instances "
        f"({nonzero} with a nonzero optimum) ({elapsed:.1f}s incl. oracle)",
    )


def test_criterion_4_bad_example_values():
    inst, certified = gen_a75_worst(10)
    report = pack_75(inst)
    assert report.n_bins == 64
    assert validate_packing(inst, certified) == []
    assert certified.n_bins == 50
    assert F(report.n_bins, certified.n_bins) == F(32, 25)  # 1.28
    inst, certified = gen_a75_worst(100)
    report = pack_75(inst)
    assert report.n_bins == 694
    assert certified.n_bins == 500
    ratio = F(report.n_bins, certified.n_bins)
    assert ratio == F(347, 250) and ratio < F(7, 5)  # 1.388
    _report(
        "criterion 4",
        "bad family yields 64 vs 50 bins (1.28) and 694 vs 500 (1.388)",
    )


def _reduction_corpus():
    cases = [
        ([7, 7, 6, 7, 7, 6], 20),
        ([7, 8, 9, 7, 8, 9], 24),
        ([7, 7, 7, 9, 9, 9], 24),
        ([6, 7, 7, 6, 7, 7], 20),
        ([11, 7, 7, 9, 9, 7], 25),
        ([8, 8, 8, 8, 8, 8], 24),
        ([9, 8, 7, 9, 8, 7], 24),
        ([10, 7, 7, 10, 7, 7], 24),
        ([6, 6, 8, 7, 7, 6], 20),
        ([9, 9, 7, 8, 8, 7], 24),
        ([6, 6, 6, 6, 7, 9], 20),
        ([9, 9, 9, 11, 11, 11], 30),
        ([11, 10, 9, 11, 10, 9], 30),
        ([11, 11, 8, 11, 11, 8], 30),
    ]
    rng = random.Random(77)
    while len(cases) < 22:
        target = rng.choice([20, 24, 28])
        lo, hi = target // 4 + 1, (target - 1) // 2
        numbers = [rng.randint(lo, hi) for _ in range(5)]
        last = 2 * target - sum(numbers)
        if lo <= last <= hi:
            cases.append((numbers + [last], target))
    return cases


def test_criterion_5_reduction_equivalence():
    agreements = 0
    yes_cases = 0
    for numbers, target in _reduction_corpus():
        expected = three_partition_brute(numbers, target)
        yes_cases += int(expected)
        for k in (3, 4):
            inst = gen_from_3partition(numbers, target, k)
            witness = feasible_in(inst, 2)
            assert (witness is not None) == expected, (numbers, target, k)
            if witness is not None:
                assert validate_packing(inst, witness) == []
            agreements += 1
    assert agreements >= 40 and 0 < yes_cases
    _report(
        "criterion 5",
        f"partition brute force and the packing decision agree on "
        f"{agreements} instance/k pairs",
    )


def test_criterion_5_three_triples():
    # m = 3 (k = 4: 12 items, k = 5: 15 items): the twin rule lets the
    # oracle decide these within the default node budget
    rng = random.Random(5)
    answers = []
    for k in (4, 5):
        for _ in range(4):
            target = rng.choice([20, 24, 28])
            lo, hi = target // 4 + 1, (target - 1) // 2
            while True:
                numbers = [rng.randint(lo, hi) for _ in range(8)]
                last = 3 * target - sum(numbers)
                if lo <= last <= hi:
                    break
            numbers.append(last)
            inst = gen_from_3partition(numbers, target, k)
            witness = feasible_in(inst, 3, SearchBudget(max_items=15))
            expected = three_partition_brute(numbers, target)
            assert (witness is not None) == expected, (numbers, target, k)
            if witness is not None:
                assert validate_packing(inst, witness) == [] and witness.n_bins == 3
            answers.append((k, expected))
    assert {(k, e) for k in (4, 5) for e in (True, False)} <= set(answers)
    _report(
        "criterion 5",
        f"partition brute force and the packing decision agree on "
        f"{len(answers)} three-triple instances for k = 4, 5",
    )


def test_criterion_6_lower_bounds_and_block_inequality(
    corpus_k2, corpus_k3, corpus_mixed
):
    solved = 0
    for corpus, _ in (corpus_k2, corpus_k3, corpus_mixed):
        for inst, opt, witness in corpus:
            assert lower_bounds(inst).best <= opt, inst.sizes
            assert validate_packing(inst, witness) == []
            _, trace = next_fit(inst)
            assert check_block_inequality(inst, trace), inst.sizes
            solved += 1
    # heavier instances exercise the inequality even when the oracle passes
    rng = random.Random(99)
    extra = 0
    for _ in range(300):
        k = rng.choice([2, 3, 4])
        inst = gen_random(rng.randint(0, 8), k, "heavy", seed=rng.randrange(2**30))
        _, trace = next_fit(inst)
        assert check_block_inequality(inst, trace), inst.sizes
        try:
            opt, _ = exact_opt(inst)
        except BudgetExceeded:
            continue
        assert lower_bounds(inst).best <= opt
        extra += 1
    _report(
        "criterion 6",
        f"bounds below the optimum and block inequality hold on "
        f"{solved + extra} instances, zero violations",
    )


def test_criterion_7_normalization_suite(corpus_k2):
    checked = 0
    rng = random.Random(55)
    packings = []
    for inst, opt, witness in corpus_k2[0]:
        if inst.n == 0:
            continue
        packings.append((inst, witness))
        if len(packings) >= 260:
            break
    for inst, _, _ in corpus_k2[0]:
        if inst.n == 0:
            continue
        packing, _ = next_fit(inst)
        packings.append((inst, packing))
        if len(packings) >= 520:
            break
    # perturbed constructions: cycles with shared slack
    for _ in range(30):
        t = rng.randint(3, 6)
        share = F(1, rng.randint(3, 6))
        inst = Instance(k=2, sizes=(2 * share,) * t)
        cycle = [
            [(i, share), ((i + 1) % t, share)] for i in range(t)
        ]
        from splitpack import Packing

        packings.append((inst, Packing.build(cycle)))
    assert len(packings) >= 500
    for inst, packing in packings:
        out = normalize(inst, packing)
        assert normalization_violations(inst, out) == [], inst.sizes
        assert out.n_bins <= packing.n_bins
        assert normalize(inst, out).key() == out.key(), inst.sizes
        checked += 1
    _report(
        "criterion 7",
        f"normalization valid, non-increasing, structurally clean and "
        f"idempotent on {checked} packings",
    )


def test_criterion_8_repair_passes():
    # prescribed two-bin repack exists: three bins collapse to two
    inst = Instance(k=2, sizes=(F(3, 5), F(1, 5), F(6, 5)))
    before, _, _ = _main_pass(1, inst.sizes)
    after = pack_75(inst)
    assert len(before) == 3 and after.n_bins == 2
    assert after.fallback_triggered == TWO_BIN_REPACK
    # trigger matches but the layout overflows: never worse
    inst = Instance(k=2, sizes=(F(3, 5), F(2, 5), F(9, 5)))
    before, _, _ = _main_pass(1, inst.sizes)
    after = pack_75(inst)
    assert after.fallback_triggered == TWO_BIN_REPACK
    assert after.n_bins == len(before)
    # pattern not matched: untouched
    inst = Instance(k=2, sizes=(F(3, 5), F(1, 5), F(6, 5), F(6, 5)))
    assert pack_75(inst).fallback_triggered is None

    seven_yes = Instance(
        k=2, sizes=(F(1, 50),) * 5 + (F(99, 100),) * 2 + (F(11, 20), F(401, 100))
    )
    before, labels, _ = _main_pass(1, seven_yes.sizes)
    assert Counter(labels) == {
        StepLabel.S2B: 4,
        StepLabel.S2A: 1,
        StepLabel.S3: 5,
    }
    after = pack_75(seven_yes)
    assert after.fallback_triggered == SEVEN_BIN_SEARCH
    assert after.n_bins == 7 < len(before)
    assert validate_packing(seven_yes, after.packing) == []

    seven_no = Instance(
        k=2, sizes=(F(1, 50),) * 5 + (F(99, 100),) * 2 + (F(19, 20), F(401, 100))
    )
    before, _, _ = _main_pass(1, seven_no.sizes)
    after = pack_75(seven_no)
    assert after.fallback_triggered == SEVEN_BIN_SEARCH
    assert after.n_bins == len(before) == 10
    _report(
        "criterion 8",
        "two-bin repack collapses 3 bins to 2 when the layout exists and "
        "both repairs never increase the bin count",
    )
