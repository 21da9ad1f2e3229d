import argparse
import hashlib
import math
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_exact as ref
import reference_forest
from reference_core import scaled_sizes
from splitpack import (
    BudgetExceeded,
    Instance,
    Packing,
    SearchBudget,
    exact_opt,
    feasible_in,
    gen_from_3partition,
    gen_nf_worst,
    gen_random,
    lower_bounds,
    next_fit,
    pack_75,
    three_partition_brute,
    validate_packing,
)
from splitpack import cli, core, exact, generators, io
from splitpack.core import InternalError
from splitpack.exact import EXACT_LABEL, _ForestLoops, _realise, _upper_bound_packing


def _min_loops(scaled, cap, forest):
    """minloops(F): the forest's bins pushed into a ``_ForestLoops`` one by
    one; sizes are scaled by cap (integers, or the ``Fraction``s at cap 1).
    Zero means the bins alone hold every item."""
    trees = _ForestLoops(scaled, cap)
    for members in forest:
        trees.push(members)
    return trees.loops


def _realised_packings(monkeypatch, inst, forest):
    """``_realise`` on the forest, its non-empty bins as a checked
    ``Packing``, in the integer unit of ``core.unit_sizes`` and again with
    ``UNIT_BITS`` = 0, on the ``Fraction``s at cap 1."""
    packings = []
    for bits in (core.UNIT_BITS, 0):
        monkeypatch.setattr(core, "UNIT_BITS", bits)
        cap, scaled = core.unit_sizes(inst.sizes)
        raw = [entries for _, entries in _realise(scaled, cap, forest) if entries]
        packings.append(core.checked_packing(inst, raw, cap, scaled, [EXACT_LABEL] * len(raw)))
    return packings


def test_feasible_realizes_chain(monkeypatch):
    # rooted at item 0 (the lowest id of the largest size), item 2 pushes
    # 3/5 into bin (1, 2), item 1 fills its 2/5 of room and pushes 1/5 into
    # bin (0, 1), which item 0 fills
    inst = Instance(k=2, sizes=(F(3, 5),) * 3)
    for packing in _realised_packings(monkeypatch, inst, [(0, 1), (1, 2)]):
        assert validate_packing(inst, packing) == []
        assert packing.bins == (
            ((0, F(3, 5)), (1, F(1, 5))),
            ((1, F(2, 5)), (2, F(3, 5))),
        )


def test_feasible_rejects_undercoverage(monkeypatch):
    # an item of 5/2 alone needs three bins: the search rejects two, and the
    # realiser gives it whole loops first and the remainder last
    inst = Instance(k=2, sizes=(F(5, 2),))
    cap, scaled = core.unit_sizes(inst.sizes)
    search = exact._ForestSearch(2, cap, scaled, exact._Counter(10))
    assert search.level(2) is None and len(search.level(3)) == 3
    for packing in _realised_packings(monkeypatch, inst, []):
        assert packing.bins == (((0, F(1)),), ((0, F(1)),), ((0, F(1, 2)),))


def test_feasible_empty(monkeypatch):
    inst = Instance(k=2, sizes=())
    for packing in _realised_packings(monkeypatch, inst, []):
        assert packing.n_bins == 0


def test_flow_network_caps(monkeypatch):
    # a two-item bin plus a loop: the bin holds both items up to its
    # capacity, and the root, item 1, keeps the rest in a loop
    inst = Instance(k=2, sizes=(F(1, 2), F(3, 4)))
    for packing in _realised_packings(monkeypatch, inst, [(0, 1)]):
        assert validate_packing(inst, packing) == []
        assert packing.bins == (((0, F(1, 2)), (1, F(1, 2))), ((1, F(1, 4)),))
        assert packing.coverage() == {0: F(1, 2), 1: F(3, 4)}


@pytest.mark.parametrize(
    "k,sizes,expected",
    [
        (2, (F(5, 2),), 3),
        (2, (F(3, 5), F(3, 5), F(3, 5)), 2),
        (2, (F(3), F(1, 4), F(1, 4), F(1, 4), F(1, 4)), 4),
    ],
)
def test_exact_opt_examples(k, sizes, expected):
    opt, witness = exact_opt(Instance(k=k, sizes=sizes))
    assert opt == expected
    assert validate_packing(Instance(k=k, sizes=sizes), witness) == []


def test_exact_opt_empty():
    opt, witness = exact_opt(Instance(k=2, sizes=()))
    assert opt == 0 and witness.n_bins == 0


def test_exact_opt_gap_above_lower_bound():
    # five just-over-half items: bounds say 3, the optimum is 4
    inst = Instance(k=2, sizes=(F(51, 100),) * 5)
    assert lower_bounds(inst).best == 3
    opt, _ = exact_opt(inst)
    assert opt == 4


def test_feasible_in_decision():
    inst = Instance(k=2, sizes=(F(1, 2), F(1, 2)))
    witness = feasible_in(inst, 1)
    assert witness is not None and witness.n_bins == 1
    assert feasible_in(Instance(k=2, sizes=(F(5, 2),)), 2) is None


def test_feasible_in_pads_to_exact_count(monkeypatch):
    inst = Instance(k=2, sizes=(F(1, 2), F(1, 2)))
    witness = feasible_in(inst, 4)
    assert witness is not None and witness.n_bins == 4
    assert validate_packing(inst, witness) == []
    # the best-fit upper bound of 3 bins lists items out of id order, and
    # the parts of 2/3 tie: padding to 5 bins halves the first largest part
    # in bin order and item order within a bin, as the reference pads its
    # Packing, in either unit
    inst = Instance(k=2, sizes=(F(1, 3), F(1, 3), F(2, 3), F(2, 3)))
    want = ref.feasible_in(inst, 5)
    for bits in (core.UNIT_BITS, 0):
        monkeypatch.setattr(core, "UNIT_BITS", bits)
        assert feasible_in(inst, 5) == want


def test_feasible_in_empty_instance():
    assert feasible_in(Instance(k=2, sizes=()), 1) is None


def test_feasible_in_argument_checks():
    small = Instance(k=2, sizes=(F(1, 2),) * 3)
    with pytest.raises(ValueError, match="bin count must be at least 1, got 0"):
        feasible_in(small, 0)
    with pytest.raises(BudgetExceeded, match="^3 items exceed the budget of 2$"):
        feasible_in(small, 2, SearchBudget(max_items=2))
    with pytest.raises(BudgetExceeded, match="^3 bins exceed the budget of 2$"):
        feasible_in(small, 3, SearchBudget(max_bins=2))
    # both budgets exceeded: the item count is checked first
    with pytest.raises(BudgetExceeded, match="^3 items exceed the budget of 2$"):
        feasible_in(small, 3, SearchBudget(max_items=2, max_bins=2))


def test_reduction_yes_and_no():
    yes = gen_from_3partition([7, 7, 6, 7, 7, 6], 20, 3)
    assert feasible_in(yes, 2) is not None
    # one bin fewer fails already on total size
    assert feasible_in(yes, 1) is None
    no = gen_from_3partition([7, 7, 7, 9, 9, 9], 24, 3)
    assert feasible_in(no, 2) is None


# LB = OPT = 4 and the heuristics need 5: level 4 must be searched.
K3_SEARCHED = gen_random(8, 3, "mixed", 8)


def test_budget_errors():
    big = Instance(k=2, sizes=(F(1, 2),) * 9)
    with pytest.raises(BudgetExceeded):
        exact_opt(big, SearchBudget(max_items=8))
    with pytest.raises(BudgetExceeded):
        feasible_in(Instance(k=2, sizes=(F(1, 2),)), 11, SearchBudget())
    # needs a real level search: heuristics land above the lower bound, and
    # the partition bound leaves level LB = OPT = 4 open
    assert lower_bounds(K3_SEARCHED).best == 4 and _upper(K3_SEARCHED).n_bins == 5
    assert exact_opt(K3_SEARCHED)[0] == 4
    for nodes in (0, 1):
        with pytest.raises(BudgetExceeded, match=f"^structure search exceeded {nodes} nodes$"):
            exact_opt(K3_SEARCHED, SearchBudget(max_structures=nodes))


# ---------------------------------------------------------------------------
# The steps of ``exact._solve``, the one path behind both entry points.

# Five just-over-half items at k = 2: LB 3, and the heuristics certify 4.
# The partition bound is 4 as well: level 3 is ruled out with no search.
OVER_HALF = Instance(k=2, sizes=(F(51, 100),) * 5)


def _counted(monkeypatch, call):
    """call()'s result and the search nodes it counted."""
    counters = []

    class Recording(exact._Counter):
        def __init__(self, limit):
            super().__init__(limit)
            counters.append(self)

    monkeypatch.setattr(exact, "_Counter", Recording)
    result = call()
    return result, sum(c.value for c in counters)


def _upper_packing(inst, cap, scaled):
    """The oracle's upper bound in the unit (cap, scaled), as the checked
    ``Packing`` that ``_solve`` makes of it when it is the answer."""
    bins, label = _upper_bound_packing(inst.k, cap, scaled, lower_bounds(inst).best)
    return core.checked_packing(inst, bins, cap, scaled, [label] * len(bins))


def _upper(inst):
    return _upper_packing(inst, *core.unit_sizes(inst.sizes))


def test_solve_refuses_when_levels_below_the_upper_bound_stay_unsearched():
    assert lower_bounds(OVER_HALF).best == 3 and _upper(OVER_HALF).n_bins == 4
    # two allowed bins leave level 3 unsearched, so 4 bins are not certified
    with pytest.raises(BudgetExceeded, match="^optimum lies above the bin budget of 2$"):
        exact_opt(OVER_HALF, SearchBudget(max_bins=2))


def test_solve_takes_the_upper_bound_one_above_top():
    # level 3 searched and infeasible: the 4-bin upper bound is optimal
    assert exact_opt(OVER_HALF, SearchBudget(max_bins=3)) == (4, _upper(OVER_HALF))


def test_feasible_in_drops_an_upper_bound_above_its_bin_count():
    # the 4-bin upper bound is _solve's answer at top + 1, but above the
    # goal of 3, so _solve drops it before checking it
    assert exact._solve(OVER_HALF, SearchBudget(), 3, 3) is None
    assert feasible_in(OVER_HALF, 3) is None


def test_feasible_in_below_lower_bound_searches_nothing(monkeypatch):
    assert _counted(monkeypatch, lambda: feasible_in(OVER_HALF, 2)) == (None, 0)


def test_partition_bound_answers_over_half_with_no_search(monkeypatch):
    # the bound rules out level 3, so a zero node budget still certifies the
    # 4-bin upper bound, and feasible_in(3) says no, both with no node
    upper = _upper(OVER_HALF)
    zero = SearchBudget(max_structures=0)
    assert _counted(monkeypatch, lambda: exact_opt(OVER_HALF, zero)) == ((4, upper), 0)
    assert _counted(monkeypatch, lambda: feasible_in(OVER_HALF, 3, zero)) == (None, 0)


def test_upper_bound_at_lower_bound_is_taken_past_the_bin_budget(monkeypatch):
    # a packing at the lower bound is optimal whatever the bin budget
    inst = Instance(k=2, sizes=(F(1, 2), F(1, 3), F(1, 4)))
    upper = _upper(inst)
    assert upper.n_bins == lower_bounds(inst).best == 2
    counted = _counted(monkeypatch, lambda: exact_opt(inst, SearchBudget(max_bins=0)))
    assert counted == ((2, upper), 0)


def test_budget_spec_parsing():
    budget = SearchBudget.from_spec("items=10,bins=12,structures=1000")
    assert (budget.max_items, budget.max_bins, budget.max_structures) == (
        10,
        12,
        1000,
    )
    assert SearchBudget.from_spec("bins=12,") == SearchBudget(max_bins=12)
    assert SearchBudget.from_spec("") == SearchBudget()
    with pytest.raises(ValueError):
        SearchBudget.from_spec("bogus=3")


@pytest.mark.parametrize(
    "spec,quoted",
    [
        ("items=²", "'items=²'"),  # str.isdigit accepts a superscript
        ("bins=٣", "'bins=٣'"),
        ("items=" + "9" * 5000, "'items=" + "9" * 53 + "..."),
        ("x" * 100_000, "'" + "x" * 59 + "..."),
    ],
    ids=["superscript-digit", "arabic-indic-digit", "5000-digits", "100k-chars"],
)
def test_bad_budget_component_is_quoted_briefly(spec, quoted):
    with pytest.raises(ValueError) as exc:
        SearchBudget.from_spec(spec)
    assert str(exc.value) == f"bad budget component: {quoted}"


def test_budget_env_override(monkeypatch):
    # The CLI is the one reader of the variable.
    no_flags = argparse.Namespace(max_bins=None, budget_nodes=None)
    monkeypatch.setenv("SPLITPACK_BUDGET", "items=9")
    assert cli._budget(no_flags) == SearchBudget(max_items=9)
    monkeypatch.setenv("SPLITPACK_BUDGET", "")
    assert cli._budget(no_flags) == SearchBudget()
    monkeypatch.delenv("SPLITPACK_BUDGET")
    assert cli._budget(no_flags) == SearchBudget()


def test_library_ignores_budget_env(monkeypatch):
    inst = Instance(k=2, sizes=(F(51, 100),) * 5)
    expected = exact_opt(inst)
    monkeypatch.setenv("SPLITPACK_BUDGET", "items=1,structures=1")
    assert exact_opt(inst) == expected
    assert feasible_in(inst, 4) is not None


def test_exact_at_most_heuristics():
    rng = random.Random(3)
    for _ in range(120):
        k = rng.choice([2, 3])
        inst = gen_random(rng.randint(0, 6), k, "mixed", seed=rng.randrange(2**30))
        opt, witness = exact_opt(inst)
        nf_packing, _ = next_fit(inst)
        assert opt <= nf_packing.n_bins
        assert lower_bounds(inst).best <= opt or inst.n == 0
        assert validate_packing(inst, witness) == []
        if k == 2:
            assert opt <= pack_75(inst).n_bins


def test_upper_bound_packing_golden():
    # recorded at the commit before the best-fit heuristic shared the
    # next-fit spill
    key = [
        (packing.bins, packing.labels)
        for n in (6, 8, 10)
        for k in (2, 3, 4)
        for dist in ("uniform", "mixed", "heavy")
        for seed in range(20)
        for inst in [gen_random(n, k, dist, seed)]
        for packing in [_upper_packing(inst, *scaled_sizes(inst.sizes))]
    ]
    digest = hashlib.sha256(repr(key).encode()).hexdigest()
    assert digest == "c57d1d1c7631bb8a77ed3b1d1588f26b2041216ed3f416033a657d4843bfd834"


def _fraction_best_fit(inst, cap, scaled):
    """The best fit the oracle ran before its integer upper bound: the same
    choices on scaled sizes, but every part handed back as a Fraction."""
    bins = []
    fills = []
    for item in sorted(range(inst.n), key=lambda i: (-scaled[i], i)):
        size = scaled[item]
        best = -1
        best_free = cap + 1
        for b, fill in enumerate(fills):
            free = cap - fill
            if size <= free < best_free and len(bins[b]) < inst.k:
                best, best_free = b, free
        if best >= 0:
            bins[best].append((item, inst.sizes[item]))
            fills[best] += size
            continue
        rest = inst.sizes[item]
        whole = math.ceil(rest) - 1
        bins.extend([[(item, F(1))] for _ in range(whole)] + [[(item, rest - whole)]])
        fills.extend([cap] * whole + [size - whole * cap])
    return Packing.build(bins, ["ffd"] * len(bins))


def test_upper_bound_packing_matches_fraction_heuristics():
    rng = random.Random(20261018)
    wins = {"nf": 0, "ffd": 0}
    for _ in range(1200):
        k = rng.choice([2, 3, 4, 5])
        dist = rng.choice(["uniform", "mixed", "heavy"])
        inst = gen_random(rng.randint(1, 12), k, dist, seed=rng.randrange(2**30))
        cap, scaled = scaled_sizes(inst.sizes)
        nf_packing, _ = next_fit(inst)
        bf_packing = _fraction_best_fit(inst, cap, scaled)
        # next fit is kept on ties
        want = min((nf_packing, bf_packing), key=lambda p: p.n_bins)
        got = _upper_packing(inst, cap, scaled)
        assert got == want, inst
        assert validate_packing(inst, got) == []
        wins[got.labels[0]] += 1
    assert min(wins.values()) > 0


def _corrupt_first_part(bins):
    (item, part), *rest = bins[0]
    bins[0] = [(item, part - 1)] + rest if part > 1 else [(item, part + 1)] + rest
    return bins


@pytest.mark.parametrize("heuristic", ["next_fit_bins", "_best_fit_split"])
def test_corrupted_heuristic_raises_internal_error(monkeypatch, heuristic):
    # next fit wins the first instance (a tie), best fit the second
    instances = {
        "next_fit_bins": Instance(k=2, sizes=(F(1, 2), F(1, 2))),
        "_best_fit_split": Instance(k=2, sizes=(F(1, 3), F(3, 4), F(2, 3), F(1, 4))),
    }
    inst = instances[heuristic]
    cap, scaled = scaled_sizes(inst.sizes)
    label = "nf" if heuristic == "next_fit_bins" else "ffd"
    assert _upper_packing(inst, cap, scaled).labels[0] == label
    original = getattr(exact, heuristic)
    monkeypatch.setattr(
        exact, heuristic, lambda *args: _corrupt_first_part(original(*args))
    )
    with pytest.raises(InternalError, match="built an invalid packing"):
        exact_opt(inst)
    with pytest.raises(InternalError, match="built an invalid packing"):
        feasible_in(inst, 3)


def _corrupt_first_row(rows):
    """``_realise`` rows with one part of the first bin changed."""
    members, entries = rows[0]
    rows[0] = (members, _corrupt_first_part([entries])[0])
    return rows


def test_corrupted_flow_witness_raises_internal_error(monkeypatch):
    # the search witness leaves through checked_packing: a realiser that
    # shaves one part fails its check in the unit
    inst = gen_random(6, 2, "mixed", 9)
    assert set(exact_opt(inst)[1].labels) == {EXACT_LABEL}
    original = exact._realise
    monkeypatch.setattr(exact, "_realise", lambda *args: _corrupt_first_row(original(*args)))
    with pytest.raises(InternalError, match="built an invalid packing"):
        exact_opt(inst)


def _no_forest(search, n_bins):
    return []


def _first_bin_emptied(scaled, cap, forest):
    rows = _realise(scaled, cap, forest)
    rows[0] = (rows[0][0], [])
    return rows


@pytest.mark.parametrize(
    "owner, name, fake",
    [
        (exact._ForestSearch, "_first_forest", _no_forest),
        (exact, "_realise", _first_bin_emptied),
    ],
    ids=["no-forest", "bin-left-empty"],
)
def test_a_forest_the_witness_cannot_realise_raises_internal_error(
    monkeypatch, owner, name, fake
):
    # LB = 4 and the heuristics need 5, so the k = 3 search accepts a forest
    # at level 4, the first feasible one. A forest whose realised bins are
    # more than 4 (no multi-item bin: a loop per part needed) or fewer (a
    # bin left with no part) is a fault of the oracle, not an answer
    inst = gen_random(8, 3, "mixed", 8)
    assert exact_opt(inst)[1].labels[0] == EXACT_LABEL
    monkeypatch.setattr(owner, name, fake)
    count = inst.parts_needed if name == "_first_forest" else 3
    with pytest.raises(InternalError, match=f"^the forest of level 4 realises {count} bins$"):
        exact_opt(inst)


def test_exact_respects_worst_family_certificates():
    for k, m in [(2, 1), (2, 2), (3, 1)]:
        inst, certified = gen_nf_worst(k, m)
        opt, _ = exact_opt(inst)
        assert opt == certified.n_bins == m * k


# ---------------------------------------------------------------------------
# The forest oracle against the reference search in ``reference_exact``.


def _drawn(seed, trials, draw):
    rng = random.Random(seed)
    return [draw(rng) for _ in range(trials)]


def _acceptance(k, max_n, dist, trials, seed):
    # the corpora of tests/test_acceptance.py, drawn the same way
    return _drawn(
        seed,
        trials,
        lambda rng: gen_random(rng.randint(0, max_n), k, dist, seed=rng.randrange(2**30)),
    )


def _heavy(rng):
    k = rng.choice([2, 3, 4])
    return gen_random(rng.randint(0, 8), k, "heavy", seed=rng.randrange(2**30))


def _random_n8(rng):
    k = rng.choice([2, 3, 4])
    dist = rng.choice(["uniform", "mixed", "heavy"])
    return gen_random(rng.randint(1, 8), k, dist, seed=rng.randrange(2**30))


def _duplicated(rng):
    # duplicated sizes make the relabeling group of the old symmetry pruning
    # nontrivial
    k = rng.choice([2, 3])
    n = rng.randint(1, 4)
    base = gen_random(max(1, n // 2 + 1), k, "uniform", seed=rng.randrange(2**30))
    return Instance(k=k, sizes=(base.sizes * 2)[:n])


SEVEN_BIN_YES = Instance(
    k=2, sizes=(F(1, 50),) * 5 + (F(99, 100),) * 2 + (F(11, 20), F(401, 100))
)
SEVEN_BIN_NO = Instance(
    k=2, sizes=(F(1, 50),) * 5 + (F(99, 100),) * 2 + (F(19, 20), F(401, 100))
)

CORPORA = {
    "acceptance-k2-uniform": lambda: _acceptance(2, 6, "uniform", 1000, 20260809),
    "acceptance-k3-uniform": lambda: _acceptance(3, 6, "uniform", 1000, 20260810),
    "acceptance-k2-mixed": lambda: _acceptance(2, 7, "mixed", 1000, 20260811),
    "acceptance-heavy": lambda: _drawn(99, 300, _heavy),
    "acceptance-fixed": lambda: [
        *(gen_nf_worst(k, m)[0] for k, m in [(2, 1), (2, 2), (3, 1)]),
        Instance(k=2, sizes=(F(3, 5), F(1, 5), F(6, 5))),
        Instance(k=2, sizes=(F(3, 5), F(2, 5), F(9, 5))),
        Instance(k=2, sizes=(F(3, 5), F(1, 5), F(6, 5), F(6, 5))),
        SEVEN_BIN_YES,
        SEVEN_BIN_NO,
    ],
    "random-k234-n8": lambda: _drawn(2026, 1500, _random_n8),
    # the corpus of the retired forest-versus-general enumeration test
    "forest-k2-n5": lambda: _drawn(
        5,
        80,
        lambda rng: gen_random(rng.randint(1, 5), 2, "mixed", seed=rng.randrange(2**30)),
    ),
    # the corpus of the retired symmetry-pruning test
    "duplicated-sizes": lambda: _drawn(9, 60, _duplicated),
}

# The retired knob tests' corpora also run against the reference with the
# knob settings those tests compared.
KNOB_ARMS = {
    "forest-k2-n5": {"forest_only": False, "maximal_only": False},
    "duplicated-sizes": {"forest_only": False, "symmetry": False},
}

WIDE = SearchBudget(max_items=10, max_bins=20)


def _checked_level(inst, n_bins):
    """feasible_in's packing of n_bins bins, or None, once its decision is
    the reference search's and a packing validates with n_bins bins; None
    too for a bin count out of WIDE's range."""
    if not 1 <= n_bins <= WIDE.max_bins:
        return None
    got = feasible_in(inst, n_bins, WIDE)
    want = ref.feasible_in(inst, n_bins, WIDE)
    assert (got is None) == (want is None), (inst, n_bins)
    if got is not None:
        assert validate_packing(inst, got) == [] and got.n_bins == n_bins
    return got


# sha256 over the witness keys of each corpus: per instance, exact_opt's
# witness, then feasible_in's at OPT - 1 .. OPT + 2 (None where there is
# none). Recorded when the witness came from the tree DP's own fill in
# place of a max-flow, which gave other parts than the reference flow.
CORPUS_WITNESSES = {
    "acceptance-fixed": "1a2de3f43b88101bd27f47ecffccf3b267c00db37243d62823ff46dd0cf37ea2",
    "acceptance-heavy": "7a86a07fed36f18bf7d34be2cb114b8406f32ea58e269a77b593764ccfb4bb23",
    "acceptance-k2-mixed": "0638b9ae183a339c8fc45906f30e6466acc78067ebf9e8ecaf220f1aa72f8c30",
    "acceptance-k2-uniform": "c98efd5035b192f0ebee684f8eac8690ef1b0ba26e420507c85eda77a5ae7c76",
    "acceptance-k3-uniform": "f20a81d739c2a9b459948f56f8678b62f28f8962c8c1f95cfc085579467dd4c6",
    "duplicated-sizes": "be825fb339aa5c935e38e635abbf8cb5e1cbe2c566930bf4e14de5b94b5397ab",
    "forest-k2-n5": "92f36d59a83a8739b8f477d5c062a34e4ebe3cee75ae4c9d26d8d86f9a9ae1de",
    "random-k234-n8": "cf00446fbf7ad017508b7087f99b63ffc5710a20b6d8304f5adaa538b0814857",
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_forest_oracle_matches_reference(corpus):
    # the reference search's OPT and decisions, valid witnesses of exactly
    # OPT or the asked bin count, and the pinned witness keys
    searched = 0
    keys = []
    for inst in CORPORA[corpus]():
        opt, witness = exact_opt(inst, WIDE)
        assert opt == ref.exact_opt(inst, WIDE)[0], inst
        assert validate_packing(inst, witness) == [] and witness.n_bins == opt
        keys.append(witness.key())
        if corpus in KNOB_ARMS:
            assert ref.exact_opt(inst, WIDE, **KNOB_ARMS[corpus])[0] == opt, inst
        if inst.n:
            for n_bins in range(opt - 1, opt + 3):
                got = _checked_level(inst, n_bins)
                keys.append(None if got is None else got.key())
            searched += ref._upper_bound_packing(inst).n_bins > lower_bounds(inst).best
    # every corpus but the retired tests' small ones reaches the level search
    assert searched > 0 or corpus in ("forest-k2-n5", "duplicated-sizes")
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest == CORPUS_WITNESSES[corpus], (corpus, digest)


def _small_random(rng):
    # sizes up to 2 keep OPT + 1 within WIDE's 20 bins
    k = rng.choice([2, 3, 4])
    dist = rng.choice(["uniform", "mixed"])
    return gen_random(rng.randint(1, 7), k, dist, seed=rng.randrange(2**30))


def test_feasible_in_answers_exactly_from_opt():
    # the two callers of ``exact._solve`` agree: B bins suffice iff B >= OPT
    for inst in _drawn(24, 600, _small_random):
        opt, _ = exact_opt(inst, WIDE)
        for n_bins in range(1, opt + 2):
            got = feasible_in(inst, n_bins, WIDE)
            assert (got is None) == (n_bins < opt), (inst, n_bins)
            if got is not None:
                assert validate_packing(inst, got) == [] and got.n_bins == n_bins


def _three_partition(rng, m, target):
    lo, hi = target // 4 + 1, (target - 1) // 2
    while True:
        numbers = [rng.randint(lo, hi) for _ in range(3 * m - 1)]
        last = m * target - sum(numbers)
        if lo <= last <= hi:
            return numbers + [last]


def test_reduction_decisions_match_reference():
    rng = random.Random(31)
    budget = SearchBudget(max_items=12)
    answers = set()
    for m, k, trials in [(2, 3, 12), (2, 4, 12), (3, 3, 6), (3, 4, 2)]:
        for _ in range(trials):
            target = rng.choice([20, 24, 28])
            numbers = _three_partition(rng, m, target)
            inst = gen_from_3partition(numbers, target, k)
            witness = feasible_in(inst, m, budget)
            expected = three_partition_brute(numbers, target)
            assert (witness is not None) == expected, (numbers, k)
            answers.add(expected)
            if witness is not None:
                assert validate_packing(inst, witness) == [] and witness.n_bins == m
            # the reference search cannot exhaust m = 3 for k = 4 (12 items)
            if (m, k) != (3, 4):
                want = ref.feasible_in(inst, m, budget)
                assert (want is None) == (witness is None), (numbers, k)
    assert answers == {True, False}


def test_permuting_items_keeps_opt():
    rng = random.Random(41)
    for inst in _drawn(43, 300, _random_n8):
        opt, _ = exact_opt(inst)
        order = list(range(inst.n))
        rng.shuffle(order)
        permuted = Instance(k=inst.k, sizes=tuple(inst.sizes[i] for i in order))
        again, witness = exact_opt(permuted)
        assert again == opt, (inst, order)
        assert validate_packing(permuted, witness) == []


def _relabel_by_bin_order(inst, bins):
    """The instance with items renumbered by first appearance in the bins,
    and the bins under that numbering."""
    order = list(dict.fromkeys(item for entries in bins for item, _ in entries))
    new_id = {item: j for j, item in enumerate(order)}
    permuted = Instance(k=inst.k, sizes=tuple(inst.sizes[i] for i in order))
    return permuted, [[(new_id[i], part) for i, part in entries] for entries in bins]


def test_bin_order_keeps_validity_and_opt():
    rng = random.Random(47)
    small = [inst for inst in _drawn(43, 300, _random_n8) if inst.k in (2, 3)]
    for inst in CORPORA["acceptance-fixed"]() + small:
        opt, witness = exact_opt(inst, WIDE)
        packings = [witness]
        if inst.k == 2:
            packings.append(pack_75(inst).packing)
        for packing in packings:
            shuffled = list(packing.bins)
            rng.shuffle(shuffled)
            for bins in (packing.bins[::-1], shuffled):
                reordered = Packing.build(bins)
                assert validate_packing(inst, reordered) == [], inst
                assert reordered.n_bins == packing.n_bins
            # numbering the items in the shuffled bin order keeps OPT
            permuted, relabeled = _relabel_by_bin_order(inst, shuffled)
            assert validate_packing(permuted, Packing.build(relabeled)) == []
            assert exact_opt(permuted, WIDE)[0] == opt, (inst, shuffled)


def _random_forest(rng, n, k):
    """Multi-item bins of 2..k items whose incidence graph is a forest."""
    component = list(range(n))
    bins = []
    for _ in range(rng.randint(0, n) if n > 1 else 0):
        members = rng.sample(range(n), rng.randint(2, min(k, n)))
        labels = {component[i] for i in members}
        if len(labels) < len(members):
            continue
        bins.append(tuple(sorted(members)))
        for i in range(n):
            if component[i] in labels:
                component[i] = min(labels)
    return bins


def _reduced(scaled, cap, base):
    """The sizes that base[i] loops per item i leave to the bins."""
    return [s - b * cap for s, b in zip(scaled, base)]


def test_min_loops_on_reduced_sizes_matches_base_loops(monkeypatch):
    # b loops on an item of size s act as an item of size s - b * cap: on
    # random forests, with base loops 0..ceil(size) + 1 per item (so some
    # reduced sizes are at most 0), _min_loops on the reduced sizes is the
    # reference DP's total at those base loops, in both units
    nonpositive = 0
    for bits in (core.UNIT_BITS, 0):
        monkeypatch.setattr(core, "UNIT_BITS", bits)
        rng = random.Random(31)
        for _ in range(300):
            k = rng.choice([2, 3, 4, 5])
            n = rng.randint(1, 8)
            den = rng.choice([2, 3, 4, 5, 6])
            sizes = tuple(F(rng.randint(1, 3 * den), den) for _ in range(n))
            cap, scaled = core.unit_sizes(sizes)
            assert all(isinstance(s, int) for s in scaled) == (bits > 0)
            forest = _random_forest(rng, n, k)
            base = [rng.randint(0, -(-s // cap) + 1) for s in scaled]
            rest = _reduced(scaled, cap, base)
            nonpositive += any(s <= 0 for s in rest)
            want = reference_forest.tree_totals(scaled, cap, forest, base)
            assert _min_loops(rest, cap, forest) == sum(t for _, t in want.values())
    assert nonpositive > 0


def test_min_loops_matches_max_flow():
    # minloops(F) is the fewest loops with which the reference max-flow
    # realizes F, and the DP's zero test with fixed loops is that flow's
    # feasibility test.
    rng = random.Random(17)
    for _ in range(100):
        k = rng.choice([2, 3, 4])
        n = rng.randint(1, 6)
        den = rng.choice([2, 3, 4, 5])
        sizes = tuple(F(rng.randint(1, 2 * den), den) for _ in range(n))
        inst = Instance(k=k, sizes=sizes)
        forest = _random_forest(rng, n, k)
        cap = math.lcm(1, *(s.denominator for s in sizes))
        scaled = [int(s * cap) for s in sizes]
        least = _min_loops(scaled, cap, forest)

        def realizes(loops):
            bins = forest + [(i,) for i in range(n) for _ in range(loops[i])]
            return ref.feasible(inst, ref.IncidenceStructure.build(bins)) is not None

        # loops only ever help, so no split of fewer than least - 1 loops can
        # be feasible when none of least - 1 is; a split's loops l count as
        # an item of size s - l * cap
        for total in range(max(0, least - 1), least + 1):
            outcomes = [
                (_min_loops(_reduced(scaled, cap, split), cap, forest) == 0, realizes(split))
                for split in ref._extra_loop_splits(total, n)
            ]
            assert all(dp == flow for dp, flow in outcomes), (inst, forest)
            assert any(flow for _, flow in outcomes) == (total == least), (inst, forest)


def test_realised_bins_match_reference_flow(monkeypatch):
    # on random forests, in both units: _realise lists the forest's bins and
    # its loops, |F| + minloops(F) of them in sorted member order; each bin
    # holds parts of its own members only, the bins with parts pass
    # bin_violations in the unit, and the reference max-flow accepts F with
    # the realised loops per item
    for bits in (core.UNIT_BITS, 0):
        monkeypatch.setattr(core, "UNIT_BITS", bits)
        rng = random.Random(29)
        for _ in range(200):
            k = rng.choice([2, 3, 4])
            n = rng.randint(1, 7)
            den = rng.choice([2, 3, 4, 5, 6, 7])
            inst = Instance(k=k, sizes=tuple(F(rng.randint(1, 3 * den), den) for _ in range(n)))
            cap, scaled = core.unit_sizes(inst.sizes)
            assert all(isinstance(s, int) for s in scaled) == (bits > 0)
            forest = _random_forest(rng, n, k)
            rows = _realise(scaled, cap, forest)
            structure = [members for members, _ in rows]
            loops = [members for members in structure if len(members) == 1]
            assert structure == sorted(forest + loops), (inst, forest)
            assert len(loops) == _min_loops(scaled, cap, forest), (inst, forest)
            for members, entries in rows:
                assert {i for i, _ in entries} <= set(members), (inst, forest)
            bins = [entries for _, entries in rows if entries]
            assert core.bin_violations(inst, bins, cap, scaled) == [], (inst, forest)
            realised = ref.IncidenceStructure.build(structure)
            assert ref.feasible(inst, realised) is not None, (inst, forest)


def test_a_bin_no_item_reaches_keeps_no_part():
    # rooted at item 0, item 3 fills bin (2, 3) with 3, item 2 fills the
    # rest of it and pushes nothing, and item 0 fills bin (0, 1) after item
    # 1's push of 5, with nothing left for bin (0, 2). Such a forest is
    # never the one the search accepts at the first level that fits: its
    # bins with parts pack the items into one bin fewer
    rows = _realise([5, 5, 4, 3], 10, [(0, 1), (0, 2), (2, 3)])
    assert [sorted(entries) for _, entries in rows] == [[(0, 5), (1, 5)], [], [(2, 4), (3, 3)]]


def test_k3_blowup_instance_solves_within_a_second():
    # k = 3 uniform n = 10 seed = 3: the old general enumeration ran for
    # minutes here
    inst = gen_random(10, 3, "uniform", 3)
    start = time.perf_counter()
    opt, witness = exact_opt(inst, SearchBudget(max_items=10))
    assert time.perf_counter() - start < 1.0
    assert opt == lower_bounds(inst).best == 6
    assert validate_packing(inst, witness) == [] and witness.n_bins == 6


# ---------------------------------------------------------------------------
# Node counts and the per-tree min-loop totals.


def _rows(instances, budget):
    """(OPT or "-" on budget, witness or None, nodes) of exact_opt and of
    feasible_in at LB and LB + 1, per instance."""
    counters = []

    class Recording(exact._Counter):
        def __init__(self, limit):
            super().__init__(limit)
            counters.append(self)

    def row(call):
        counters.clear()
        try:
            answer, witness = call()
        except BudgetExceeded:
            answer, witness = "-", None
        return answer, witness, sum(c.value for c in counters)

    rows = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_Counter", Recording)
        for inst in instances:
            rows.append(row(lambda: exact_opt(inst, budget)))
            lb = lower_bounds(inst).best
            for b in (lb, lb + 1):
                rows.append(row(lambda: (b, feasible_in(inst, b, budget))))
    return rows


GOLDEN_BUDGET = SearchBudget(max_items=10, max_bins=20, max_structures=3000)


def _golden_corpus():
    return [
        gen_random(n, k, dist, seed)
        for k in (2, 3, 4)
        for n in range(6, 11)
        for dist in ("uniform", "mixed", "heavy")
        for seed in range(10)
    ]


def _golden_rows():
    """The rows of ``_rows`` over the golden corpus."""
    return _rows(_golden_corpus(), GOLDEN_BUDGET)


@pytest.fixture(scope="module")
def golden_rows():
    return _golden_rows()


# The golden corpus is pinned as three things apart, so that a change that
# answers more rows or finds other witnesses re-records only its own pin:
# the answer of every row answered when the pins were recorded, those rows'
# witnesses, and the set of rows that run out of the 3000-node budget.
# Together they pin exactly what one digest over (answer, witness key) of
# every row pinned before.
#
# One character per row, one line per (k, n) of ``_golden_corpus``: for
# exact_opt, OPT - LB; for feasible_in at LB and LB + 1, 1 if it found a
# packing and 0 if not; "-" for a row out of budget when recorded.
GOLDEN_ANSWERS = "".join((
    "011011011011011011011011011011011011011011101011011011011011011011011011011011011011011011",
    "011011011011011011011011011011011011011011011011011011011101011011011011011011011011011011",
    "011011--1011011011011--1011011011011011011--1011011011101011011011011011011011011011011011",
    "011--1--1011011011011011011011011011011--1011--1011--1011--1011011011011011011011011011011",
    "--1011011--1011011011011011011011011011011--1011011--1011---011011011011011011011011011011",
    "011011011011011011011011011011011011011011011011011011011011011011011011011011011011011011",
    "011011011011011011011011011011011011011011011011011011011011011011011011011011011011011011",
    "011011011011011011011011011011011011011011011011011011--1011011011011011011011011011011011",
    "011011011011011011011011011011011011011011011011011011011011011011011011011011011011011011",
    "01101101101101101101101101101101101101101101101101101101101101101101-01101101101-011011011",
    "011011011011011011011011011011011011011011011011011011011011011011011011011011011011011011",
    "01101101101101101101101101101101101101101101101101101101101101101101101101101101101101101-",
    "01101101101101101101101101101101101101101101101101101101101101101101-01-0110110110110110--",
    "01101101101101101101101101101101101101101101101101101101101101-0110--0--01101-0110110110--",
    "0110110110110110110110110110110110110110110110110110110110110--0110--0--0--0--01101-0--0--",
))

# The rows out of budget: 32 of the 1350.
GOLDEN_BUDGET_ROWS = frozenset({
    684, 685, 878, 890, 1079, 1148, 1151, 1168, 1169, 1232, 1237, 1238, 1240,
    1241, 1247, 1258, 1259, 1321, 1322, 1327, 1328, 1330, 1331, 1333, 1334,
    1336, 1337, 1343, 1345, 1346, 1348, 1349,
})

# The 40 rows out of budget before a level whose search runs out of nodes
# fell back on packing the partition bound's groups one at a time: that
# runs only where the search raised, so no row leaves this set.
GOLDEN_BUDGET_ROWS_BEFORE_GROUPS = frozenset({
    201, 202, 321, 322, 402, 403, 411, 412, 684, 685, 878, 890, 1079, 1148,
    1151, 1168, 1169, 1232, 1237, 1238, 1240, 1241, 1247, 1258, 1259, 1321,
    1322, 1327, 1328, 1330, 1331, 1333, 1334, 1336, 1337, 1343, 1345, 1346,
    1348, 1349,
})

# The 61 rows out of budget before the partition bound skipped the levels
# it rules out: that only ever saves nodes, so no row leaves this set.
GOLDEN_BUDGET_ROWS_BEFORE_PLB = frozenset({
    186, 187, 201, 202, 222, 223, 273, 274, 276, 277, 309, 310, 315, 316, 321,
    322, 327, 328, 360, 361, 369, 370, 402, 403, 411, 412, 417, 418, 419, 684,
    685, 878, 890, 1079, 1148, 1151, 1168, 1169, 1232, 1237, 1238, 1240, 1241,
    1247, 1258, 1259, 1321, 1322, 1327, 1328, 1330, 1331, 1333, 1334, 1336,
    1337, 1343, 1345, 1346, 1348, 1349,
})


def _answer_code(inst, row, r):
    answer, witness, _ = row
    if answer == "-":
        return "-"
    if r % 3 == 0:
        return str(answer - lower_bounds(inst).best)
    return "1" if witness is not None else "0"


def test_golden_answers(golden_rows):
    # every row answered when the pins were recorded stays answered, with
    # the same OPT or decision
    instances = _golden_corpus()
    assert len(GOLDEN_ANSWERS) == len(golden_rows) == 1350
    for r, row in enumerate(golden_rows):
        if GOLDEN_ANSWERS[r] != "-":
            assert _answer_code(instances[r // 3], row, r) == GOLDEN_ANSWERS[r], r


def test_golden_budget_rows(golden_rows):
    # a change that answers more rows shows it here, as a smaller set
    budget = {r for r, (answer, *_) in enumerate(golden_rows) if answer == "-"}
    assert budget == GOLDEN_BUDGET_ROWS
    assert GOLDEN_BUDGET_ROWS < GOLDEN_BUDGET_ROWS_BEFORE_GROUPS
    assert GOLDEN_BUDGET_ROWS_BEFORE_GROUPS < GOLDEN_BUDGET_ROWS_BEFORE_PLB


def test_golden_witnesses(golden_rows):
    # sha256 over (row, witness key) of the rows answered when the pins were
    # recorded. Every change that keeps the witness bytes, and every sound
    # pruning, keeps this digest; a witness of a row answered since is not
    # in it. Every witness is valid. Recorded again when the tree DP's own
    # fill replaced the max-flow as the witness: 18 of the 48 searched rows
    # got other parts, with the same answers.
    instances = _golden_corpus()
    keys = []
    for r, (_, witness, _) in enumerate(golden_rows):
        if witness is not None:
            assert validate_packing(instances[r // 3], witness) == [], r
            if GOLDEN_ANSWERS[r] != "-":
                keys.append((r, witness.key()))
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest == "8035a6350890f891c6c5419074b7cad3c2916fe919a921eb1174cbb43084539d"


def test_golden_node_counts(golden_rows):
    # sha256 over the node counts of the same rows, the nodes of a group
    # fallback counted in; 48 of the 1350 rows search (73 before the
    # partition bound). A pruning records this again and gives its reason
    # in CHANGES.md. Recorded again when the witness stopped counting a node
    # per loop split it tried: 44 of the 48 rows count fewer, none more.
    nodes = [nodes for *_, nodes in golden_rows]
    assert sum(count > 0 for count in nodes) == 48
    digest = hashlib.sha256(repr(nodes).encode()).hexdigest()
    assert digest == "87b806c86f63204f2e106620b2f5e5987aee567536cf75127c0011ae23f457f2"


def test_golden_corpus_same_in_both_units(monkeypatch, golden_rows):
    # UNIT_BITS = 0 sends every instance down the Fraction path (bins of
    # capacity 1): the same answers, witness bytes, node counts and budget
    # exhaustions as the integer unit
    def written(rows):
        return [
            (answer, None if witness is None else io.dumps_packing(witness), nodes)
            for answer, witness, nodes in rows
        ]

    monkeypatch.setattr(core, "UNIT_BITS", 0)
    assert core.unit_sizes(gen_random(6, 2, "mixed", 0).sizes)[0] == 1
    assert written(_golden_rows()) == written(golden_rows)


def _repeated_sizes():
    """Instances full of equal sizes: 3-partition reductions for k = 3, 4, 5
    (m = 2, 3), and ``mixed`` instances over denominators up to 4."""
    rng = random.Random(61)
    out = []
    for k in (3, 4, 5):
        for m in (2, 3):
            for _ in range(6):
                target = rng.choice([20, 24, 28])
                out.append(gen_from_3partition(_three_partition(rng, m, target), target, k))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generators, "MAX_DENOMINATOR", 4)
        for _ in range(120):
            k = rng.choice([2, 3, 4])
            out.append(gen_random(rng.randint(6, 10), k, "mixed", rng.randrange(2**30)))
    return out


@pytest.mark.parametrize("corpus", ["golden", "repeated-sizes"])
def test_twin_rule_matches_reference_loop(corpus, monkeypatch):
    # against the candidate loop before the twin rule, both searches alone
    # (the group fallback, which rescues either, is off): where the
    # reference answers, the same OPT or decision and the same witness
    # bytes; never more nodes; out of budget only where the reference is too
    if corpus == "golden":
        instances, budget = _golden_corpus(), GOLDEN_BUDGET
    else:
        instances = _repeated_sizes()
        budget = SearchBudget(max_items=15, max_bins=20, max_structures=3000)
    monkeypatch.setattr(exact, "_pack_groups", lambda *args: None)
    rows = _rows(instances, budget)
    monkeypatch.setattr(exact, "_ForestSearch", reference_forest.ForestSearch)
    want = _rows(instances, budget)
    assert len(rows) == len(want) == 3 * len(instances)
    fewer = solved = 0
    for r, (row, ref_row) in enumerate(zip(rows, want)):
        (answer, witness, nodes), (ref_answer, ref_witness, ref_nodes) = row, ref_row
        assert nodes <= ref_nodes
        fewer += nodes < ref_nodes
        if ref_answer == "-":
            solved += answer != "-"
            if witness is not None:
                assert validate_packing(instances[r // 3], witness) == []
            continue
        assert answer == ref_answer
        assert (witness is None) == (ref_witness is None)
        if witness is not None:
            assert io.dumps_packing(witness) == io.dumps_packing(ref_witness)
    # the golden corpus searched alone keeps its budget rows
    assert fewer > 0 and (solved > 0 or corpus == "golden")


def _alone_total(scaled, cap, members):
    """The reference DP of one bin alone, at zero base loops."""
    trees = reference_forest.tree_totals(scaled, cap, [members], [0] * len(scaled))
    return trees[members[0]][1]


def _assert_matches_reference(forest, scaled, cap, base):
    # each tree's items share one label, whose total is the reference DP of
    # that tree at the base loops; the forest total is their sum, and so is
    # _min_loops on the sizes the base loops leave, which the forest holds
    assert forest.scaled == _reduced(scaled, cap, base)
    trees = reference_forest.tree_totals(scaled, cap, forest.bins, base)
    assert len(set(forest.tree)) == len(trees)
    for items, loops in trees.values():
        label = forest.tree[items[0]]
        assert {forest.tree[i] for i in items} == {label}
        assert forest.tree_loops[label] == loops
    total = sum(loops for _, loops in trees.values())
    assert forest.loops == total == _min_loops(forest.scaled, cap, forest.bins)


def _assert_rooms(forest, cap):
    """Each tree's room is its bins times cap less its items' sizes, and
    max(0, ceil(-room / cap)) is at most its total. Returns the number of
    trees whose total is exactly that bound."""
    tight = 0
    scaled = forest.scaled
    zero = [0] * len(scaled)
    for items, loops in reference_forest.tree_totals(scaled, cap, forest.bins, zero).values():
        n_bins = len({b for i in items for b in forest.item_bins[i]})
        room = n_bins * cap - sum(scaled[i] for i in items)
        assert forest.tree_room[forest.tree[items[0]]] == room
        least = max(0, -(room // cap))
        assert least <= loops
        tight += least == loops
    return tight


def test_forest_loops_track_min_loops(monkeypatch):
    # after every push and pop, each tree's label and total and the forest
    # total match the reference DP, run tree by tree on the pushed bins, at
    # zero base loops and at random base loops (some above ceil(size)), the
    # latter pushed on the sizes they leave; at zero base a bin of untouched
    # items is pushed with its total alone half the time, and labels and
    # total also match the reference ForestLoops. The DP evicts pushers
    # from an overfull bin at least once. Every entry a short search fills
    # in its per-candidate table matches the reference DP of its bin alone,
    # and every forest its witness realises, at the first level that fits,
    # gets the reference DP's total of loops. Each tree's room, recomputed
    # from its bins and items, matches tree_room, and its volume bound is at
    # most its total; on sizes that are whole and not negative (every size
    # of the last case at zero base) every tree meets its bound. In the
    # integer unit and, with UNIT_BITS = 0, on the Fractions at cap 1.
    evictions = 0
    pushing = False

    def spy_sorted(*args, **kwargs):
        nonlocal evictions
        evictions += pushing
        return sorted(*args, **kwargs)

    realised = []

    def spy_realise(scaled, cap, forest):
        rows = _realise(scaled, cap, forest)
        realised.append((scaled, cap, list(forest), rows))
        return rows

    monkeypatch.setattr(exact, "sorted", spy_sorted, raising=False)
    monkeypatch.setattr(exact, "_realise", spy_realise)
    filled = witnesses = tight = 0
    for bits in (core.UNIT_BITS, 0):
        monkeypatch.setattr(core, "UNIT_BITS", bits)
        rng = random.Random(23)
        for case in range(151):
            if case < 150:
                k = rng.choice([2, 3, 4, 5])
                n = rng.randint(2, 9)
                den = rng.choice([2, 3, 4, 5, 6])
                sizes = tuple(F(rng.randint(1, 3 * den), den) for _ in range(n))
            else:
                k, n = 3, 7
                sizes = tuple(map(F, (2, 1, 1, 2, 1, 2, 1)))
            inst = Instance(k=k, sizes=sizes)
            cap, scaled = core.unit_sizes(inst.sizes)
            integral = all(s % cap == 0 for s in scaled)
            assert all(isinstance(s, int) for s in scaled) == (bits > 0)
            search = exact._ForestSearch(inst.k, cap, scaled, exact._Counter(300))
            realised.clear()
            try:
                for level in range(1, n + 1):
                    if search.level(level) is not None:
                        break
            except BudgetExceeded:
                pass
            for (members, *_), loops in zip(search.rows, search.alone):
                if loops >= 0:
                    filled += 1
                    assert loops == _alone_total(scaled, cap, members)
            for realised_scaled, realised_cap, forest, rows in realised:
                assert (realised_scaled, realised_cap) == (scaled, cap)
                witnesses += 1
                want = reference_forest.tree_totals(scaled, cap, forest, [0] * n)
                loops = sum(len(members) == 1 for members, _ in rows)
                assert loops == sum(total for _, total in want.values())
            ceils = [-(-s // cap) for s in scaled]
            zero = [0] * n
            for base in (zero, [rng.randint(0, c + 1) for c in ceils]):
                forest = _ForestLoops(_reduced(scaled, cap, base), cap)
                ref = reference_forest.ForestLoops(scaled, cap, ceils) if base is zero else None
                for _ in range(4 * n):
                    members = tuple(sorted(rng.sample(range(n), rng.randint(2, min(k, n)))))
                    acyclic = len({forest.tree[i] for i in members}) == len(members)
                    fresh = all(not forest.item_bins[i] for i in members)
                    if forest.bins and (rng.random() < 0.3 or not acyclic):
                        forest.pop()
                        if ref is not None:
                            ref.pop()
                    elif fresh and ref is not None and rng.random() < 0.5:
                        forest.push(members, _alone_total(scaled, cap, members))
                        ref.push(members)
                    elif acyclic:
                        pushing = True
                        forest.push(members)
                        pushing = False
                        if ref is not None:
                            ref.push(members)
                    else:
                        continue
                    if ref is not None:
                        assert forest.tree == ref.tree and forest.loops == ref.loops
                    _assert_matches_reference(forest, scaled, cap, base)
                    trees = _assert_rooms(forest, cap)
                    if integral and min(forest.scaled) >= 0:
                        assert trees == len(set(forest.tree))
                        tight += trees
    assert evictions > 0 and filled > 0 and witnesses > 0 and tight > 0


def test_warm_alone_table_walks_like_a_cold_one():
    # a per-candidate table that earlier searches filled changes neither the
    # forest _first_forest returns (or its BudgetExceeded) nor its node
    # count: filling an entry leaves the walk's forest as it found it
    rng = random.Random(29)
    compared = 0
    for _ in range(60):
        k = rng.choice([2, 3, 4, 5])
        n = rng.randint(3, 9)
        den = rng.choice([2, 3, 4, 5, 6])
        inst = Instance(k=k, sizes=tuple(F(rng.randint(1, 3 * den), den) for _ in range(n)))
        cap, scaled = core.unit_sizes(inst.sizes)
        levels = range(1, sum(-(-s // cap) for s in scaled) + 1)
        warm = exact._ForestSearch(inst.k, cap, scaled, exact._Counter(500))
        for level in levels:
            warm.counter = exact._Counter(500)
            try:
                warm._first_forest(level)
            except BudgetExceeded:
                pass
        for level in levels:
            cold = exact._ForestSearch(inst.k, cap, scaled, exact._Counter(500))
            outcomes = []
            for search in (cold, warm):
                search.counter = exact._Counter(500)
                try:
                    outcomes.append(search._first_forest(level))
                except BudgetExceeded:
                    outcomes.append(BudgetExceeded)
                outcomes.append(search.counter.value)
            assert outcomes[:2] == outcomes[2:], (inst, level)
            compared += isinstance(outcomes[0], list)
    assert compared > 0


# ---------------------------------------------------------------------------
# The partition lower bound against the subset DP in ``reference_exact``.


def _decides(inst, level):
    """Whether ``_partition_level`` leaves the one level open, in the unit
    ``core.unit_sizes`` gives."""
    cap, scaled = core.unit_sizes(inst.sizes)
    got, _ = exact._partition_level(inst.k, cap, scaled, range(level, level + 1))
    assert got in (level, level + 1)
    return got == level


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    k=st.integers(2, 5),
    dist=st.sampled_from(["uniform", "mixed", "heavy"]),
    seed=st.integers(0, 2**30),
)
def test_partition_level_matches_reference_plb(n, k, dist, seed):
    # the pruned decision is "PLB <= L" at L = PLB - 1 and L = PLB, in the
    # integer unit and on the Fractions at cap 1; over LB .. PLB + 1 it opens
    # the level max(LB, PLB) first
    inst = gen_random(n, k, dist, seed)
    plb = ref.partition_lower_bound(inst)
    lb = lower_bounds(inst).best
    assert plb >= lb
    for bits in (core.UNIT_BITS, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "UNIT_BITS", bits)
            assert (_decides(inst, plb - 1), _decides(inst, plb)) == (False, True)
            cap, scaled = core.unit_sizes(inst.sizes)
            assert all(isinstance(s, int) for s in scaled) == (bits > 0)
            assert exact._partition_level(k, cap, scaled, range(lb, plb + 2))[0] == plb


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(
        st.tuples(st.integers(1, 12), st.integers(1, 12)).map(lambda t: F(min(t), max(t))),
        min_size=1,
        max_size=8,
    )
)
def test_opt_is_the_partition_bound_for_k2_sizes_at_most_1(sizes):
    """For k = 2 and every size in (0, 1], OPT equals the PLB, in both units.

    A proof sketch, which this test checks and nothing should cite as
    known. Here g(G) = max(ceil(s(G)), |G| - 1). Pack each group G of an
    arg-min partition on its own into g(G) bins:
    - if s(G) <= |G| - 1, chain G's items in any order into |G| - 1
      two-item bins, bin j holding items j and j + 1. A set S of items
      other than G misses some item m; sending each item of S before m to
      its bin on the right and each after m to its bin on the left shows
      that S reaches at least |S| >= s(S) bins, and G itself reaches its
      |G| - 1 >= s(G). So the chain meets Hall's condition, and a flow
      fills it;
    - otherwise ceil(s(G)) >= |G|, and the items alone use |G| bins.
    So OPT <= PLB, and PLB <= OPT by the forest lemma."""
    inst = Instance(k=2, sizes=tuple(sizes))
    plb = ref.partition_lower_bound(inst)
    for bits in (core.UNIT_BITS, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "UNIT_BITS", bits)
            assert exact_opt(inst)[0] == plb, inst


PLB_CORPORA = sorted(CORPORA) + ["golden", "repeated-sizes"]


@pytest.mark.parametrize("corpus", PLB_CORPORA)
def test_partition_bound_never_passes_opt(corpus, golden_rows):
    # PLB <= OPT wherever the oracle answers, so a level the bound rules
    # out is never a feasible one: the reference DP's PLB up to 10 items
    # (the 3^n DP takes seconds past that), the pruned decision on all
    if corpus == "golden":
        instances = _golden_corpus()
        opts = [answer for answer, *_ in golden_rows[::3]]
    else:
        if corpus == "repeated-sizes":
            instances = _repeated_sizes()
            budget = SearchBudget(max_items=15, max_bins=20, max_structures=3000)
        else:
            instances, budget = CORPORA[corpus](), WIDE
        opts = []
        for inst in instances:
            try:
                opts.append(exact_opt(inst, budget)[0])
            except BudgetExceeded:
                opts.append("-")
    answered = 0
    for inst, opt in zip(instances, opts):
        if opt != "-" and inst.n:
            answered += 1
            assert _decides(inst, opt), inst
            if inst.n <= 10:
                assert ref.partition_lower_bound(inst) <= opt, inst
    assert answered > 0


def test_partition_bound_gives_up_after_its_step_cap(monkeypatch):
    # 20 items: the bound tries its _PARTITION_STEPS groups at level LB = 13
    # and leaves that level to the search, whose outcome (here the node
    # budget) and node count are those of no bound at all; the group
    # fallback's own partition search gives up there too
    inst = gen_random(20, 2, "uniform", 3)
    cap, scaled = core.unit_sizes(inst.sizes)
    levels = range(lower_bounds(inst).best, _upper(inst).n_bins)
    assert list(levels) == [13]
    gave_up = []

    class Recording(exact._GiveUp):
        def __init__(self):
            super().__init__()
            gave_up.append(True)

    monkeypatch.setattr(exact, "_GiveUp", Recording)
    start = time.perf_counter()
    assert exact._partition_level(inst.k, cap, scaled, levels) == (13, None)
    assert time.perf_counter() - start < 0.5 and gave_up == [True]
    budget = SearchBudget(max_items=20, max_bins=20, max_structures=2000)

    def outcome():
        try:
            return exact_opt(inst, budget)
        except BudgetExceeded as exc:
            return str(exc)

    bounded = _counted(monkeypatch, outcome)
    assert bounded == ("structure search exceeded 2000 nodes", 2001)
    monkeypatch.setattr(
        exact,
        "_partition_level",
        lambda k, cap, scaled, levels: (levels.start, None),
    )
    assert _counted(monkeypatch, outcome) == bounded


# ---------------------------------------------------------------------------
# The group fallback: a level whose search runs out of nodes is packed group
# by group from a partition that fits it.

# ``oracle`` benchmark rows (n, k, dist, seed) whose 1000-node search runs
# out at OPT = LB and whose partition groups pack one at a time; each takes
# an uncapped search under 0.05 s.
GROUP_ROWS = [
    (8, 2, "mixed", 809318870),
    (10, 2, "mixed", 946956782),
    (10, 2, "mixed", 490929897),
    (9, 2, "mixed", 878948556),
    (7, 2, "mixed", 378603616),
    (9, 2, "mixed", 10935879),
    (10, 2, "mixed", 535681452),
    (10, 2, "mixed", 26839665),
    (9, 2, "mixed", 844963166),
    (8, 3, "mixed", 118994870),
    (7, 3, "mixed", 627760921),
    (10, 3, "mixed", 804429719),
    (8, 3, "uniform", 178755768),
    (7, 3, "uniform", 456063536),
]
GROUP_BUDGET = SearchBudget(max_items=10, max_bins=20, max_structures=1000)


def _search_alone(monkeypatch, call):
    """call() with the group fallback off."""
    with monkeypatch.context() as patch:
        patch.setattr(exact, "_pack_groups", lambda *args: None)
        return call()


def _uncapped_opt(monkeypatch, inst):
    return _search_alone(monkeypatch, lambda: exact_opt(inst, WIDE)[0])


@pytest.mark.parametrize("row", GROUP_ROWS, ids=lambda row: "-".join(map(str, row)))
def test_group_fallback_answers_the_uncapped_opt(monkeypatch, row):
    # the search alone runs out of nodes; with the fallback the answer is
    # the uncapped search's OPT, here LB, its witness validates with OPT
    # bins, and the fallback counts at most max_structures nodes more
    inst = gen_random(*row)
    with pytest.raises(BudgetExceeded, match="^structure search exceeded 1000 nodes$"):
        _search_alone(monkeypatch, lambda: exact_opt(inst, GROUP_BUDGET))
    (opt, witness), nodes = _counted(monkeypatch, lambda: exact_opt(inst, GROUP_BUDGET))
    assert opt == _uncapped_opt(monkeypatch, inst) == lower_bounds(inst).best
    assert witness.n_bins == opt and validate_packing(inst, witness) == []
    assert set(witness.labels) == {EXACT_LABEL}
    assert 1001 < nodes <= 2001
    # feasible_in gains the same reach, padded in _solve
    assert feasible_in(inst, opt + 1, GROUP_BUDGET).n_bins == opt + 1


def test_group_fallback_same_in_both_units(monkeypatch):
    # UNIT_BITS = 0 runs the search, the partition and every group on the
    # Fractions at cap 1: the same witness bytes
    def written():
        return [
            io.dumps_packing(exact_opt(gen_random(*row), GROUP_BUDGET)[1]) for row in GROUP_ROWS
        ]

    integer = written()
    monkeypatch.setattr(core, "UNIT_BITS", 0)
    assert written() == integer


def test_group_fallback_golden_rows_match_the_uncapped_search(monkeypatch, golden_rows):
    # the golden rows that only the fallback answers: OPT, or the decision
    # at LB and LB + 1, as the uncapped search alone gives it
    instances = _golden_corpus()
    rescued = sorted(GOLDEN_BUDGET_ROWS_BEFORE_GROUPS - GOLDEN_BUDGET_ROWS)
    assert len(rescued) == 8
    for r in rescued:
        inst = instances[r // 3]
        answer, witness, _ = golden_rows[r]
        opt = _uncapped_opt(monkeypatch, inst)
        assert validate_packing(inst, witness) == []
        if r % 3 == 0:
            assert answer == witness.n_bins == opt, r
        else:
            assert answer == witness.n_bins >= opt, r


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 9),
    k=st.integers(2, 3),
    dist=st.sampled_from(["uniform", "mixed", "heavy"]),
    seed=st.integers(0, 2**30),
    nodes=st.integers(0, 50),
)
@example(n=8, k=3, dist="uniform", seed=178755768, nodes=5)
@example(n=8, k=2, dist="mixed", seed=809318870, nodes=20)
def test_tiny_node_budgets_answer_the_uncapped_opt(n, k, dist, seed, nodes):
    # under a node budget small enough that the search often runs out and
    # the fallback answers (as in both examples), every answer is the
    # uncapped search's OPT and its witness validates, in both units
    inst = gen_random(n, k, dist, seed)
    budget = SearchBudget(max_items=10, max_bins=20, max_structures=nodes)
    for bits in (core.UNIT_BITS, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "UNIT_BITS", bits)
            opt = _uncapped_opt(patch, inst)
            try:
                answer, witness = exact_opt(inst, budget)
            except BudgetExceeded:
                continue
            assert answer == witness.n_bins == opt
            assert validate_packing(inst, witness) == []


def test_group_fallback_pins(monkeypatch, golden_rows):
    # the witness bytes and node counts of every row that only the fallback
    # answers: the GROUP_ROWS under exact_opt, then the 8 rescued golden
    # rows. Recorded again when each group's witness came from the tree
    # DP's own fill, which ticks no node: one node fewer per searched group
    witnesses, nodes = [], []
    for row in GROUP_ROWS:
        inst = gen_random(*row)
        (_, witness), count = _counted(monkeypatch, lambda: exact_opt(inst, GROUP_BUDGET))
        witnesses.append(io.dumps_packing(witness))
        nodes.append(count)
    for r in sorted(GOLDEN_BUDGET_ROWS_BEFORE_GROUPS - GOLDEN_BUDGET_ROWS):
        _, witness, count = golden_rows[r]
        witnesses.append(io.dumps_packing(witness))
        nodes.append(count)
    assert nodes == [
        1008, 1009, 1004, 1010, 1007, 1056, 1064, 1024, 1011, 1019, 1004, 1005, 1003, 1031,
        3006, 3006, 3009, 3009, 3010, 3010, 3009, 3009,
    ]
    digest = hashlib.sha256(repr(witnesses).encode()).hexdigest()
    assert digest == "621fd622e1d5bdddbdc55b4a5daaeac6871ae1285cbf9e0cd043128dde7b6029"


def test_group_fallback_reuses_the_opening_partition(monkeypatch):
    # on every GROUP_ROWS row the search raises at the first level it
    # searches, so the fallback packs the partition that opened that level:
    # the partition bound runs once per call
    levels = []
    original = exact._partition_level

    def spy(k, cap, scaled, asked):
        levels.append(asked)
        return original(k, cap, scaled, asked)

    monkeypatch.setattr(exact, "_partition_level", spy)
    for row in GROUP_ROWS:
        inst = gen_random(*row)
        levels.clear()
        assert exact_opt(inst, GROUP_BUDGET)[0] == lower_bounds(inst).best
        assert len(levels) == 1 and levels[0].start == lower_bounds(inst).best, row


def test_groups_that_miss_their_level_raise_internal_error():
    # the groups of a partition that fits LB pack into LB bins; asked for
    # one level more, their union is a fault of the caller, not an answer
    inst = gen_random(*GROUP_ROWS[0])
    lb = lower_bounds(inst).best
    cap, scaled = core.unit_sizes(inst.sizes)
    groups = exact._partition_level(inst.k, cap, scaled, range(lb, lb + 1))[1]
    assert sum(n_bins for _, n_bins in groups) == lb
    bins = exact._pack_groups(inst.k, GROUP_BUDGET, cap, scaled, groups, lb)
    assert len(bins) == lb
    with pytest.raises(
        InternalError, match=f"^the groups of level {lb + 1} pack into {lb} bins$"
    ):
        exact._pack_groups(inst.k, GROUP_BUDGET, cap, scaled, groups, lb + 1)


def test_group_fallback_decides_a_later_level_again(monkeypatch):
    # LB = 6 < PLB = OPT = 7 < 8 upper-bound bins. Here the first decision
    # opens LB with one group of all items, as a weaker bound could; the
    # search proves level 6 infeasible and runs out of nodes at level 7, so
    # the fallback cannot take the opening partition and decides level 7
    # again, whose groups pack
    inst = gen_random(10, 2, "mixed", 9)
    cap, scaled = core.unit_sizes(inst.sizes)
    assert lower_bounds(inst).best == 6 and len(_upper(inst).bins) == 8
    assert exact._partition_level(2, cap, scaled, range(6, 8))[0] == 7
    search = exact._ForestSearch(2, cap, scaled, exact._Counter(10**6))
    assert search.level(6) is None
    levels = []
    original = exact._partition_level

    def opens_lb(k, cap, scaled, asked):
        levels.append(asked)
        if len(levels) == 1:
            return asked.start, [(tuple(range(inst.n)), asked.start)]
        return original(k, cap, scaled, asked)

    monkeypatch.setattr(exact, "_partition_level", opens_lb)
    budget = SearchBudget(max_items=10, max_structures=search.counter.value + 1)
    opt, witness = exact_opt(inst, budget)
    assert opt == witness.n_bins == 7 and validate_packing(inst, witness) == []
    assert set(witness.labels) == {EXACT_LABEL}
    assert levels == [range(6, 8), range(7, 8)]


def test_single_group_partition_raises_the_search_error(monkeypatch):
    # every partition that fits LB = OPT = 4 is one group of all 7 items,
    # so the fallback has nothing to split: the search's own error stands,
    # and no fallback node is counted
    inst = gen_random(7, 3, "uniform", 545898255)
    cap, scaled = core.unit_sizes(inst.sizes)
    lb = lower_bounds(inst).best
    assert exact._partition_level(3, cap, scaled, range(lb, lb + 1)) == (
        lb,
        [(tuple(range(7)), lb)],
    )
    assert _uncapped_opt(monkeypatch, inst) == lb == 4

    def outcome():
        with pytest.raises(BudgetExceeded) as exc:
            exact_opt(inst, GROUP_BUDGET)
        return str(exc.value)

    assert _counted(monkeypatch, outcome) == ("structure search exceeded 1000 nodes", 1001)


def test_failed_group_raises_the_search_error(monkeypatch):
    # a group that does not pack into its g(G) bins ends the fallback, and
    # the search's own error is raised again. Here the upper bound packs
    # every group but one of 7 items, whose search at g(G) = 6 is made to
    # fail; a group's search is told from the instance's by its item count
    inst = gen_random(9, 2, "mixed", 10935879)
    assert exact_opt(inst, GROUP_BUDGET)[0] == 7
    level = exact._ForestSearch.level
    failed = []

    def no_group_packs(search, n_bins):
        if search.n == inst.n:
            return level(search, n_bins)
        failed.append(search.n)
        return None

    monkeypatch.setattr(exact._ForestSearch, "level", no_group_packs)
    with pytest.raises(BudgetExceeded, match="^structure search exceeded 1000 nodes$"):
        exact_opt(inst, GROUP_BUDGET)
    assert failed == [7]


@pytest.mark.parametrize("target", ["_upper_bound_packing", "_realise"])
def test_corrupted_group_bins_cannot_leave(monkeypatch, target):
    # a group's bins are not checked on their own: their union is the answer
    # that _solve checks, in the caller's unit. So one corrupted part in the
    # bins of a group (its upper bound, or the realised bins of its search)
    # raises InternalError, in the integer unit and on the Fractions at cap
    # 1. On this row the upper bound packs every group but one, which is
    # searched
    inst = gen_random(9, 2, "mixed", 10935879)
    original = getattr(exact, target)
    corrupted = []

    def first_group(scaled):
        # only a group's own sizes are shorter than the instance's
        if len(scaled) < inst.n and not corrupted:
            corrupted.append(len(scaled))
            return True
        return False

    if target == "_upper_bound_packing":

        def spy(k, cap, scaled, lb):
            # a group takes its upper bound only when it meets g(G), its lb
            bins, label = original(k, cap, scaled, lb)
            if len(bins) <= lb and first_group(scaled):
                bins = _corrupt_first_part(bins)
            return bins, label

    else:

        def spy(scaled, cap, forest):
            rows = original(scaled, cap, forest)
            return _corrupt_first_row(rows) if first_group(scaled) else rows

    monkeypatch.setattr(exact, target, spy)
    for bits in (core.UNIT_BITS, 0):
        monkeypatch.setattr(core, "UNIT_BITS", bits)
        corrupted.clear()
        with pytest.raises(InternalError, match="built an invalid packing"):
            exact_opt(inst, GROUP_BUDGET)
        assert corrupted and corrupted[0] < inst.n


# ---------------------------------------------------------------------------
# The one exit: every answer of the oracle is checked once, in ``_solve``.


def test_one_check_per_oracle_answer(monkeypatch):
    # whichever way _solve answers, one checked_packing call and one
    # bin_violations run certify the answer: the upper bound at LB, the
    # upper bound once the partition bound rules out the levels below it, a
    # search witness, the group fallback's union, and the upper bound at
    # top + 1 after a search that finds nothing (the partition bound off).
    # feasible_in's answer is _solve's, checked once, padded or not; an
    # answer of None, one with more bins than feasible_in asked for, or the
    # empty instance's, checks nothing
    calls = Counter()

    def spy(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for module, name in ((exact, "checked_packing"), (core, "bin_violations")):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    once = {"checked_packing": 1, "bin_violations": 1}

    def checks(call):
        calls.clear()
        result, nodes = _counted(monkeypatch, call)
        return result, nodes, dict(calls)

    at_lb = Instance(k=2, sizes=(F(1, 2), F(1, 2)))
    searched = gen_random(6, 2, "mixed", 9)
    grouped = gen_random(*GROUP_ROWS[0])
    (opt, packing), nodes, counts = checks(lambda: exact_opt(at_lb))
    assert (opt, packing.labels, nodes, counts) == (1, ("nf",), 0, once)
    (opt, packing), nodes, counts = checks(lambda: exact_opt(OVER_HALF))
    assert (opt, nodes, counts) == (4, 0, once) and EXACT_LABEL not in packing.labels
    for inst, budget in ((searched, WIDE), (grouped, GROUP_BUDGET)):
        (opt, packing), nodes, counts = checks(lambda: exact_opt(inst, budget))
        assert set(packing.labels) == {EXACT_LABEL} and counts == once
        assert nodes > 1001 if inst is grouped else 0 < nodes <= 1000
        packing, _, counts = checks(lambda: feasible_in(inst, opt, budget))
        assert set(packing.labels) == {EXACT_LABEL} and counts == once
    assert checks(lambda: feasible_in(at_lb, 1))[2] == once
    assert checks(lambda: feasible_in(at_lb, 2))[2] == once
    assert checks(lambda: feasible_in(OVER_HALF, 4))[2] == once
    assert checks(lambda: feasible_in(OVER_HALF, 5))[2] == once
    # above the bin count asked for: the upper bound at top + 1, and the
    # upper bound at LB when that count is below LB; below LB, _solve
    # answers None with no search
    assert checks(lambda: feasible_in(OVER_HALF, 3)) == (None, 0, {})
    assert checks(lambda: feasible_in(Instance(k=2, sizes=(1, 1)), 1)) == (None, 0, {})
    assert checks(lambda: feasible_in(OVER_HALF, 2)) == (None, 0, {})
    assert checks(lambda: feasible_in(Instance(k=2, sizes=()), 1)) == (None, 0, {})
    monkeypatch.setattr(
        exact, "_partition_level", lambda k, cap, scaled, levels: (levels.start, None)
    )
    (opt, packing), nodes, counts = checks(lambda: exact_opt(OVER_HALF, SearchBudget(max_bins=3)))
    assert (opt, counts) == (4, once) and nodes > 0
    assert EXACT_LABEL not in packing.labels
