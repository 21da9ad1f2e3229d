"""The three workloads: inputs made from a seed, the timed op per input, and
the output checks.

An op is one input going through the public library calls that one CLI
command makes, in the same order. ``Op.run`` is the timed part; every
library call goes through the ``call`` hook so a traced run can wrap it.
``Op.check`` runs outside the timers, compares the outputs with what the
paper and the package promise, and condenses them into a small ``Result``.

- ``bulk``: ``splitpack solve --algo nf|a75`` on 10^3 and 10^4 items.
- ``oracle``: ``splitpack experiment``: lower bounds, heuristics and the exact
  oracle under a node budget, on desk-scale instances.
- ``rewrite``: ``splitpack normalize --check`` on k = 2 packings.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType
from typing import Any, Callable

Call = Callable[..., Any]

# Oracle search limits: n <= 10 items and at most 20 bins cover every
# generated instance. The node budget sits far below the package default of
# 5M so that a budget-capped search costs tens of milliseconds: the inputs
# that need a long search are a random few per seed, and capping their cost
# keeps the seed-to-seed spread of a pass near 5% (at 2000 nodes and 200
# cycles it was 11%).
ORACLE_ITEMS = 10
ORACLE_BINS = 20
ORACLE_NODES = 1000
ORACLE_CYCLES = 600
ORACLE_SUITES = ((2, "mixed"), (3, "uniform"), (3, "mixed"))
REDUCTION_TARGET = 20

NO_ANSWER = "-"


class CheckFailed(Exception):
    """An output check failed; the message says which op and what."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Result:
    """What one op produced, reduced to what the metrics and the digest need.

    ``summary`` is deterministic and must repeat on every pass. ``bins`` and
    ``lb`` add up heuristic or normalize bin counts and the matching combined
    lower bounds. ``solved`` is None for ops that make no oracle call and
    False when the oracle ran out of its node budget. ``answer`` is the
    oracle's OPT or reduction decision, or ``NO_ANSWER`` on budget.
    """

    summary: tuple
    digest: str = ""
    bins: int = 0
    lb: int = 0
    solved: bool | None = None
    answer: str = ""
    repair: bool = False
    bins_removed: int = 0
    levels_above_lb: int = 0


@dataclass(frozen=True)
class Op:
    name: str
    k: int
    items: int
    size_class: str  # "1e3", "2e3", "1e4" or "" for desk-scale inputs
    run: Callable[[Call, bool], Any]
    check: Callable[[Any, bool], Result]
    inst: Any = None  # the instance, for inputs held in memory
    # Given a path for the CLI's output file: the ``splitpack`` argv for the
    # same input, and the library path's output file to compare with (None
    # when the library ran out of budget and the CLI must exit 4).
    cli: Callable[[str], tuple[list[str], str | None]] | None = None


def size_class(n: int) -> str:
    if 500 <= n < 1500:
        return "1e3"
    if 1500 <= n < 3000:
        return "2e3"
    if 5000 <= n < 20000:
        return "1e4"
    return ""


def render_packing_key(key: tuple) -> str:
    return "|".join(",".join(f"{i}:{p}" for i, p in entries) for entries in key)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# bulk: splitpack solve --algo nf|a75


def build_bulk(sp: ModuleType, seed: int, workdir: str, call: Call) -> list[Op]:
    """k = 2 mixed at 10^3 (six inputs) and 10^4 items, solved by nf and a75;
    k = 3 and k = 5 heavy inputs through the next-fit spill path; the 7/5
    bad family at N = 1000; the next-fit bad family for k = 2, 3, 5."""
    rng = random.Random(f"bulk:{seed}")
    cases: list[tuple[str, Any, tuple[str, ...], Any, int | None]] = []
    for i in range(6):
        inst = call(sp.gen_random, 1000, 2, "mixed", rng.randrange(2**30))
        cases.append((f"random-k2-n1000#{i}", inst, ("nf", "a75"), None, None))
    inst = call(sp.gen_random, 10_000, 2, "mixed", rng.randrange(2**30))
    cases.append(("random-k2-n10000", inst, ("nf", "a75"), None, None))
    for k in (3, 5):
        for i in range(2):
            inst = call(sp.gen_random, 1000, k, "heavy", rng.randrange(2**30))
            cases.append((f"heavy-k{k}-n1000#{i}", inst, ("nf",), None, None))
    inst, certified = call(sp.gen_a75_worst, 1000)
    cases.append(("a75-worst-N1000", inst, ("a75",), certified, None))
    for k, m in ((2, 500), (3, 167), (5, 50)):
        inst, certified = call(sp.gen_nf_worst, k, m)
        cases.append((f"nf-worst-k{k}-M{m}", inst, ("nf",), certified, m * (2 * k - 1) - 1))

    ops = []
    for label, inst, algos, certified, nf_bins in cases:
        in_path = os.path.join(workdir, f"{label}.json")
        sp.io.save_instance(in_path, inst)
        for algo in algos:
            out_path = os.path.join(workdir, f"{label}.{algo}.json")
            ops.append(
                Op(
                    name=f"{algo}/{label}",
                    k=inst.k,
                    items=inst.n,
                    size_class=size_class(inst.n),
                    run=_solve_run(sp, algo, in_path, out_path),
                    check=_solve_check(sp, f"{algo}/{label}", algo, certified, nf_bins, out_path),
                    cli=lambda cli_out, a=algo, i=in_path, o=out_path: (
                        ["solve", "--algo", a, "--input", i, "--output", cli_out], o
                    ),
                )
            )
    return ops


def _solve_run(sp: ModuleType, algo: str, in_path: str, out_path: str):
    """load_instance, the solver, validate_packing, save_packing and
    lower_bounds: the calls of ``cmd_solve`` in its order."""

    def run(call: Call, traced: bool) -> tuple:
        inst = call(sp.io.load_instance, in_path)
        report = None
        block_ok = True
        if algo == "nf":
            packing, trace = call(sp.next_fit, inst)
            block_ok = call(sp.check_block_inequality, inst, trace)
        else:
            report = call(sp.pack_75, inst)
            packing = report.packing
        problems = call(sp.validate_packing, inst, packing)
        call(sp.io.save_packing, out_path, packing)
        bounds = call(sp.lower_bounds, inst)
        return inst, packing, block_ok, report, problems, bounds

    return run


def _solve_check(sp, name, algo, certified, nf_bins, out_path):
    def check(raw: tuple, with_digest: bool) -> Result:
        inst, packing, block_ok, report, problems, bounds = raw
        expect(block_ok, f"{name}: next-fit block weight inequality failed")
        expect(problems == [], f"{name}: invalid packing: {problems[:1]}")
        bins = packing.n_bins
        expect(bins >= bounds.best, f"{name}: {bins} bins below lower bound {bounds.best}")
        if nf_bins is not None:
            expect(bins == nf_bins, f"{name}: next-fit used {bins} bins, expected {nf_bins}")
        if certified is not None:
            cert_problems = sp.validate_packing(inst, certified)
            expect(cert_problems == [], f"{name}: certified packing invalid: {cert_problems[:1]}")
            opt = certified.n_bins
            if algo == "nf":
                bound = (2 - Fraction(1, inst.k)) * opt
                expect(bins <= bound, f"{name}: next-fit {bins} > (2-1/k)*OPT = {bound}")
            else:
                expect(bins <= Fraction(7, 5) * opt, f"{name}: a75 {bins} > 7/5*OPT ({opt})")
        repair = report is not None and report.fallback_triggered is not None
        return Result(
            summary=(bins, bounds.best, repair),
            digest=_read(out_path) if with_digest else "",
            bins=bins,
            lb=bounds.best,
            repair=repair,
        )

    return check


# ---------------------------------------------------------------------------
# oracle: splitpack experiment


def oracle_budget(sp: ModuleType):
    return sp.SearchBudget(
        max_items=ORACLE_ITEMS, max_bins=ORACLE_BINS, max_structures=ORACLE_NODES
    )


def random_3partition(rng: random.Random, target: int) -> list[int]:
    """Six numbers in (target/4, target/2) summing to 2*target, drawn as
    ``splitpack experiment --suite reduction-check`` draws them."""
    lo, hi = target // 4 + 1, (target - 1) // 2
    while True:
        numbers = [rng.randint(lo, hi) for _ in range(5)]
        last = 2 * target - sum(numbers)
        if lo <= last <= hi:
            return numbers + [last]


def build_oracle(sp: ModuleType, seed: int, workdir: str, call: Call) -> list[Op]:
    """Per cycle one random instance per suite, n running through 6..10 and
    instance seeds drawn from a per-suite generator the way ``experiment``
    draws them; every fourth cycle a 3-partition reduction for k = 3 and
    k = 4. The k = 3 uniform n = 10 seed = 3 blow-up and the two pack_75
    hazard patterns (two-bin repack, seven-bin search) run once per pass.
    No input is dropped for its outcome."""
    F = Fraction
    rngs = [random.Random(f"oracle:{seed}:{k}:{dist}") for k, dist in ORACLE_SUITES]
    red_rng = random.Random(f"oracle:{seed}:reduction")
    budget = oracle_budget(sp)
    fixed = [
        ("blowup-k3-uniform-n10-s3", call(sp.gen_random, 10, 3, "uniform", 3)),
        ("hazard-two-bin", sp.Instance(k=2, sizes=(F(3, 5), F(1, 5), F(6, 5)))),
        (
            "hazard-seven-bin",
            sp.Instance(
                k=2,
                sizes=(F(1, 50),) * 5 + (F(99, 100),) * 2 + (F(11, 20), F(401, 100)),
            ),
        ),
    ]
    fixed_at = {ORACLE_CYCLES * (j + 1) // (len(fixed) + 1): j for j in range(len(fixed))}
    ops: list[Op] = []
    for cycle in range(ORACLE_CYCLES):
        n = 6 + cycle % 5
        for (k, dist), rng in zip(ORACLE_SUITES, rngs):
            inst_seed = rng.randrange(2**30)
            inst = call(sp.gen_random, n, k, dist, inst_seed)
            ops.append(_oracle_op(sp, f"k{k}-{dist}-n{n}-s{inst_seed}", inst, budget))
        if cycle % 4 == 3:
            for k in (3, 4):
                numbers = random_3partition(red_rng, REDUCTION_TARGET)
                inst = call(sp.gen_from_3partition, numbers, REDUCTION_TARGET, k)
                ops.append(_reduction_op(sp, f"reduce3p-k{k}-{'.'.join(map(str, numbers))}", inst, numbers, budget))
        if cycle in fixed_at:
            label, inst = fixed[fixed_at[cycle]]
            ops.append(_oracle_op(sp, label, inst, budget))

    with open(os.path.join(workdir, "instances.jsonl"), "w", encoding="utf-8") as fh:
        for op in ops:
            fh.write(sp.io.dumps_instance(op.inst).replace("\n", "") + "\n")
    return ops


def _oracle_op(sp, label: str, inst, budget) -> Op:
    name = f"oracle/{label}"

    def run(call: Call, traced: bool) -> tuple:
        bounds = call(sp.lower_bounds, inst)
        packing, trace = call(sp.next_fit, inst)
        block_ok = call(sp.check_block_inequality, inst, trace)
        report = call(sp.pack_75, inst) if inst.k == 2 else None
        try:
            opt, witness = call(sp.exact_opt, inst, budget)
        except sp.BudgetExceeded:
            opt = witness = None
        return bounds, packing, block_ok, report, opt, witness

    def check(raw: tuple, with_digest: bool) -> Result:
        bounds, packing, block_ok, report, opt, witness = raw
        lb = bounds.best
        expect(block_ok, f"{name}: next-fit block weight inequality failed")
        outputs = [("nf", packing)] + ([("a75", report.packing)] if report else [])
        for algo, out in outputs:
            problems = sp.validate_packing(inst, out)
            expect(problems == [], f"{name}: invalid {algo} packing: {problems[:1]}")
            expect(out.n_bins >= lb, f"{name}: {algo} {out.n_bins} bins below lower bound {lb}")
        if opt is not None:
            problems = sp.validate_packing(inst, witness)
            expect(problems == [], f"{name}: invalid exact witness: {problems[:1]}")
            expect(witness.n_bins == opt, f"{name}: witness has {witness.n_bins} bins, OPT {opt}")
            expect(lb <= opt <= packing.n_bins, f"{name}: OPT {opt} outside [LB {lb}, nf {packing.n_bins}]")
            nf_bound = (2 - Fraction(1, inst.k)) * opt
            expect(packing.n_bins <= nf_bound, f"{name}: next-fit {packing.n_bins} > (2-1/k)*OPT = {nf_bound}")
            if report is not None:
                expect(report.n_bins <= Fraction(7, 5) * opt, f"{name}: a75 {report.n_bins} > 7/5*OPT ({opt})")
        repair = report is not None and report.fallback_triggered is not None
        answer = NO_ANSWER if opt is None else str(opt)
        digest = ""
        if with_digest:
            digest = "".join(sp.io.dumps_packing(out) for _, out in outputs)
        return Result(
            summary=(tuple(out.n_bins for _, out in outputs), lb, answer, repair),
            digest=digest,
            bins=sum(out.n_bins for _, out in outputs),
            lb=lb * len(outputs),
            solved=opt is not None,
            answer=answer,
            repair=repair,
            levels_above_lb=0 if opt is None else opt - lb,
        )

    def cli(cli_out: str) -> tuple[list[str], str | None]:
        workdir = os.path.dirname(cli_out)
        in_path = os.path.join(workdir, "cli-input.json")
        lib_out = os.path.join(workdir, "library-output.json")
        sp.io.save_instance(in_path, inst)
        try:
            sp.io.save_packing(lib_out, sp.exact_opt(inst, budget)[1])
        except sp.BudgetExceeded:
            lib_out = None
        argv = ["solve", "--algo", "exact", "--input", in_path, "--output", cli_out,
                "--max-bins", str(ORACLE_BINS), "--budget-nodes", str(ORACLE_NODES)]
        return argv, lib_out

    return Op(name, inst.k, inst.n, "", run, check, inst, cli)


def _reduction_op(sp, label: str, inst, numbers: list[int], budget) -> Op:
    """``feasible_in(inst, 2)`` decides whether the six numbers split into two
    triples; ``three_partition_brute`` is the ground truth."""
    name = f"oracle/{label}"
    m = len(numbers) // 3

    def run(call: Call, traced: bool) -> Any:
        try:
            return call(sp.feasible_in, inst, m, budget)
        except sp.BudgetExceeded:
            return NO_ANSWER

    def check(witness: Any, with_digest: bool) -> Result:
        solved = witness is not NO_ANSWER
        answer = NO_ANSWER
        if solved:
            decided = witness is not None
            expected = sp.three_partition_brute(numbers, REDUCTION_TARGET)
            expect(decided == expected, f"{name}: oracle says {decided}, brute force says {expected}")
            if witness is not None:
                problems = sp.validate_packing(inst, witness)
                expect(problems == [], f"{name}: invalid witness: {problems[:1]}")
                expect(witness.n_bins == m, f"{name}: witness has {witness.n_bins} bins, not {m}")
            answer = "yes" if decided else "no"
        return Result(summary=(answer,), solved=solved, answer=answer)

    return Op(name, inst.k, inst.n, "", run, check, inst)


# ---------------------------------------------------------------------------
# rewrite: splitpack normalize --check


def build_rewrite(sp: ModuleType, seed: int, workdir: str, call: Call) -> list[Op]:
    """Next-fit packings of k = 2 mixed inputs at 10^3 (four) and 2*10^3
    (two) items, which have many small items that are not leaves; their
    rewrite time depends on the draw, so several of each keep the
    seed-to-seed spread down; disjoint 3-cycles (three
    inputs) and one long ring of 2/3-sized items for cycle removal; stars
    whose centre of type i has more than i neighbours (three inputs) for
    degree bounding. Bin order is
    shuffled so no rewrite meets its bins in construction order."""
    rng = random.Random(f"rewrite:{seed}")
    cases = []
    for i, n in enumerate((1000, 1000, 1000, 1000, 2000, 2000)):
        inst = call(sp.gen_random, n, 2, "mixed", rng.randrange(2**30))
        packing, _ = sp.next_fit(inst)
        cases.append((f"nf-k2-n{n}#{i}", inst, packing))
    structured = [(f"triangles-50#{i}", _triangles(rng, 50)) for i in range(3)]
    structured.append(("ring-600", _ring(600)))
    structured += [(f"stars-20#{i}", _stars(rng, 20)) for i in range(3)]
    for label, (sizes, bins) in structured:
        rng.shuffle(bins)
        inst = sp.Instance(k=2, sizes=tuple(sizes))
        cases.append((label, inst, sp.Packing.build(bins, ["input"] * len(bins))))

    ops = []
    for label, inst, packing in cases:
        inst_path = os.path.join(workdir, f"{label}.instance.json")
        in_path = os.path.join(workdir, f"{label}.packing.json")
        out_path = os.path.join(workdir, f"{label}.normalized.json")
        sp.io.save_instance(inst_path, inst)
        sp.io.save_packing(in_path, packing)
        ops.append(
            Op(
                name=f"normalize/{label}",
                k=2,
                items=inst.n,
                size_class=size_class(inst.n),
                run=_normalize_run(sp, inst_path, in_path, out_path),
                check=_normalize_check(sp, f"normalize/{label}"),
                cli=lambda cli_out, i=inst_path, p=in_path, o=out_path: (
                    ["normalize", "--input", p, "--instance", i, "--output", cli_out, "--check"], o
                ),
            )
        )
    return ops


def _triangles(rng: random.Random, count: int):
    """Each triangle: three items of size in [1/2, 1], every item split in
    halves over the two bins it shares with the other two."""
    sizes = [Fraction(rng.randint(6, 12), 12) for _ in range(3 * count)]
    bins = []
    for t in range(count):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        for u, v in ((a, b), (b, c), (c, a)):
            bins.append([(u, sizes[u] / 2), (v, sizes[v] / 2)])
    return sizes, bins


def _ring(length: int):
    sizes = [Fraction(2, 3)] * length
    bins = [[(i, Fraction(1, 3)), ((i + 1) % length, Fraction(1, 3))] for i in range(length)]
    return sizes, bins


def _stars(rng: random.Random, count: int):
    """A centre of size i/2 (type i, i in 2..4) split evenly over i+1..i+3
    bins, each shared with a small leaf."""
    sizes: list[Fraction] = []
    bins = []
    for _ in range(count):
        i = rng.randint(2, 4)
        degree = i + rng.randint(1, 3)
        centre = len(sizes)
        sizes.append(Fraction(i, 2))
        part = Fraction(i, 2) / degree
        for _ in range(degree):
            leaf = len(sizes)
            sizes.append(Fraction(rng.randint(1, 6), 12))
            bins.append([(centre, part), (leaf, sizes[leaf])])
    return sizes, bins


def _normalize_run(sp, inst_path: str, in_path: str, out_path: str):
    """The calls of ``cmd_normalize --check``. A traced run calls the three
    public rewrite steps that ``normalize`` composes, one span each."""

    def run(call: Call, traced: bool) -> tuple:
        inst = call(sp.io.load_instance, inst_path)
        packing = call(sp.io.load_packing, in_path)
        problems = call(sp.validate_packing, inst, packing)
        if traced:
            out = call(sp.remove_cycles, inst, packing)
            out = call(sp.smalls_to_leaves, inst, out)
            out = call(sp.bound_degrees, inst, out)
        else:
            out = call(sp.normalize, inst, packing)
        violations = call(sp.normalization_violations, inst, out)
        call(sp.io.save_packing, out_path, out)
        return inst, packing, problems, out, violations

    return run


def _normalize_check(sp, name: str):
    def check(raw: tuple, with_digest: bool) -> Result:
        inst, packing, problems, out, violations = raw
        expect(problems == [], f"{name}: input packing invalid: {problems[:1]}")
        expect(violations == [], f"{name}: normalization violations: {violations[:3]}")
        expect(
            out.n_bins <= packing.n_bins,
            f"{name}: normalize grew {packing.n_bins} bins to {out.n_bins}",
        )
        lb = sp.lower_bounds(inst).best
        expect(out.n_bins >= lb, f"{name}: {out.n_bins} bins below lower bound {lb}")
        return Result(
            summary=(packing.n_bins, out.n_bins),
            digest=render_packing_key(out.key()) + "\n" if with_digest else "",
            bins=out.n_bins,
            lb=lb,
            bins_removed=packing.n_bins - out.n_bins,
        )

    return check


BUILDERS = {"bulk": build_bulk, "oracle": build_oracle, "rewrite": build_rewrite}
