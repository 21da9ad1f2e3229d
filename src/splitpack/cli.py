"""Command-line front end: solve, verify, bounds, gen, normalize, experiment.

Exit codes: 0 ok, 2 usage, 3 parse error, 4 oracle budget exhausted,
5 verification failure. All outputs are deterministic given files, flags and
seeds; rationals are rendered as "p/q" strings, with ratio columns carrying
an extra display-only 6-place decimal.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import random
import sys
from fractions import Fraction
from typing import Sequence

from . import io
from .algo75 import pack_75
from .core import (
    MAX_PARTS,
    Instance,
    InternalError,
    InvalidPackingError,
    Packing,
    brief_repr,
    lower_bounds,
    parts_needed,
    validate_packing,
)
from .exact import (
    BUDGET_ENV_VAR,
    BudgetExceeded,
    SearchBudget,
    exact_opt,
    feasible_in,
)
from .generators import (
    DISTRIBUTIONS,
    gen_a75_worst,
    gen_from_3partition,
    gen_nf_worst,
    gen_random,
    three_partition_brute,
)
from .nextfit import NfTrace, check_block_inequality, next_fit
from .normalize import normalization_violations, normalize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(read, what: str, path: str):
    """`read(path)`, with an unreadable or malformed file as exit 3."""
    try:
        return read(path)
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {what}: {exc}")
    except io.ParseError as exc:
        raise _CliError(EXIT_PARSE, f"bad {what} file: {exc}")


def _open(what: str, path: str, mode: str, **kwargs):
    """`open(path, mode)` for writing, with a path that cannot be opened as
    exit 2."""
    try:
        return open(path, mode, encoding="utf-8", **kwargs)
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot write {what}: {exc}")


def _save(outputs: Sequence[tuple[str, str | None, str]]) -> None:
    """Write each (what, path, text) output, to stdout where the path is
    None. Two outputs naming one file (the same ``os.path.realpath``) are
    exit 2 before any file is opened. Every file is opened, without
    truncating it, before any is written, so a path that cannot be opened
    (exit 2, ``cannot write <what>: <reason>``) leaves no file behind that
    this call created."""
    named: dict[str, str] = {}
    for what, path, _ in outputs:
        if path is not None:
            first = named.setdefault(os.path.realpath(path), what)
            if first != what:
                raise _CliError(
                    EXIT_USAGE,
                    f"cannot write {what}: {path} is also the {first} output",
                )
    created: list[str] = []
    try:
        for what, path, _ in outputs:
            if path is not None:
                new = not os.path.exists(path)
                _open(what, path, "a").close()
                if new:
                    created.append(path)
    except _CliError:
        for path in created:
            os.remove(path)
        raise
    for what, path, text in outputs:
        if path is None:
            sys.stdout.write(text)
        else:
            with _open(what, path, "w") as fh:
                fh.write(text)


def _load_instance(path: str) -> Instance:
    """The instance at `path`; one needing more than ``MAX_PARTS`` parts is
    rejected before any command packs it."""
    inst = _load(io.load_instance, "instance", path)
    if parts_needed(inst.sizes) > MAX_PARTS:
        raise _CliError(
            EXIT_PARSE,
            f"bad instance file: its sizes need more than {MAX_PARTS} parts",
        )
    return inst


def _dumps_packing(packing: Packing) -> str:
    """``io.dumps_packing``, with a part that the packing reader refuses as
    exit 3. On sizes whose common denominator is huge, next-fit chains can
    build such a part; the instance is then refused, as one needing more
    than ``MAX_PARTS`` parts is."""
    try:
        return io.dumps_packing(packing)
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"bad instance file: its {exc}")


def _bounded(what: str, count: int, noun: str) -> None:
    """More than ``MAX_PARTS`` items or parts, which follow from the flags,
    is a usage error, reported before anything is generated. Flag integers
    are quoted through ``brief_repr``, so the message stays short."""
    if count > MAX_PARTS:
        raise _CliError(
            EXIT_USAGE,
            f"{what} would make {brief_repr(count)} {noun}, more than {MAX_PARTS}",
        )


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise _CliError(
            EXIT_USAGE, f"{flag} must be at least {least}, got {brief_repr(value)}"
        )


def _budget(args: argparse.Namespace) -> SearchBudget:
    """The oracle budget: the environment's (the one place the package reads
    it), overridden by the flags given; a negative flag is a usage error."""
    given = {}
    for field, flag, value in (
        ("max_bins", "--max-bins", args.max_bins),
        ("max_structures", "--budget-nodes", args.budget_nodes),
    ):
        if value is not None:
            _at_least(flag, value, 0)
            given[field] = value
    try:
        budget = SearchBudget.from_spec(os.environ.get(BUDGET_ENV_VAR, ""))
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"bad {BUDGET_ENV_VAR}: {exc}")
    return dataclasses.replace(budget, **given)


def _checked_next_fit(inst: Instance) -> tuple[Packing, NfTrace]:
    """``next_fit`` and its trace, once the trace passes the block weight
    inequality; a trace that fails it is an ``InternalError``."""
    packing, trace = next_fit(inst)
    if not check_block_inequality(inst, trace):
        raise InternalError("block weight inequality failed on a trace")
    return packing, trace


def _decimal(value: Fraction) -> str:
    """Display-only 6-place rendering of an exact ratio."""
    scaled = value.numerator * 10**6
    q, r = divmod(scaled, value.denominator)
    if 2 * r >= value.denominator:
        q += 1
    return f"{q // 10**6}.{q % 10**6:06d}"


# ---------------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.input)
    if args.algo == "a75" and inst.k != 2:
        k = brief_repr(inst.k)
        raise _CliError(EXIT_USAGE, f"--algo a75 requires k=2, instance has k={k}")
    for flag, value, algo in (
        ("--presort", args.presort, "nf"),
        ("--trace", args.trace, "nf"),
        ("--report", args.report, "a75"),
        ("--budget-nodes", args.budget_nodes, "exact"),
        ("--max-bins", args.max_bins, "exact"),
    ):
        if value is not None and args.algo != algo:
            raise _CliError(EXIT_USAGE, f"{flag} only applies to --algo {algo}")

    trace_doc = None
    report_doc = None
    if args.algo == "nf":
        run_inst = inst
        if args.presort:
            reverse = args.presort == "decreasing"
            order = sorted(range(inst.n), key=inst.sizes.__getitem__, reverse=reverse)
            run_inst = Instance(k=inst.k, sizes=tuple(inst.sizes[i] for i in order))
        packing, trace = _checked_next_fit(run_inst)
        trace_doc = {
            "blocks": [list(span) for span in trace.blocks],
            "close_reasons": [r.value for r in trace.close_reasons],
        }
        if args.presort:
            # Name the items by their positions in the input, not the run.
            packing = Packing.build(
                [[(order[i], part) for i, part in entries] for entries in packing.bins],
                packing.labels,
            )
    elif args.algo == "a75":
        report = pack_75(inst)
        packing = report.packing
        report_doc = {
            "bins": report.n_bins,
            "label_counts": dict(sorted(report.label_counts.items())),
            "reclassified_small": report.reclassified_small,
            "fallback_triggered": report.fallback_triggered,
        }
    else:
        _, packing = exact_opt(inst, _budget(args))

    problems = validate_packing(inst, packing)
    if problems:
        raise _CliError(EXIT_VERIFY, f"solver output is not valid: {problems[0]}")
    outputs = []
    if args.output:
        outputs.append(("packing", args.output, _dumps_packing(packing)))
    if args.trace:
        outputs.append(("trace", args.trace, json.dumps(trace_doc, indent=2) + "\n"))
    if args.report:
        outputs.append(("report", args.report, json.dumps(report_doc, indent=2) + "\n"))
    _save(outputs)
    print(f"bins={packing.n_bins} lower_bound={lower_bounds(inst).best}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    packing = _load(io.load_packing, "packing", args.packing)
    violations = validate_packing(inst, packing)
    for line in violations:
        print(line)
    if violations:
        return EXIT_VERIFY
    print(f"ok: {packing.n_bins} bins")
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    inst = _load_instance(args.input)
    report = lower_bounds(inst)
    print(
        f"size_bound={report.size_bound} weight_bound={report.weight_bound} "
        f"count_bound={report.count_bound} best={report.best}"
    )
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    """The item count, which follows from the flags, is checked against
    ``MAX_PARTS`` before generating, and --certified-output of a family
    without a certificate is rejected before writing."""
    what = f"gen {args.family}"
    certified = None
    try:
        if args.family == "nf-worst":
            # k < 2 counts one item, so that the generator reports the k.
            _bounded(what, 1 + args.m * args.k * max(args.k - 1, 0), "items")
            inst, certified = gen_nf_worst(args.k, args.m)
        elif args.family == "a75-worst":
            _bounded(what, 9 * args.n, "items")
            inst, certified = gen_a75_worst(args.n)
        elif args.family == "reduce3p":
            numbers = [int(x) for x in args.numbers.split(",") if x.strip()]
            _bounded(what, len(numbers) + len(numbers) // 3 * (args.k - 3), "items")
            inst = gen_from_3partition(numbers, args.b, args.k)
        else:  # random
            _bounded(what, args.n, "items")
            inst = gen_random(args.n, args.k, args.dist, args.seed)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    if args.certified_output and certified is None:
        raise _CliError(EXIT_USAGE, f"{args.family} has no certified packing")
    outputs = [("instance", args.output, io.dumps_instance(inst))]
    if args.certified_output:
        outputs.append(
            ("certified packing", args.certified_output, io.dumps_packing(certified))
        )
    _save(outputs)
    return EXIT_OK


def cmd_normalize(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    packing = _load(io.load_packing, "packing", args.input)
    if inst.k != 2:
        k = brief_repr(inst.k)
        raise _CliError(EXIT_USAGE, f"normalize requires k=2, instance has k={k}")
    try:
        result = normalize(inst, packing)
    except InvalidPackingError as exc:
        for line in exc.violations:
            print(line)
        return EXIT_VERIFY
    if args.check:
        problems = normalization_violations(inst, result)
        if problems or result.n_bins > packing.n_bins:
            for line in problems:
                print(line)
            return EXIT_VERIFY
    if args.output:
        _save([("packing", args.output, _dumps_packing(result))])
    print(f"bins={result.n_bins} (from {packing.n_bins})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Experiments.


def _experiment_nf(
    args: argparse.Namespace, writer: "csv.writer", budget: SearchBudget
) -> None:
    writer.writerow(
        ["trial", "n", "k", "dist", "sizes", "alg_bins", "opt_bins",
         "ratio", "ratio_decimal", "status"]
    )
    rng = random.Random(args.seed)
    max_ratio = Fraction(0)
    ok = skipped = 0
    use_a75 = args.suite == "a75-ratio"
    k = 2 if use_a75 else args.k
    dist = "mixed" if use_a75 else args.dist
    for trial in range(args.trials):
        n = rng.randint(1, args.max_n)
        inst = gen_random(n, k, dist, seed=rng.randrange(2**30))
        if use_a75:
            alg_bins = pack_75(inst).n_bins
        else:
            alg_bins = _checked_next_fit(inst)[0].n_bins
        row = [trial, n, k, dist, "|".join(map(str, inst.sizes)), alg_bins]
        try:
            opt, _ = exact_opt(inst, budget)
        except BudgetExceeded:
            skipped += 1
            writer.writerow(row + ["", "", "", "skipped"])
            continue
        ok += 1
        ratio = Fraction(alg_bins, opt) if opt else Fraction(0)
        max_ratio = max(max_ratio, ratio)
        writer.writerow(row + [opt, str(ratio), _decimal(ratio), "ok"])
    writer.writerow(
        ["summary", "", k, dist, "", "", "", str(max_ratio),
         _decimal(max_ratio), f"ok={ok};skipped={skipped}"]
    )


def _random_3partition(rng: random.Random, target: int) -> list[int]:
    lo, hi = target // 4 + 1, (target - 1) // 2
    while True:
        numbers = [rng.randint(lo, hi) for _ in range(5)]
        last = 2 * target - sum(numbers)
        if lo <= last <= hi:
            return numbers + [last]


def _experiment_reduction(
    args: argparse.Namespace, writer: "csv.writer", budget: SearchBudget
) -> None:
    writer.writerow(
        ["trial", "k", "target", "numbers", "brute", "packed", "agree"]
    )
    rng = random.Random(args.seed)
    agree = skipped = 0
    target = 20
    for trial in range(args.trials):
        numbers = _random_3partition(rng, target)
        expected = three_partition_brute(numbers, target)
        inst = gen_from_3partition(numbers, target, args.k)
        row = [trial, args.k, target, " ".join(map(str, numbers)), int(expected)]
        try:
            witness = feasible_in(inst, 2, budget)
        except BudgetExceeded:
            skipped += 1
            writer.writerow(row + ["", "skipped"])
            continue
        got = witness is not None
        agree += int(got == expected)
        writer.writerow(row + [int(got), int(got == expected)])
    writer.writerow(
        ["summary", args.k, target, "", "", "",
         f"{agree}/{args.trials - skipped}"]
    )


def _experiment_normalize(
    args: argparse.Namespace, writer: "csv.writer", budget: SearchBudget
) -> None:
    writer.writerow(
        ["trial", "n", "source", "bins_in", "bins_out", "ok"]
    )
    rng = random.Random(args.seed)
    ok = 0
    for trial in range(args.trials):
        n = rng.randint(1, args.max_n)
        inst = gen_random(n, 2, args.dist, seed=rng.randrange(2**30))
        source = "nf"
        packing, _ = next_fit(inst)
        if trial % 2 == 1:
            try:
                _, packing = exact_opt(inst, budget)
                source = "exact"
            except BudgetExceeded:
                pass
        result = normalize(inst, packing)
        good = (
            not normalization_violations(inst, result)
            and result.n_bins <= packing.n_bins
            and normalize(inst, result).key() == result.key()
        )
        ok += int(good)
        writer.writerow(
            [trial, n, source, packing.n_bins, result.n_bins, int(good)]
        )
    writer.writerow(["summary", "", "", "", "", f"{ok}/{args.trials}"])


# Each experiment suite: its runner and the suite flags that it reads. This
# table is the one list of suites: `--suite` takes its choices from it, and
# cmd_experiment its runner and the suites named by the flag rule. A new
# suite is one row here plus its runner.
_SUITES = {
    "nf-ratio": (_experiment_nf, ("--max-n", "--k", "--dist")),
    "a75-ratio": (_experiment_nf, ("--max-n",)),
    "reduction-check": (_experiment_reduction, ("--k",)),
    "normalize-check": (_experiment_normalize, ("--max-n", "--dist")),
}


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run the ``_SUITES`` row of --suite. A suite flag that its row does
    not list is a usage error, which names the suites that read the flag;
    one not given takes its default. So is a draw that could need more than
    ``MAX_PARTS`` parts."""
    run, reads = _SUITES[args.suite]
    for flag, name, default in (
        ("--max-n", "max_n", 6),
        ("--k", "k", 2),
        ("--dist", "dist", "uniform"),
    ):
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif flag not in reads:
            suites = ", ".join(s for s, (_, flags) in _SUITES.items() if flag in flags)
            raise _CliError(EXIT_USAGE, f"{flag} only applies to --suite {suites}")
    _at_least("--max-n", args.max_n, 1)
    _at_least("--k", args.k, 2)
    _at_least("--trials", args.trials, 0)
    if args.suite == "reduction-check":
        if args.k < 3:
            raise _CliError(
                EXIT_USAGE, f"reduction-check requires k >= 3, got k={args.k}"
            )
        # Six numbers and 2(k - 3) padding items, each below 1.
        parts = 6 + 2 * (args.k - 3)
    else:
        # Up to max_n sizes of at most 2, or at most k under heavy.
        parts = args.max_n * (args.k if args.dist == "heavy" else 2)
    _bounded(f"experiment {args.suite}", parts, "parts in a draw")
    budget = _budget(args)
    out = sys.stdout if args.output is None else _open(
        "CSV", args.output, "w", newline=""
    )
    try:
        writer = csv.writer(out, lineterminator="\n")
        run(args, writer, budget)
    finally:
        if args.output is not None:
            out.close()
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitpack",
        description="Splittable-item bin packing with at most k parts per bin.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="pack an instance file")
    solve.add_argument("--algo", choices=("nf", "a75", "exact"), required=True)
    solve.add_argument("--input", required=True)
    solve.add_argument("--output", help="packing JSON destination")
    solve.add_argument("--trace", help="next-fit trace JSON (nf only)")
    solve.add_argument("--report", help="label-count report JSON (a75 only)")
    solve.add_argument("--presort", choices=("increasing", "decreasing"))
    solve.add_argument("--max-bins", type=int)
    solve.add_argument("--budget-nodes", type=int)
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check a packing against an instance")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--packing", required=True)
    verify.set_defaults(func=cmd_verify)

    bounds = sub.add_parser("bounds", help="print the lower bounds")
    bounds.add_argument("--input", required=True)
    bounds.set_defaults(func=cmd_bounds)

    gen = sub.add_parser("gen", help="emit generated instances")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    nf_worst = gen_sub.add_parser("nf-worst")
    nf_worst.add_argument("--k", type=int, required=True)
    nf_worst.add_argument("--m", type=int, required=True)
    a75_worst = gen_sub.add_parser("a75-worst")
    a75_worst.add_argument("--n", type=int, required=True)
    reduce3p = gen_sub.add_parser("reduce3p")
    reduce3p.add_argument("--b", type=int, required=True)
    reduce3p.add_argument("--numbers", required=True, help="comma separated")
    reduce3p.add_argument("--k", type=int, required=True)
    rand = gen_sub.add_parser("random")
    rand.add_argument("--n", type=int, required=True)
    rand.add_argument("--k", type=int, required=True)
    rand.add_argument("--dist", choices=DISTRIBUTIONS, default="uniform")
    rand.add_argument("--seed", type=int, default=0)
    for sp in (nf_worst, a75_worst, reduce3p, rand):
        sp.add_argument("--output", help="instance JSON (default stdout)")
        sp.add_argument("--certified-output", help="certified packing JSON")
        sp.set_defaults(func=cmd_gen)

    norm = sub.add_parser("normalize", help="apply the structural rewrites")
    norm.add_argument("--input", required=True, help="packing JSON")
    norm.add_argument("--instance", required=True)
    norm.add_argument("--output")
    norm.add_argument("--check", action="store_true")
    norm.set_defaults(func=cmd_normalize)

    exp = sub.add_parser("experiment", help="ratio sweeps with CSV reports")
    exp.add_argument("--suite", choices=_SUITES, required=True)
    exp.add_argument("--trials", type=int, default=100)
    exp.add_argument("--seed", type=int, default=0)
    # Defaults are set per suite by cmd_experiment: 6, 2 and uniform.
    exp.add_argument("--max-n", type=int)
    exp.add_argument("--k", type=int)
    exp.add_argument("--dist", choices=DISTRIBUTIONS)
    exp.add_argument("--output", help="CSV destination (default stdout)")
    exp.add_argument("--max-bins", type=int)
    exp.add_argument("--budget-nodes", type=int)
    exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except BudgetExceeded as exc:
        print(f"oracle budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
