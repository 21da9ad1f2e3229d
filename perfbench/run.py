"""splitpack benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload bulk|oracle|rewrite|all \
        --seed N --seconds S --trace 0|1

Run from a source checkout: the package is imported from ``src/`` next to
this directory, never from an installed copy. Each run

1. sets the workload up several times (import splitpack, generate and write
   the inputs) and reports the median as ``setup_s``;
2. runs the inputs made from a fixed reference seed once, untimed, as the
   warm-up, and compares the output digest with ``digests.json``;
3. runs whole passes over the inputs made from ``--seed`` until ``--seconds``
   have gone by, timing each op and scaling its time by the machine's
   current speed, with garbage collection and speed probes kept outside the
   timers, and checks every output;
4. runs one input through ``splitpack.cli.main`` and compares its output file
   byte for byte with the library path's file;
5. prints every metric with its unit, writes the results with their
   provenance to ``perfbench/out/``, and prints one JSON line last.

Untraced runs report the end-to-end metrics. ``--trace 1`` records one span
per library call and reports the per-layer metrics instead. Any failed
check, digest mismatch or CLI parity mismatch exits with status 1; a missing
checkout or a run mode that strips assertions exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io as stdio
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import ModuleType
from typing import Any

import spans
import workloads
from workloads import NO_ANSWER, CheckFailed, Op, Result, expect

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("bulk", "oracle", "rewrite")
# On a shared host the interpreter's speed drifts by 10-20% over tens of
# seconds, and a median over passes does not remove a drift that lasts the
# whole run. Each op's time is therefore scaled by KERNEL_REFERENCE_S over
# the time a fixed kernel took next to it (see SpeedProbe): op times are
# seconds at the speed at which the kernel takes 1 ms. On a 2-core x86_64
# host this cut the pass-to-pass spread of a pass's time from 15% to 3.5%
# (oracle) and from 8% to 6% (bulk).
KERNEL_REFERENCE_S = 0.001
PROBE_EVERY_S = 0.1
REFERENCE_SEED = 0
SETUP_REPEATS = 5
# Fixed per workload: at least ten op samples beyond it in a 25-second run,
# and inside a group of similar ops so that it moves by under 10% between
# seeds (see README.md).
TAIL_PERCENTILE = {"bulk": 90, "oracle": 98, "rewrite": 75}

EXIT_CHECK = 1
EXIT_ENV = 2


class EnvironmentRefused(Exception):
    """The benchmark cannot run here: no source checkout, or a run mode that
    changes the program being measured."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def refuse_altered_mode() -> None:
    """pack_75, exact and cli guard their outputs with assert statements; a
    run that strips them measures a different program."""
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        raise EnvironmentRefused(
            "refusing to run with -O or PYTHONOPTIMIZE: the assert-guarded "
            "validation in pack_75, exact and cli is part of what is measured"
        )


def import_splitpack() -> ModuleType:
    """Import splitpack afresh from the checkout's ``src/``."""
    if not (SRC / "splitpack" / "__init__.py").is_file():
        raise EnvironmentRefused(f"no splitpack sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "splitpack" or m.startswith("splitpack.")]:
        del sys.modules[name]
    sp = importlib.import_module("splitpack")
    importlib.import_module("splitpack.io")
    importlib.import_module("splitpack.cli")
    if Path(sp.__file__).resolve().parent != (SRC / "splitpack").resolve():
        raise EnvironmentRefused(f"splitpack imported from {sp.__file__}, not {SRC}")
    return sp


def provenance() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "interpreter_flags": {
            name: getattr(sys.flags, name)
            for name in dir(sys.flags)
            if not name.startswith("_") and isinstance(getattr(sys.flags, name), int)
        },
    }


def speed_kernel_s() -> float:
    """Best of three runs of a fixed loop of Fraction arithmetic, the
    package's own kind of work; about 1.4 ms on a 2-core x86_64 host under
    Python 3.11."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter_ns()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i % 23 + 1)
        best = min(best, time.perf_counter_ns() - start)
    return best / 1e9


class SpeedProbe:
    """Speed scales from the kernel, probed outside every timer: before an op
    when the last probe is older than PROBE_EVERY_S, and right after an op
    that ran that long, which then gets the mean of both kernel times."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self._at = -math.inf

    def _probe(self) -> None:
        self.kernel_s.append(speed_kernel_s())
        self._at = time.perf_counter()

    def before_op(self) -> None:
        if time.perf_counter() - self._at >= PROBE_EVERY_S:
            self._probe()

    def scale_after(self, op_s: float) -> float:
        before = self.kernel_s[-1]
        if op_s < PROBE_EVERY_S:
            return KERNEL_REFERENCE_S / before
        self._probe()
        return 2 * KERNEL_REFERENCE_S / (before + self.kernel_s[-1])


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# Running ops.


def workload_digest(ops: list[Op], results: list[Result]) -> dict[str, str]:
    h = hashlib.sha256()
    for op, res in zip(ops, results):
        h.update(op.name.encode() + b"\n" + res.digest.encode())
    out = {"sha256": h.hexdigest()}
    answers = [res.answer for res in results if res.answer]
    if answers:
        out["answers"] = ",".join(answers)
    return out


def compare_digest(workload: str, got: dict[str, str]) -> None:
    """The heuristic and normalize outputs must match byte for byte. Oracle
    answers must match wherever both the recording and this run have one:
    a search that solves more within the node budget is not a mismatch."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
    expect(recorded is not None, f"digests.json has no entry for {workload}: got {got}")
    expect(
        got["sha256"] == recorded["sha256"],
        f"{workload}: output digest {got['sha256']} differs from recorded {recorded['sha256']}",
    )
    if "answers" in recorded or "answers" in got:
        mine = got.get("answers", "").split(",")
        theirs = recorded.get("answers", "").split(",")
        expect(len(mine) == len(theirs), f"{workload}: {len(mine)} oracle answers, recorded {len(theirs)}")
        for idx, (a, b) in enumerate(zip(mine, theirs)):
            expect(
                a == b or NO_ANSWER in (a, b),
                f"{workload}: reference input {idx}: oracle answer {a}, recorded {b}",
            )


def cli_parity(sp: ModuleType, op: Op, workdir: str) -> str:
    """Run one input through ``splitpack.cli.main`` in-process and compare its
    output file byte for byte with the library path's file."""
    cli_out = os.path.join(workdir, "cli-output.json")
    argv, lib_out = op.cli(cli_out)
    want = 0 if lib_out is not None else sp.cli.EXIT_BUDGET
    env = sp.exact.BUDGET_ENV_VAR
    saved = os.environ.get(env)
    # The CLI takes the oracle's item limit from the environment only.
    os.environ[env] = f"items={workloads.ORACLE_ITEMS}"
    try:
        with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(stdio.StringIO()):
            code = sp.cli.main(argv)
    finally:
        if saved is None:
            del os.environ[env]
        else:
            os.environ[env] = saved
    command = f"splitpack {argv[0]}"
    expect(code == want, f"cli parity: {command} on {op.name} exited {code}, expected {want}")
    if lib_out is not None:
        expect(
            Path(cli_out).read_bytes() == Path(lib_out).read_bytes(),
            f"cli parity: {command} output for {op.name} differs from the library's",
        )
    return f"{command} on {op.name}: exit {code}" + (", same bytes" if lib_out else "")


def parity_op(ops: list[Op], results: list[Result]) -> Op:
    """The first input with a CLI form; for oracle inputs, the first whose
    heuristics miss the lower bound, so that the search itself runs."""
    for op, res in zip(ops, results):
        if op.cli is not None and (op.inst is None or res.bins > res.lb):
            return op
    raise CheckFailed("no input qualifies for the CLI parity check")


# ---------------------------------------------------------------------------
# Metrics.


def end_to_end(workload: str, ops: list[Op], samples: list[list[float]],
               results: list[Result], setup_times: list[float]) -> dict[str, tuple[float, str]]:
    """Each op's time is its median over the passes, so one disturbed pass
    does not move it. Throughput divides one pass's work by the sum of
    those times; the latency percentiles rank them, each standing for one
    sample per pass."""
    typical = [statistics.median(s) for s in samples]
    pass_s = sum(typical)
    ranked = sorted(typical)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (sum(op.items for op in ops) / pass_s, "1/s"),
        "instances_per_s": (len(ops) / pass_s, "1/s"),
        "op_s.p50": (percentile(ranked, 50), "s"),
        "op_s.tail": (percentile(ranked, TAIL_PERCENTILE[workload]), "s"),
        "solved_frac": (sum(r.solved is not False for r in results) / len(results), "frac"),
        "bins_per_lb": (sum(r.bins for r in results) / sum(r.lb for r in results), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def tail_note(workload: str, samples: list[list[float]]) -> str:
    total = sum(len(s) for s in samples)
    pct = TAIL_PERCENTILE[workload]
    beyond = total - max(1, math.ceil(pct / 100 * total))
    return f"op_s.tail is p{pct} of {total} op samples ({beyond} beyond it)"


def emit(workload: str, metrics: dict[str, tuple[float, str]], record: dict[str, Any],
         attempted: int) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload:8s} {name:36s} {value:.6g} {unit}")
    tag = f"{workload}-seed{record['seed']}-trace{record['trace']}"
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": record["metrics"],
    }))


# ---------------------------------------------------------------------------
# One workload.


def setup(workload: str, seed: int, workdir: Path, call: Any) -> tuple[float, ModuleType, list[Op]]:
    """Import the package, generate the inputs and write them: ``setup_s``."""
    start = time.perf_counter()
    sp = import_splitpack()
    workdir.mkdir(parents=True)
    ops = workloads.BUILDERS[workload](sp, seed, str(workdir), call)
    return time.perf_counter() - start, sp, ops


def measure(ops: list[Op], call: Any, recorder: spans.Recorder | None,
            seconds: float) -> tuple[list[list[float]], list[list[float]], list[Result], list[float]]:
    """Whole passes over the ops until ``seconds`` have gone by. The collector
    and the speed probe run between ops, never inside a timer, and every
    output is checked. Returns scaled and raw op times per op, the first
    pass's results and the kernel times."""
    traced = recorder is not None
    probe = SpeedProbe()
    samples: list[list[float]] = [[] for _ in ops]
    raw: list[list[float]] = [[] for _ in ops]
    results: list[Result] = []
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        start = time.perf_counter()
        while not results or time.perf_counter() - start < seconds:
            for op_id, op in enumerate(ops):
                gc.collect()
                probe.before_op()
                if traced:
                    recorder.begin_op(op_id)
                t0 = time.perf_counter_ns()
                try:
                    out = op.run(call, traced)
                except Exception as exc:
                    raise CheckFailed(f"{op.name}: raised {exc!r}") from exc
                t1 = time.perf_counter_ns()
                scale = probe.scale_after((t1 - t0) / 1e9)
                if traced:
                    recorder.end_op(t0, t1, scale)
                raw[op_id].append((t1 - t0) / 1e9)
                samples[op_id].append(scale * (t1 - t0) / 1e9)
                res = op.check(out, False)
                if len(results) < len(ops):
                    results.append(res)
                else:
                    expect(res.summary == results[op_id].summary,
                           f"{op.name}: output changed between passes: "
                           f"{results[op_id].summary} then {res.summary}")
    finally:
        gc.enable()
        gc.unfreeze()
    return samples, raw, results, probe.kernel_s


def run_workload(args: argparse.Namespace) -> int:
    refuse_altered_mode()
    workload, traced = args.workload, bool(args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT_DIR / f"work-{tag}-{os.getpid()}"
    recorder = spans.Recorder() if traced else None
    call = recorder.call if recorder else spans.direct
    try:
        setup_raw, setup_times = [], []
        probe = SpeedProbe()
        for rep in range(SETUP_REPEATS):
            if rep:
                shutil.rmtree(scratch / f"setup{rep - 1}")
            probe.before_op()
            elapsed, sp, ops = setup(workload, args.seed, scratch / f"setup{rep}", call)
            setup_raw.append(elapsed)
            setup_times.append(probe.scale_after(elapsed) * elapsed)
        workdir = str(scratch / f"setup{SETUP_REPEATS - 1}")

        # Reference inputs: warm-up and output digest. A traced run takes
        # its own code path here too (normalize as three steps), so the
        # digest shows that path does the same work.
        (scratch / "reference").mkdir()
        ref_ops = workloads.BUILDERS[workload](sp, REFERENCE_SEED, str(scratch / "reference"), spans.direct)
        ref_call = spans.Recorder().call if traced else spans.direct
        ref_results = [op.check(op.run(ref_call, traced), True) for op in ref_ops]
        digest = workload_digest(ref_ops, ref_results)
        compare_digest(workload, digest)
        del ref_ops, ref_results

        samples, raw, results, kernel_s = measure(ops, call, recorder, args.seconds)
        parity = cli_parity(sp, parity_op(ops, results), workdir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(s) for s in samples)
    passes = len(samples[0])
    record: dict[str, Any] = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "passes": passes,
        "ops_per_pass": len(ops),
        "op_samples": attempted,
        "tail": tail_note(workload, samples),
        "digest": digest,
        "cli_parity": parity,
        "setup_s_each": setup_raw,
        "op_median_s": {op.name: statistics.median(s) for op, s in zip(ops, samples)},
        "speed_kernel_s": {"median": statistics.median(kernel_s), "min": min(kernel_s),
                           "max": max(kernel_s), "probes": len(kernel_s)},
        "unscaled": {
            name: value for name, (value, _) in
            end_to_end(workload, ops, raw, results, setup_raw).items()
            if name in ("setup_s", "items_per_s", "instances_per_s", "op_s.p50", "op_s.tail")
        },
    }
    print(f"{workload}: {passes} passes of {len(ops)} ops; {record['tail']}")
    print(f"{workload}: digest {digest['sha256'][:16]} matches digests.json; cli parity: {parity}")
    print(f"{workload}: python {record['provenance']['python']} on {record['provenance']['machine']}, "
          f"nproc {record['provenance']['nproc']}")
    if traced:
        metrics = spans.layer_metrics(recorder, ops, results, passes, recorder.cost_per_span_s())
        spans_path = OUT_DIR / f"spans-{tag}.jsonl"
        recorder.write(str(spans_path), [op.name for op in ops])
        record["spans_file"] = spans_path.name
    else:
        metrics = end_to_end(workload, ops, samples, results, setup_times)
    emit(workload, metrics, record, attempted)
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; the last line merges their results
    with metric names prefixed by the workload."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode or result is None or not result["correct"]:
            status = proc.returncode or EXIT_CHECK
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": status == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            refuse_altered_mode()
            return run_all(args)
        return run_workload(args)
    except EnvironmentRefused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_ENV
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
