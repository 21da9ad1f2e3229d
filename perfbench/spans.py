"""Span recording around the public library calls an op makes.

The package is not instrumented: an op calls every library function through
a ``call(fn, *args)`` hook. Untraced runs use ``direct``, which only forwards
the call. Traced runs use ``Recorder.call``, which keeps one span per call in
memory: name, start, end, parent op span and op id. ``Recorder.write`` puts
them on disk once the run is over.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

NO_PARENT = -1


def direct(fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


def span_name(fn: Callable[..., Any]) -> str:
    """``<layer>.<function>``, the layer being the splitpack module."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Recorder:
    """In-memory spans. Each span is a tuple
    ``(name, start_ns, end_ns, parent_index, op_id)``; a call span's parent is
    the index of the enclosing op span, an op span has no parent."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.op_scales: list[float] = []  # speed scale of each op span, in order
        self._names: dict[Callable[..., Any], str] = {}
        self._parent = NO_PARENT
        self._op_id = NO_PARENT

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._parent = len(self.spans)
        self.spans.append(("op", 0, 0, NO_PARENT, op_id))

    def end_op(self, start_ns: int, end_ns: int, scale: float) -> None:
        self.op_scales.append(scale)
        self.spans[self._parent] = ("op", start_ns, end_ns, NO_PARENT, self._op_id)
        self._parent = NO_PARENT
        self._op_id = NO_PARENT

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        name = self._names.get(fn)
        if name is None:
            name = self._names[fn] = span_name(fn)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append(
                (name, start, time.perf_counter_ns(), self._parent, self._op_id)
            )

    def cost_per_span_s(self, calls: int = 20_000) -> float:
        """Measured extra cost of one recorded call over a direct call."""
        probe = Recorder()

        def noop() -> None:
            return None

        best = float("inf")
        for _ in range(5):
            start = time.perf_counter_ns()
            for _ in range(calls):
                direct(noop)
            plain = time.perf_counter_ns() - start
            start = time.perf_counter_ns()
            for _ in range(calls):
                probe.call(noop)
            traced = time.perf_counter_ns() - start
            probe.spans.clear()
            best = min(best, (traced - plain) / calls)
        return best / 1e9

    def write(self, path: str, op_names: list[str]) -> None:
        """One JSON object per line: first the op names by id and the speed
        scale of each op span in order, then one
        ``[name, start_ns, end_ns, parent, op_id]`` list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"ops": op_names, "op_scales": self.op_scales}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of a traced run.

LAYERS = ("io", "core", "nextfit", "algo75", "exact", "normalize")

# Mean seconds per call, by metric name and span name.
MEAN_CALL_S = {
    "io.load_instance_s": "io.load_instance",
    "io.load_packing_s": "io.load_packing",
    "io.save_packing_s": "io.save_packing",
    "core.validate_packing_s": "core.validate_packing",
    "core.lower_bounds_s": "core.lower_bounds",
    "nextfit.next_fit_s": "nextfit.next_fit",
    "nextfit.check_block_inequality_s": "nextfit.check_block_inequality",
    "algo75.pack_75_s": "algo75.pack_75",
    "exact.feasible_in_s": "exact.feasible_in",
    "normalize.remove_cycles_s": "normalize.remove_cycles",
    "normalize.smalls_to_leaves_s": "normalize.smalls_to_leaves",
    "normalize.bound_degrees_s": "normalize.bound_degrees",
    "normalize.violations_s": "normalize.normalization_violations",
}
NORMALIZE_STEPS = (
    "normalize.remove_cycles",
    "normalize.smalls_to_leaves",
    "normalize.bound_degrees",
)
IO_CALLS = ("io.load_instance", "io.load_packing", "io.save_packing")


def layer_metrics(rec: Recorder, ops: list, results: list, passes: int,
                  cost_per_span_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer self time, throughput and counts.

    Call spans nest directly under their op span, so a call's self time is
    its duration and an op's self time is what no call covers. Durations in
    the window carry their op's speed scale. Times are means per call over
    the whole window; counts are per pass, from the first pass's results,
    which every later pass repeats.
    """
    calls: dict[str, list[tuple[float, int]]] = {}
    op_time = call_time = op_raw = 0.0
    window_spans = 0
    gen_times: list[float] = []
    scales = iter(rec.op_scales)
    scale = 1.0
    for name, start, end, parent, op_id in rec.spans:
        raw = (end - start) / 1e9
        if op_id == NO_PARENT:  # set-up
            if name.startswith("generators."):
                gen_times.append(raw)
            continue
        window_spans += 1
        if parent == NO_PARENT:
            scale = next(scales)
            op_time += scale * raw
            op_raw += raw
        else:
            calls.setdefault(name, []).append((scale * raw, op_id))
            call_time += scale * raw

    def mean(name: str, keep=lambda op_id: True) -> float:
        xs = [s for s, i in calls.get(name, ()) if keep(i)]
        return sum(xs) / len(xs) if xs else 0.0

    def us_per_item(names: tuple[str, ...], cls: str) -> float:
        seconds = sum(s for n in names for s, i in calls.get(n, ()) if ops[i].size_class == cls)
        items = sum(ops[i].items for _, i in calls.get(names[0], ()) if ops[i].size_class == cls)
        return 1e6 * seconds / items if items else 0.0

    def items_per_s(names: tuple[str, ...]) -> float:
        seconds = sum(s for n in names for s, _ in calls.get(n, ()))
        items = sum(ops[i].items for n in names for _, i in calls.get(n, ()))
        return items / seconds if seconds else 0.0

    def share(layer: str) -> float:
        prefix = layer + "."
        return sum(s for n, xs in calls.items() if n.startswith(prefix) for s, _ in xs) / op_time

    exact_s = calls.get("exact.exact_opt", [])
    solved = sum(r.solved is True for r in results)
    exceeded = sum(r.solved is False for r in results)
    out: dict[str, tuple[float, str]] = {
        metric: (mean(name), "s") for metric, name in MEAN_CALL_S.items()
    }
    out.update({
        "io.items_per_s": (items_per_s(IO_CALLS), "1/s"),
        "core.validate_items_per_s": (items_per_s(("core.validate_packing",)), "1/s"),
        "nextfit.us_per_item.1e3": (us_per_item(("nextfit.next_fit",), "1e3"), "us"),
        "nextfit.us_per_item.1e4": (us_per_item(("nextfit.next_fit",), "1e4"), "us"),
        "nextfit.calls": (len(calls.get("nextfit.next_fit", ())) / passes, "count"),
        "algo75.us_per_item.1e3": (us_per_item(("algo75.pack_75",), "1e3"), "us"),
        "algo75.us_per_item.1e4": (us_per_item(("algo75.pack_75",), "1e4"), "us"),
        "algo75.repairs_triggered": (sum(r.repair for r in results), "count"),
        "algo75.repair_pack_75_s": (mean("algo75.pack_75", lambda i: results[i].repair), "s"),
        "exact.exact_opt_s.k2": (mean("exact.exact_opt", lambda i: ops[i].k == 2), "s"),
        "exact.exact_opt_s.k3": (mean("exact.exact_opt", lambda i: ops[i].k == 3), "s"),
        "exact.exact_opt_s.max": (max((s for s, _ in exact_s), default=0.0), "s"),
        "exact.solved": (solved, "count"),
        "exact.budget_exceeded": (exceeded, "count"),
        "exact.solved_frac": (solved / (solved + exceeded) if solved + exceeded else 0.0, "frac"),
        "exact.levels_above_lb": (sum(r.levels_above_lb for r in results), "count"),
        "normalize.bins_removed": (sum(r.bins_removed for r in results), "count"),
        "normalize.us_per_item.1e3": (us_per_item(NORMALIZE_STEPS, "1e3"), "us"),
        "normalize.us_per_item.2e3": (us_per_item(NORMALIZE_STEPS, "2e3"), "us"),
        "generators.gen_s": (sum(gen_times) / len(gen_times) if gen_times else 0.0, "s"),
    })
    out.update({f"{layer}.share": (share(layer), "frac") for layer in LAYERS})
    out["trace.overhead_frac"] = (cost_per_span_s * window_spans / op_raw, "frac")
    out["trace.unattributed_frac"] = ((op_time - call_time) / op_time, "frac")
    return out
