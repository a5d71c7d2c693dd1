"""In-memory span recording for the traced benchmark run, and its summary.

A span is ``[name, t0, t1, sid, parent, ident, attrs]``: ``t0``/``t1`` are
``time.perf_counter()`` readings (CLOCK_MONOTONIC, shared by every process
on the host), ``sid`` is unique within its process, ``parent`` is the sid
of the enclosing span on the same process's stack (``None`` for a root),
``ident`` names the chunk or request the span worked on, and ``attrs``
holds counts measured at the boundary.

The main process keeps its spans in memory and writes them when the
program returns (:meth:`Tracer.finish`). Process-pool workers are forked
from it mid-run and exit without running exit hooks, so a worker detects
the pid change, drops the inherited state and appends every span to its
own ``spans-<pid>.jsonl`` as soon as the span closes.

:func:`summarize` turns a directory of sidecars into the per-layer
metrics listed in ``BENCHMARK.json``. A layer's self time is its spans'
durations minus the part their direct children cover. Per process, the
root spans' durations plus the unattributed time equal the process's
wall time; worker processes add their own (parallel) self times.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from pathlib import Path

#: The tracer of this process, set once by the launcher (``launch.py``);
#: forked pool workers inherit it.
TRACER: "Tracer | None" = None


class Tracer:
    def __init__(self, directory: str, started: float) -> None:
        self.directory = Path(directory)
        self.started = started
        self.pid = os.getpid()
        self.worker = False
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.next_sid = 0
        self.sink = None

    def _check_fork(self) -> None:
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.worker = True
            self.spans = []
            self.stack = []
            self.sink = None

    def open(self, name: str, ident=None, attrs: dict | None = None) -> list:
        self._check_fork()
        self.next_sid += 1
        parent = self.stack[-1][3] if self.stack else None
        span = [name, time.perf_counter(), None, self.next_sid, parent, ident,
                attrs or {}]
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        # Usually the top; a generator's span can close out of order.
        self.stack = [open_span for open_span in self.stack
                      if open_span is not span]
        if self.worker:
            # Flushed per span because a worker exits without closing it.
            if self.sink is None:
                self.sink = open(self.directory / f"spans-{self.pid}.jsonl", "a")
            self.sink.write(json.dumps(_span_record(span, self.pid)) + "\n")
            self.sink.flush()
        else:
            self.spans.append(span)

    def finish(self) -> None:
        """Write the main process's spans and its wall-time record."""
        ended = time.perf_counter()
        path = self.directory / f"spans-{self.pid}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps({"process": self.pid, "t0": self.started,
                                 "t1": ended}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(_span_record(span, self.pid)) + "\n")


class TracedKernel:
    """A chunk kernel wrapped in a ``batch.kernel`` span. Picklable by
    reference, so process-pool workers run it too; *call* names the
    ``util.parallel`` span (pid, sid) that dispatched it."""

    def __init__(self, fn, call) -> None:
        self.fn = fn
        self.call = call

    def __call__(self, chunk):
        span = TRACER.open(
            "batch.kernel",
            f"{chunk.label}/{chunk.num_users}x{chunk.num_links}/"
            f"{chunk.rep_lo}-{chunk.rep_hi}",
            {"call": self.call},
        )
        try:
            return self.fn(chunk)
        finally:
            TRACER.close(span)


def _span_record(span: list, pid: int) -> dict:
    name, t0, t1, sid, parent, ident, attrs = span
    return {"name": name, "t0": t0, "t1": t1, "sid": sid, "parent": parent,
            "pid": pid, "id": ident, "attrs": attrs}


#: Span name -> the per-layer self-time metric it feeds (seconds).
SELF_TIME_METRICS = {
    "generators": "generators.s",
    "batch.kernel": "batch.kernel_self_s",
    "batch.fixpoint": "batch.fixpoint_s",
    "runtime.canonicalise": "runtime.canonicalise_s",
    "runtime.store_append": "runtime.store_append_s",
    "runtime.store_load": "runtime.store_load_s",
    "util.parallel": "util.parallel.self_s",
    "analysis.scaling": "analysis.scaling_s",
    "analysis.cycles": "analysis.cycles_s",
    "substrates.milchtaich": "substrates.milchtaich_s",
    "experiments": "experiments.self_s",
    "service.decode": "service.decode_s",
    "service.validate": "service.validate_s",
    "service.encode": "service.encode_s",
    "service.solve": "service.solve_s",
    "service.fixpoint": "service.fixpoint_s",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample); failed requests,
    timed as infinite, sort last."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def load_spans(directories) -> tuple[list[dict], list[dict]]:
    spans: list[dict] = []
    processes: list[dict] = []
    for directory in directories:
        for path in sorted(Path(directory).glob("spans-*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    record = json.loads(line)
                    (processes if "process" in record else spans).append(record)
    return spans, processes


def summarize(directories) -> dict[str, float]:
    """Per-layer metrics from the sidecars in *directories*.

    ``trace.wall_s`` sums the wall time of every traced main process;
    ``trace.attributed_s`` sums the self time of their spans, so
    ``trace.attributed_s + unattributed_s == trace.wall_s``. Worker
    spans (``batch.kernel`` and its children under a process pool) run in
    parallel with the main process and are reported on top of it.
    """
    spans, processes = load_spans(directories)
    main_pids = {p["process"] for p in processes}
    child_time: dict[tuple[int, int], float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["t1"] - s["t0"]
    by_name: dict[str, list[dict]] = {}
    self_time = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    attributed = 0.0
    for s in spans:
        own = s["t1"] - s["t0"] - child_time.get((s["pid"], s["sid"]), 0.0)
        self_time[SELF_TIME_METRICS[s["name"]]] += own
        if s["pid"] in main_pids:
            attributed += own
        by_name.setdefault(s["name"], []).append(s)
    wall = sum(p["t1"] - p["t0"] for p in processes)

    def durations(name: str) -> list[float]:
        return [s["t1"] - s["t0"] for s in by_name.get(name, [])]

    def attr_sum(name: str, key: str) -> int:
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, []))

    kernel_by_call: dict[tuple[int, int], float] = {}
    for s in by_name.get("batch.kernel", []):
        call = s["attrs"].get("call")
        if call is not None:
            key = tuple(call)
            kernel_by_call[key] = kernel_by_call.get(key, 0.0) + s["t1"] - s["t0"]
    capacity = sum((s["t1"] - s["t0"]) * s["attrs"]["workers"]
                   for s in by_name.get("util.parallel", []))
    busy = sum(kernel_by_call.get((s["pid"], s["sid"]), 0.0)
               for s in by_name.get("util.parallel", []))
    fixpoint_games = attr_sum("batch.fixpoint", "games")
    waits = [w for s in by_name.get("service.solve", []) +
             by_name.get("service.fixpoint", [])
             for w in s["attrs"].get("queue_waits", [])]
    solver_calls = durations("service.solve") + durations("service.fixpoint")
    metrics = {
        **self_time,
        "batch.fixpoint_rounds": attr_sum("batch.fixpoint", "rounds"),
        "batch.fixpoint_certified_ratio": (
            attr_sum("batch.fixpoint", "certified") / fixpoint_games
            if fixpoint_games else 0.0
        ),
        "runtime.store_appends": len(by_name.get("runtime.store_append", [])),
        "runtime.store_bytes": attr_sum("runtime.store_append", "bytes"),
        "runtime.store_records_read": attr_sum("runtime.store_load", "records"),
        "util.parallel.busy_ratio": busy / capacity if capacity else 0.0,
        "substrates.milchtaich_restarts": attr_sum(
            "substrates.milchtaich", "restarts"
        ),
        "service.decode_us": _mean(durations("service.decode")) * 1e6,
        "service.validate_us": _mean(durations("service.validate")) * 1e6,
        "service.encode_us": _mean(durations("service.encode")) * 1e6,
        "service.queue_wait_p50_ms": percentile(waits, 50) * 1e3,
        "service.queue_wait_p99_ms": percentile(waits, 99) * 1e3,
        "service.solve_window_ms": _mean(durations("service.solve")) * 1e3,
        "service.fixpoint_window_ms": _mean(durations("service.fixpoint")) * 1e3,
        "service.loop_block_max_ms": max(solver_calls, default=0.0) * 1e3,
        "trace.wall_s": wall,
        "trace.attributed_s": attributed,
        "unattributed_s": wall - attributed,
        "unattributed_share": (wall - attributed) / wall if wall else 0.0,
        # Read from the service's stats op by the harness, not from spans.
        "service.batch_games_mean": 0.0,
        "service.cache_hit_ratio": 0.0,
        "service.coalesced": 0,
    }
    return metrics
