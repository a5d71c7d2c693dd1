"""The benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the repository root.

Workloads (settings in ``perfbench/workloads.json``):

* ``campaign`` — ``run all`` on the full grid, fresh store, then
  ``run all --resume`` on the complete store;
* ``service``  — ``serve`` in its own process, driven open-loop for
  ``--seconds`` by ``loadgen.py``.

Both report the same end-to-end metrics: the seconds clients wait for
answers the program has to compute (``compute_wait_s``), the seconds
they wait for answers it already holds or that need no solver work
(``reuse_wait_s``), ``setup_s`` and ``peak_rss_mb``. The program is
driven only from outside, through ``python3 -m repro`` with
``PYTHONPATH=src``. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload through ``launch.py`` (spans on every
layer boundary) and prints the per-layer metrics plus the tracing
overhead against an untraced run of the same seed. ``--seconds`` sets
the service's load duration; ``campaign`` runs a fixed amount of work.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import tracer  # noqa: E402

ROOT = Path.cwd()
STATE = ROOT / ".perfbench"
VERDICT = re.compile(r"^\[(E\d+)\] .* — (PASS|FAIL)$", re.MULTILINE)
CLI_TIMEOUT_S = 170


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH="src" + (os.pathsep + path if path else ""))


def _command(args, spans=None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(HERE / "launch.py"), str(spans), *args]


def run_cli(args, spans=None) -> tuple[float, str, int]:
    """One CLI invocation: ``(wall seconds, stdout, exit code)``."""
    started = time.perf_counter()
    # Its own session, so a timeout also stops the CLI's pool workers.
    process = subprocess.Popen(_command(args, spans), cwd=ROOT, env=_env(),
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    elapsed = time.perf_counter() - started
    if process.returncode not in (0, 1):
        sys.stderr.write(stderr[-2000:])
    return elapsed, stdout, process.returncode


def verdicts(stdout: str) -> dict[str, str]:
    return dict(VERDICT.findall(stdout))


def digest(store: Path) -> str:
    _, out, rc = run_cli(["digest", str(store)])
    if rc != 0:
        raise RuntimeError(f"digest of {store} failed")
    return out.strip()


def file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def import_setup_s(launches: int) -> float:
    """Median seconds from launch until ``repro.cli`` is imported."""
    times = []
    for _ in range(launches):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], cwd=ROOT,
                       env=_env(), check=True, timeout=CLI_TIMEOUT_S)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest RSS of any reaped descendant (pool workers included)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def recall(table: str, key: str, value=None):
    """Read, or record, a per-seed value that outlives the run (kept in
    ``.perfbench/<table>.json`` of the checkout)."""
    path = STATE / f"{table}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if value is not None:
        known[key] = value
        path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return known.get(key)


def check_digest(key: str, store: Path, problems: list[str]) -> None:
    """The same seed must give the same store digest on every run,
    traced or not."""
    value = digest(store)
    earlier = recall("digests", key)
    if earlier is None:
        recall("digests", key, value)
    elif earlier != value:
        problems.append(f"{key}: store digest {value} differs from an "
                        f"earlier run's {earlier}")


class Tally:
    """Attempted/failed experiments and correctness problems of a run."""

    def __init__(self, host_timed=()) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.host_timed = set(host_timed)

    def invocation(self, ids, stdout: str, rc: int, what: str) -> dict:
        found = verdicts(stdout)
        self.attempted += len(ids)
        for key in ids:
            verdict = found.get(key)
            if verdict == "PASS":
                continue
            self.failed += 1
            if verdict is None:
                self.problems.append(f"{what}: {key} crashed (no verdict)")
            elif key not in self.host_timed:
                self.problems.append(f"{what}: {key} FAILED")
        if rc != 0 and set(found.values()) == {"PASS"}:
            self.problems.append(f"{what}: exit code {rc}")
        return found


# --------------------------------------------------------------------- #
# campaign
# --------------------------------------------------------------------- #


def _fill(template, seed, store) -> list[str]:
    return [str(seed) if a == "<seed>" else str(store) if a == "<store>" else a
            for a in template]


def campaign_pass(settings, seed, work: Path, tally: Tally, spans=None,
                  replay=True):
    """Fresh run then resume replay; returns (fresh_s, replay_s, store)."""
    store = work / ("campaign-traced.jsonl" if spans else "campaign.jsonl")
    expected = all_ids()
    fresh_s, out, rc = run_cli(_fill(settings["fresh"], seed, store), spans)
    fresh = tally.invocation(expected, out, rc, "fresh run")
    if not replay:
        return fresh_s, None, store
    before = file_hash(store)
    replay_s, out, rc = run_cli(_fill(settings["replay"], seed, store), spans)
    replayed = tally.invocation(expected, out, rc, "replay")
    if file_hash(store) != before:
        tally.problems.append("replay changed the store (it recomputed)")
    if fresh != replayed:
        tally.problems.append(f"replay verdicts {replayed} != fresh {fresh}")
    return fresh_s, replay_s, store


def all_ids() -> list[str]:
    _, out, rc = run_cli(["list"])
    if rc != 0:
        raise RuntimeError("repro list failed")
    return [line.split()[0] for line in out.splitlines() if line.strip()]


def run_campaign_workload(spec, seed, work, trace):
    settings = spec["workloads"]["campaign"]
    tally = Tally(settings["host_timed_experiments"])
    key = f"campaign:{seed}"
    if not trace:
        setup_s = import_setup_s(spec["setup_launches"])
        fresh_s, replay_s, store = campaign_pass(settings, seed, work, tally)
        check_digest(key, store, tally.problems)
        recall("untraced_fresh_s", key, fresh_s)
        # One operation per class: the fresh run computes every
        # experiment, the replay reads them back from the store.
        metrics = wait_metrics([fresh_s], [replay_s])
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        return tally, metrics, None
    spans = work / "spans"
    traced_s, _, store = campaign_pass(settings, seed, work, tally, spans)
    check_digest(key, store, tally.problems)
    # The overhead compares fresh runs of the same seed. An untraced
    # run of this seed in this checkout is reused, which keeps a traced
    # run inside the time limit; otherwise one is made here.
    untraced_s = recall("untraced_fresh_s", key)
    if untraced_s is None:
        untraced_s, _, store = campaign_pass(settings, seed, work, tally,
                                             replay=False)
        check_digest(key, store, tally.problems)
        recall("untraced_fresh_s", key, untraced_s)
    layers = tracer.summarize([spans])
    layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return tally, None, layers


# --------------------------------------------------------------------- #
# service
# --------------------------------------------------------------------- #


def start_server(args, spans=None):
    """Launch ``serve``; returns (process, host, port, seconds to ready)."""
    started = time.perf_counter()
    process = subprocess.Popen(_command(args, spans), cwd=ROOT, env=_env(),
                               stdout=subprocess.PIPE)
    try:
        host, port = loadgen.wait_ready(process, 60)
    except BaseException:
        process.kill()
        process.wait()
        raise
    return process, host, port, time.perf_counter() - started


def stop_server(process, host, port) -> None:
    import socket

    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b'{"op": "shutdown"}\n')
            sock.recv(4096)
    except OSError:
        pass
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def server_args(settings) -> list[str]:
    return [*settings["server"], "--fixpoint-max-rounds",
            str(settings["fixpoint_max_rounds"])]


def service_pass(settings, schedule, spans=None):
    """One server lifetime under the schedule; returns samples etc."""
    process, host, port, ready_s = start_server(server_args(settings), spans)
    try:
        samples, late, reply = loadgen.drive(
            schedule, host, port, connections=settings["connections"],
            grace_s=settings["grace_s"])
    finally:
        stop_server(process, host, port)
    return samples, late, (reply or {}).get("stats"), ready_s


def wait_metrics(compute: list[float], reuse: list[float]) -> dict:
    """The end-to-end metrics of every workload, from the seconds each
    operation waited: the median wait of operations the program must
    compute, of those needing no new solver work, and the 99th
    percentile (nearest rank) of all of them."""
    return {"compute_wait_s": (statistics.median(compute), "s"),
            "reuse_wait_s": (statistics.median(reuse), "s"),
            "tail_wait_s": (tracer.percentile(compute + reuse, 99), "s")}


def service_waits(schedule, samples) -> tuple[list[float], list[float]]:
    """The measured (after warm-up) latencies split into compute and
    reuse requests; prints the per-op percentiles behind them with their
    sample counts. A failed request waits forever, slower than any
    answer."""
    compute, reuse = [], []
    by_op: dict[str, list[float]] = {}
    for request, (op, latency, _) in zip(schedule, samples):
        if request["warmup"]:
            continue
        (reuse if request["reuse"] else compute).append(latency)
        by_op.setdefault(op, []).append(latency)
    for op, quantiles in (("solve", (50, 99)), ("ping", (50, 99)),
                          ("fixpoint", (50, 90))):
        values = by_op.get(op, [])
        shown = ", ".join(f"p{q} {tracer.percentile(values, q) * 1e3:.2f} ms"
                          for q in quantiles)
        print(f"{op}: {len(values)} samples, {shown}")
    return compute, reuse


def run_service_workload(spec, seed, seconds, work, trace):
    settings = spec["workloads"]["service"]
    schedule = loadgen.build_schedule(settings, seed, seconds)
    tally = Tally()
    ready = []
    if not trace:
        for _ in range(spec["setup_launches"] - 1):
            process, host, port, ready_s = start_server(server_args(settings))
            stop_server(process, host, port)
            ready.append(ready_s)
    samples, late, stats, ready_s = service_pass(
        settings, schedule, work / "spans" if trace else None)
    ready.append(ready_s)

    tally.attempted = len(samples)
    tally.failed = sum(1 for _, latency, _ in samples if latency == float("inf"))
    if tally.failed:
        tally.problems.append(f"{tally.failed} request(s) failed")
    tally.problems += loadgen.check_answers(
        schedule, samples, settings["fixpoint_max_rounds"])
    late_p99_ms = tracer.percentile(late, 99) * 1e3
    if late_p99_ms > settings["max_generator_late_p99_ms"]:
        tally.problems.append(
            f"generator fell behind: lateness p99 {late_p99_ms:.1f} ms")
    print(f"generator lateness p99 {late_p99_ms:.2f} ms, stats "
          f"{json.dumps(stats, sort_keys=True) if stats else None}")
    waits = service_waits(schedule, samples)
    if not trace:
        metrics = wait_metrics(*waits)
        metrics["setup_s"] = (statistics.median(ready), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        return tally, metrics, None

    untraced, _, _, _ = service_pass(settings, schedule)
    base = statistics.median(service_waits(schedule, untraced)[0])
    layers = tracer.summarize([work / "spans"])
    overhead = statistics.median(waits[0]) - base
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_share"] = overhead / base
    if stats is None:
        tally.problems.append("the stats op got no reply")
        stats = {"batches": 0, "batched_games": 0, "coalesced": 0,
                 "cache": {"hits": 0, "misses": 0}}
    lookups = stats["cache"]["hits"] + stats["cache"]["misses"]
    layers["service.batch_games_mean"] = (
        stats["batched_games"] / stats["batches"] if stats["batches"] else 0.0)
    layers["service.cache_hit_ratio"] = (
        stats["cache"]["hits"] / lookups if lookups else 0.0)
    layers["service.coalesced"] = stats["coalesced"]
    return tally, None, layers


# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign", "service"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    # The service workload builds its inputs and reference answers
    # in-process; the program under test always runs in subprocesses.
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "workloads.json").read_text())
    STATE.mkdir(exist_ok=True)
    work = STATE / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        if args.workload == "service":
            tally, metrics, layers = run_service_workload(
                spec, args.seed, args.seconds, work, args.trace)
        else:
            tally, metrics, layers = run_campaign_workload(
                spec, args.seed, work, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if layers is not None:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {name: (layers[name], unit) for name, unit in units.items()}
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": _finite(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _finite(value: float) -> float:
    """JSON has no infinity: a wait that landed on a failed request reads
    as the largest finite float."""
    return value if value != math.inf else sys.float_info.max


if __name__ == "__main__":
    sys.exit(main())
