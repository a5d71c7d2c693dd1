"""Dynamic batching vs the sequential ``B = 1`` query path.

Measures a 64-way concurrent burst of distinct mixed-shape queries two
ways:

* ``batched``    — the service's :class:`DynamicBatcher` (no cache, so
  every sample pays full solve cost): the whole burst coalesces into
  one window, :func:`solve_requests` stacks it into per-shape
  :class:`GameBatch` sub-batches, and each shape costs one kernel pass;
* ``sequential`` — the pre-service shape: one :func:`solve_requests`
  call per query, i.e. one full kernel pass each (the exact ``B = 1``
  path a caller without the service would loop over).

Both sides must return identical response objects before any timing is
trusted — the service's bit-parity contract, asserted here on the very
workload being timed. The >= 3x gate is the tentpole's acceptance
criterion at the 64-way concurrent load; sustained throughput and
per-request latency percentiles ride along in the report line and the
``BENCH_trajectory.json`` artifact.
"""

from __future__ import annotations

import asyncio

from _timing import _timed

from repro.batch.container import GameBatch
from repro.service import DynamicBatcher, EquilibriumRequest, solve_requests
from repro.util.rng import stable_seed

LABEL = "bench-service"
SHAPES = [(3, 3), (4, 3), (3, 4), (2, 4)]
LOAD = 64


def _requests(count: int = LOAD) -> list[EquilibriumRequest]:
    """*count* distinct queries cycling through the mixed shapes."""
    requests = []
    for index in range(count):
        n, m = SHAPES[index % len(SHAPES)]
        seed = stable_seed(LABEL, n, m, index)
        batch = GameBatch.from_seeds([seed], n, m)
        requests.append(
            EquilibriumRequest.from_arrays(
                batch.weights[0], batch.capacities[0], batch.initial_traffic[0]
            )
        )
    return requests


def sequential_pass(requests):
    """One kernel pass per query — the pre-service calling shape."""
    return [solve_requests([request])[0] for request in requests]


async def _batched_burst(requests):
    """One concurrent burst through a fresh (uncached) batcher.

    Returns the responses in request order plus each request's
    submit-to-result latency as the service's clients observe it.
    """
    batcher = DynamicBatcher(max_batch=len(requests))
    loop = asyncio.get_running_loop()

    async def timed_submit(request):
        start = loop.time()
        response = await batcher.submit(request)
        return response, loop.time() - start

    pairs = await asyncio.gather(
        *(timed_submit(request) for request in requests)
    )
    await batcher.close()
    # The drain runs one loop turn after the first submit, by which time
    # gather has started every submit: the burst is one solver call.
    assert batcher.batches == 1
    return [response for response, _ in pairs], [lat for _, lat in pairs]


def batched_pass(requests):
    return asyncio.run(_batched_burst(requests))


def _percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, int(len(sorted_values) * fraction))
    return sorted_values[index]


def test_service_speedup_at_least_3x(report, trajectory):
    """Acceptance gate: batched throughput >= 3x sequential at 64-way
    concurrent load, on bit-identical answers."""
    requests = _requests()
    sequential_results = sequential_pass(requests)
    batched_results, _ = batched_pass(requests)
    assert batched_results == sequential_results

    batched_times = []
    latencies = []
    for _ in range(5):
        sample = {}
        batched_times.append(
            _timed(lambda: sample.setdefault("out", batched_pass(requests)))
        )
        latencies.extend(sample["out"][1])
    sequential_times = [
        _timed(lambda: sequential_pass(requests)) for _ in range(3)
    ]
    trajectory.record(
        "service-dynamic-batching", batched_times, sequential_times
    )
    batched, sequential = min(batched_times), min(sequential_times)
    ratio = sequential / batched
    latencies.sort()
    report.append(
        f"[service] {LOAD}-way concurrent burst over shapes {SHAPES}: "
        f"batched {batched * 1e3:.2f} ms/burst "
        f"({LOAD / batched:.0f} qps, request latency "
        f"p50 {_percentile(latencies, 0.50) * 1e3:.2f} ms, "
        f"p99 {_percentile(latencies, 0.99) * 1e3:.2f} ms), "
        f"sequential B=1 {sequential * 1e3:.2f} ms, speedup {ratio:.1f}x"
    )
    assert ratio >= 3.0, f"dynamic batching only {ratio:.2f}x faster"


def test_batched_burst(benchmark):
    requests = _requests(32)
    results = benchmark(lambda: batched_pass(requests)[0])
    assert len(results) == 32


def test_sequential_burst(benchmark):
    requests = _requests(32)
    results = benchmark(lambda: sequential_pass(requests))
    assert len(results) == 32
