"""Open-loop load generator and answer check for the ``service`` workload.

:func:`build_schedule` derives every request, its op and its due time
from the seed before the run starts. :func:`drive` sends each request at
its due time over a fixed number of connections, whatever the server is
doing, and times each response from the request's due time, so a stall
also charges the wait it imposes on every request due during it. Failed
requests (error response, connection reset, unanswered at the deadline)
stay in the sample with an infinite latency.

Building the schedule and checking answers import ``repro`` (the games
come from ``GameBatch.from_seeds``, the reference answers from the
in-process solvers); :func:`drive` itself uses only the wire protocol.
"""

from __future__ import annotations

import asyncio
import json
import math
import select


def build_schedule(settings: dict, seed: int, seconds: float) -> list[dict]:
    """The run's requests in due order: ``{due, op, line, verify, reuse,
    warmup}``. ``reuse`` marks a request that needs no new solver work (a
    ping, or a solve repeating an earlier game); the first
    ``settings["warmup_s"]`` seconds of traffic are marked ``warmup`` and
    precede the *seconds* that are measured."""
    import numpy as np

    from repro.batch.container import GameBatch

    rng = np.random.default_rng([seed, 0x5E7])
    # Each op arrives evenly spaced at its own rate, the streams offset
    # by fractions of their intervals, so every stretch of the run is
    # offered the same mix.
    warmup_s = settings["warmup_s"]
    slots = []
    for position, (op, rate) in enumerate(settings["rates_per_s"].items()):
        phase = position / len(settings["rates_per_s"])
        slots += [((k + phase) / rate, op) for k in range(round(rate * (warmup_s + seconds)))]
    slots.sort()
    ops = [op for _, op in slots]
    shapes = settings["solve_shapes"]
    verify_share = settings["verify_share"]
    solve_games: list[dict] = []

    def game(n: int, m: int, draw=rng) -> dict:
        batch = GameBatch.from_seeds([int(draw.integers(2**62))], n, m)
        return {
            "weights": batch.weights[0].tolist(),
            "capacities": batch.capacities[0].tolist(),
            "initial_traffic": batch.initial_traffic[0].tolist(),
        }

    # The fixpoint games are one fixed pool, drawn from
    # ``fixpoint_pool_seed`` and served in the same order on every run;
    # see ``fixpoint_pool_why`` in workloads.json.
    pool_rng = np.random.default_rng([settings["fixpoint_pool_seed"], 0xF1])
    pool = [game(*settings["fixpoint_width"], draw=pool_rng)
            for _ in range(ops.count("fixpoint"))]
    schedule = []
    for index, (due, op) in enumerate(slots):
        message: dict = {"op": op, "id": index}
        reuse = op == "ping"
        if op == "solve":
            if solve_games and rng.random() < settings["solve_repeat_share"]:
                message.update(solve_games[rng.integers(len(solve_games))])
                reuse = True
            else:
                payload = game(*shapes[rng.integers(len(shapes))])
                solve_games.append(payload)
                message.update(payload)
        elif op == "fixpoint":
            message.update(pool.pop())
        schedule.append({
            "due": due,
            "op": op,
            "line": (json.dumps(message) + "\n").encode(),
            "verify": bool(rng.random() < verify_share.get(op, 0.0)),
            "reuse": reuse,
            "warmup": due < warmup_s,
        })
    return schedule


async def _drive(schedule, host, port, connections, grace_s):
    loop = asyncio.get_running_loop()
    streams = [await asyncio.open_connection(host, port)
               for _ in range(connections)]
    sent: dict[int, float] = {}
    late: list[float] = []
    answers: dict[int, tuple[float, dict | None]] = {}
    done = asyncio.Event()
    extra: dict[str, dict] = {}

    async def read(reader):
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                now = loop.time()
                message = json.loads(raw)
                key = message.get("id")
                if isinstance(key, str):
                    extra[key] = message
                else:
                    answers[key] = (now, message)
                if len(answers) == len(schedule):
                    done.set()
        except (ConnectionError, asyncio.IncompleteReadError):
            return

    readers = [asyncio.ensure_future(read(r)) for r, _ in streams]
    start = loop.time() + 0.2
    try:
        for index, request in enumerate(schedule):
            due = start + request["due"]
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = streams[index % connections][1]
            now = loop.time()
            late.append(now - due)
            sent[index] = due
            writer.write(request["line"])
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        deadline = start + schedule[-1]["due"] + grace_s
        try:
            await asyncio.wait_for(done.wait(), max(deadline - loop.time(), 0))
        except asyncio.TimeoutError:
            pass
        writer = streams[0][1]
        for op in ("stats", "shutdown"):
            writer.write((json.dumps({"op": op, "id": op}) + "\n").encode())
            await writer.drain()
        for _ in range(200):
            if "shutdown" in extra:
                break
            await asyncio.sleep(0.05)
    finally:
        for _, writer in streams:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    return sent, late, answers, extra.get("stats")


def drive(schedule, host, port, *, connections, grace_s):
    """Run the schedule; returns per-request samples and the stats reply.

    ``samples[i]`` is ``(op, latency_s, message)`` with ``latency_s``
    infinite and ``message`` ``None`` for a failed request.
    """
    sent, late, answers, stats = asyncio.run(
        _drive(schedule, host, port, connections, grace_s)
    )
    samples = []
    for index, request in enumerate(schedule):
        received, message = answers.get(index, (math.inf, None))
        if message is None or not message.get("ok"):
            samples.append((request["op"], math.inf, message))
        else:
            samples.append((request["op"], received - sent[index], message))
    return samples, late, stats


def check_answers(schedule, samples, fixpoint_max_rounds: int) -> list[str]:
    """Compare the sampled responses with the in-process solver answers."""
    from repro.runtime.store import canonical_dumps
    from repro.service.query import (
        EquilibriumRequest,
        solve_fixpoint_requests,
        solve_requests,
    )

    problems = []
    for index, (request, (op, _, message)) in enumerate(zip(schedule, samples)):
        if not request["verify"] or message is None or op == "ping":
            if op == "ping" and message is not None and not message.get("pong"):
                problems.append(f"request {index}: ping answered {message}")
            continue
        query = json.loads(request["line"])
        parsed = EquilibriumRequest.from_payload(
            query, check_width=op == "solve"
        )
        if op == "solve":
            expected = solve_requests([parsed])[0]
        else:
            expected = solve_fixpoint_requests(
                [parsed], max_rounds=fixpoint_max_rounds
            )[0]
        # The wire form is canonical JSON (non-finite floats as sentinel
        # objects), so re-encoding both sides compares them exactly.
        if json.dumps(message["result"], sort_keys=True) != canonical_dumps(
            expected, sort_keys=True
        ):
            problems.append(f"request {index} ({op}): response differs from "
                            f"the in-process answer")
    return problems


def wait_ready(process, timeout: float) -> tuple[str, int]:
    """Block until the server prints its readiness line; returns the
    address it serves on."""
    ready, _, _ = select.select([process.stdout], [], [], timeout)
    line = process.stdout.readline() if ready else b""
    if not line.startswith(b"serving equilibria on "):
        raise RuntimeError(f"server did not become ready: {line!r}")
    host, _, port = line.split()[3].decode().rpartition(":")
    return host, int(port)
