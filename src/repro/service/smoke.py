"""CI smoke driver: burst a running service, gate on cache hits.

``python -m repro.service.smoke --port P`` connects to an already
running :class:`~repro.service.server.EquilibriumServer`, pipelines a
concurrent burst of solve queries in which every game appears twice
(so the content-addressed cache *must* hit) and a burst of ``fixpoint``
queries, then verifies:

* every response is well-formed and the duplicate answers are
  identical objects field for field;
* the server's cache-hit counter is positive, and on each of the solve
  and fixpoint batchers at least one batch coalesced more than one
  game;
* ``--shutdown`` (the CI default) stops the server cleanly so the
  supervising shell can ``wait`` on its exit code.

Exit status 0 means the service round trip, the dynamic batcher and
the cache all did their jobs; any assertion failure is a non-zero exit
for CI to trip on.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Sequence

from repro.batch.container import GameBatch
from repro.service.client import ServiceClient
from repro.util.rng import stable_seed

__all__ = ["main"]

#: Distinct games in the pipelined ``fixpoint`` burst.
FIXPOINT_GAMES = 8


def _burst_queries(games: int) -> list[dict]:
    """*games* distinct small games across a few shapes."""
    shapes = [(3, 3), (4, 3), (3, 4)]
    queries: list[dict] = []
    for index in range(games):
        n, m = shapes[index % len(shapes)]
        seed = stable_seed("service-smoke", n, m, index)
        batch = GameBatch.from_seeds([seed], n, m)
        queries.append(
            {
                "weights": batch.weights[0].tolist(),
                "capacities": batch.capacities[0].tolist(),
            }
        )
    return queries


async def _run(host: str, port: int, games: int, shutdown: bool) -> int:
    client = await ServiceClient.connect(host, port)
    try:
        if not await client.ping():
            print("smoke: server did not answer ping", file=sys.stderr)
            return 1
        # Wave 1: a pipelined concurrent burst — exercises the dynamic
        # batcher. Wave 2: the same queries again after wave 1 fully
        # completed — every answer must now come from the cache. Wave 3:
        # a pipelined fixpoint burst — exercises the fixpoint batcher
        # (solve_many raises unless every answer is ok).
        queries = _burst_queries(games)
        results = await client.solve_many(queries)
        repeated = await client.solve_many(queries)
        for first, second in zip(results, repeated):
            if first != second:
                print("smoke: repeated query answers differ", file=sys.stderr)
                return 1
        fixpoints = await client.solve_many(
            queries[:FIXPOINT_GAMES], op="fixpoint"
        )
        digests = {result["digest"] for result in results}
        if len(digests) != len(queries):
            print(
                f"smoke: expected {len(queries)} distinct digests, "
                f"got {len(digests)}",
                file=sys.stderr,
            )
            return 1
        stats = await client.stats()
        cache_hits = stats["cache"]["hits"]
        if cache_hits < len(queries):
            print(
                f"smoke: expected >= {len(queries)} cache hits, "
                f"got {cache_hits}",
                file=sys.stderr,
            )
            return 1
        for op, counters in (("solve", stats), ("fixpoint", stats["fixpoint"])):
            if counters["batched_games"] <= counters["batches"]:
                print(
                    f"smoke: no {op} batch coalesced more than one game "
                    f"({counters['batched_games']} games in "
                    f"{counters['batches']} batches)",
                    file=sys.stderr,
                )
                return 1
        info = await client.info()
        print(
            f"smoke ok: {len(results) + len(repeated) + len(fixpoints)} "
            "responses, "
            f"{stats['batches']} batches ({stats['batched_games']} games), "
            f"{cache_hits} cache hits, {stats['coalesced']} coalesced, "
            f"backend {info['backend']}"
        )
        if shutdown:
            await client.shutdown()
        return 0
    finally:
        await client.close()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.smoke",
        description="fire a concurrent burst at a running equilibrium "
        "service and gate on its batching/cache counters",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--games",
        type=int,
        default=24,
        help="distinct games in the burst (each is queried twice)",
    )
    parser.add_argument(
        "--no-shutdown",
        action="store_true",
        help="leave the server running after the burst",
    )
    args = parser.parse_args(argv)
    return asyncio.run(
        _run(args.host, args.port, args.games, not args.no_shutdown)
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
