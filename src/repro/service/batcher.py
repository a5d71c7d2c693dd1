"""Inference-server-style dynamic batching for equilibrium queries.

Batching is work-conserving: the first :meth:`DynamicBatcher.submit`
of a window schedules a drain with ``loop.call_soon``, so every request
read during the same event-loop turn (pipelined lines, and lines from
other connections woken by the same ``select``) joins the window, and
an idle server answers a lone request on the next loop turn. No timer
holds a window open. The drain hands the window to the solver seam
(:func:`repro.service.query.solve_requests` by default) in slices of at
most ``max_batch`` games; the seam stacks each slice into per-shape
:class:`~repro.batch.container.GameBatch` sub-batches — one kernel pass
per shape instead of one per request. Three de-duplication layers keep
repeated traffic O(hash):

1. completed responses come from the content-addressed
   :class:`~repro.service.cache.ResultCache` (when attached);
2. a query whose digest is already waiting or solving rides the
   in-flight computation instead of enqueueing a duplicate game;
3. only then does a digest claim a slot in the pending window.

Solves run synchronously on the event loop, so new arrivals buffer in
the transport until a drain completes. Whether a thread or a process
worker would pay for itself is an open measurement (ROADMAP item 3).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Sequence

from repro.service.cache import ResultCache
from repro.service.query import EquilibriumRequest, solve_requests

__all__ = ["DynamicBatcher"]

#: The solver seam: mixed-shape requests in, per-request responses out.
Solver = Callable[[Sequence[EquilibriumRequest]], "list[dict[str, Any]]"]


class DynamicBatcher:
    """Coalesce concurrent queries into batched solver passes."""

    def __init__(
        self,
        solver: Solver = solve_requests,
        *,
        max_batch: int = 64,
        cache: ResultCache | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._solver = solver
        self.max_batch = int(max_batch)
        self.cache = cache
        self._pending: list[EquilibriumRequest] = []
        #: digest -> futures awaiting it (pending *or* mid-solve).
        self._waiters: dict[str, list[asyncio.Future]] = {}
        self._closed = False
        # Counters for the ``stats`` op / benchmarks.
        self.requests = 0
        self.coalesced = 0
        self.batches = 0
        self.batched_games = 0

    async def submit(self, request: EquilibriumRequest) -> dict[str, Any]:
        """Resolve one query: cache, in-flight ride-along, or batch."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        self.requests += 1
        if self.cache is not None:
            cached = self.cache.get(request.digest)
            if cached is not None:
                return cached
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        waiters = self._waiters.get(request.digest)
        if waiters is not None:
            self.coalesced += 1
            waiters.append(future)
            return await future
        self._waiters[request.digest] = [future]
        self._pending.append(request)
        # A drain empties the whole window, so a window's first game is
        # the one that finds no drain scheduled.
        if len(self._pending) == 1:
            loop.call_soon(self._drain)
        return await future

    def _drain(self) -> None:
        """Solve the pending window in slices of at most ``max_batch``."""
        window, self._pending = self._pending, []
        for start in range(0, len(window), self.max_batch):
            self._solve(window[start : start + self.max_batch])

    def _solve(self, window: list[EquilibriumRequest]) -> None:
        self.batches += 1
        self.batched_games += len(window)
        try:
            responses = self._solver(window)
        except Exception as exc:  # noqa: BLE001 - forwarded to every waiter
            for request in window:
                for future in self._waiters.pop(request.digest, []):
                    if not future.done():
                        future.set_exception(exc)
            return
        for request, response in zip(window, responses):
            if self.cache is not None:
                self.cache.put(request.digest, response)
            for future in self._waiters.pop(request.digest, []):
                if not future.done():
                    future.set_result(response)

    async def close(self) -> None:
        """Refuse new submits, then answer whatever is still pending."""
        self._closed = True
        self._drain()

    def stats(self) -> dict[str, Any]:
        """Counter snapshot (cache counters ride along when attached)."""
        out: dict[str, Any] = {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "batched_games": self.batched_games,
            "pending": len(self._pending),
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out
