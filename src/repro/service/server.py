"""The equilibrium service: a JSON-lines asyncio TCP server.

Stdlib-only (``asyncio.start_server``) so the service runs wherever the
library does; the protocol is newline-delimited JSON, one object per
line, serialised with the runtime store's canonical encoder
(:func:`repro.runtime.store.canonical_dumps` — ``repr`` floats, the
non-finite sentinel) so a response byte-stream is exactly the store's
canonical form of the same payload.

Request objects carry an ``op`` (default ``"solve"``) and an optional
``id`` echoed back verbatim, so clients may pipeline any number of
requests per connection and match the (possibly reordered) responses:

* ``{"op": "solve", "id": 7, "weights": [...], "capacities": [[...]]}``
  → ``{"id": 7, "ok": true, "result": {...}}`` — the full equilibrium
  answer (see :mod:`repro.service.query` for request spellings and the
  response schema);
* ``{"op": "fixpoint", ...}`` — same request spellings, answered by the
  iterative fixed-point solver instead of the exhaustive census, so
  games past the ``MAX_SERVICE_PROFILES`` width are accepted; the
  result carries the certified profile or an explicit
  non-convergence flag;
* ``{"op": "stats"}`` → batcher/cache counters;
* ``{"op": "info"}`` → deployment facts: the array backend solving the
  queries (``numpy`` or ``numba``) and which of the two this host can
  offer;
* ``{"op": "ping"}`` → liveness;
* ``{"op": "shutdown"}`` → acknowledges, then gracefully stops the
  server (drains in-flight batches first).

Every ``solve`` line becomes its own task, so one pipelining connection
generates genuinely concurrent requests for the
:class:`~repro.service.batcher.DynamicBatcher` to coalesce; malformed
lines produce ``{"ok": false, "error": ...}`` instead of killing the
connection. A line longer than :data:`LINE_LIMIT` bytes is answered with
an error and then the connection closes, since its framing is lost.
"""

from __future__ import annotations

import asyncio
import functools
import json
from typing import Any

from repro.batch.backend import active_name, available_backends
from repro.batch.fixpoint import DEFAULT_MAX_ROUNDS
from repro.runtime.store import canonical_dumps, canonical_loads
from repro.service.batcher import DynamicBatcher, Solver
from repro.service.cache import ResultCache
from repro.service.query import (
    EquilibriumRequest,
    RequestError,
    solve_fixpoint_requests,
    solve_requests,
)

__all__ = ["EquilibriumServer"]

#: Longest accepted request line: asyncio's default stream limit, passed
#: explicitly so the error message names the enforced value.
LINE_LIMIT = 2**16


class EquilibriumServer:
    """A long-lived equilibrium-query service on one asyncio loop."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_batch: int = 64,
        max_delay_ms: float = 2.0,
        cache_size: int = 1024,
        solver: Solver = solve_requests,
        fixpoint_solver: Solver | None = None,
        fixpoint_max_rounds: int = DEFAULT_MAX_ROUNDS,
    ) -> None:
        self.host = host
        self.port = port
        self.cache = ResultCache(cache_size)
        self.batcher = DynamicBatcher(
            solver,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            cache=self.cache,
        )
        # The fixpoint op gets its own batcher and cache: both ops key
        # responses by the same reduced-form digest, so sharing a cache
        # would hand a census answer to a fixpoint query (and vice
        # versa) whenever the same game hits both ops.
        if fixpoint_solver is None:
            fixpoint_solver = functools.partial(
                solve_fixpoint_requests, max_rounds=fixpoint_max_rounds
            )
        self.fixpoint_cache = ResultCache(cache_size)
        self.fixpoint_batcher = DynamicBatcher(
            fixpoint_solver,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            cache=self.fixpoint_cache,
        )
        self._server: asyncio.base_events.Server | None = None
        self._shutdown = asyncio.Event()
        self._handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.connections = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind and start accepting connections (port 0 picks a free one)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`close`) arrives."""
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        """Stop accepting, drain in-flight batches, release the socket."""
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Nudge lingering connections to EOF so their handlers finish
        # (instead of being cancelled mid-read at loop teardown).
        for writer in self._handlers.values():
            writer.close()
        if self._handlers:
            await asyncio.gather(
                *tuple(self._handlers), return_exceptions=True
            )
        await self.batcher.close()
        await self.fixpoint_batcher.close()

    def stats(self) -> dict[str, Any]:
        return {
            "connections": self.connections,
            "backend": active_name(),
            **self.batcher.stats(),
            "fixpoint": self.fixpoint_batcher.stats(),
        }

    def info(self) -> dict[str, Any]:
        """Deployment facts: which backend answers, what the host offers."""
        return {
            "backend": active_name(),
            "backends": available_backends(),
        }

    # ------------------------------------------------------------------ #
    # protocol
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        handler = asyncio.current_task()
        if handler is not None:
            self._handlers[handler] = writer
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def respond(response: dict[str, Any]) -> None:
            async with write_lock:
                writer.write(canonical_dumps(response).encode("utf-8") + b"\n")
                await writer.drain()

        async def handle_line(raw: bytes) -> None:
            await respond(await self._dispatch(raw))

        try:
            while not reader.at_eof():
                try:
                    raw = await reader.readline()
                except ValueError:
                    # The line overran the stream limit; the rest of it
                    # is still unread, so the framing is lost: answer,
                    # then close the connection.
                    error = f"request line exceeds {LINE_LIMIT} bytes"
                    await respond({"ok": False, "error": error})
                    break
                if not raw:
                    break
                task = asyncio.ensure_future(handle_line(raw))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tuple(tasks), return_exceptions=True)
        except ConnectionError:
            pass
        finally:
            if handler is not None:
                self._handlers.pop(handler, None)
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _dispatch(self, raw: bytes) -> dict[str, Any]:
        try:
            message = canonical_loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return {"ok": False, "error": f"invalid JSON: {exc}"}
        if not isinstance(message, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        envelope: dict[str, Any] = {}
        if "id" in message:
            envelope["id"] = message["id"]
        op = message.get("op", "solve")
        if op in ("solve", "fixpoint"):
            batcher = self.batcher if op == "solve" else self.fixpoint_batcher
            try:
                request = EquilibriumRequest.from_payload(
                    message, check_width=op == "solve"
                )
                result = await batcher.submit(request)
            except RequestError as exc:
                return {**envelope, "ok": False, "error": str(exc)}
            except Exception as exc:  # noqa: BLE001 - solver failure
                return {
                    **envelope,
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            return {**envelope, "ok": True, "result": result}
        if op == "stats":
            return {**envelope, "ok": True, "stats": self.stats()}
        if op == "info":
            return {**envelope, "ok": True, "info": self.info()}
        if op == "ping":
            return {**envelope, "ok": True, "pong": True}
        if op == "shutdown":
            self._shutdown.set()
            return {**envelope, "ok": True, "stopping": True}
        return {**envelope, "ok": False, "error": f"unknown op {op!r}"}
