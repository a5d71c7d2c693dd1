"""Traced launcher: ``python3 perfbench/launch.py SPANS_DIR CLI_ARG...``.

Runs ``repro.cli.main(CLI_ARG...)`` exactly as ``python -m repro`` would,
after wrapping the program's public entry points in spans (see
``tracer.py``). Nothing under ``src/`` is edited: the wrappers replace
module attributes in this process only, before the CLI looks them up,
and forked pool workers inherit them. Run from the repository root with
``PYTHONPATH=src``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import functools  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402


def _replace_everywhere(original, replacement) -> None:
    """Point every ``repro.*`` module attribute bound to *original* at
    *replacement* (covers ``from x import f`` copies of the name)."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _spanned(name, fn, ident=None, after=None):
    """*fn* wrapped in a span; ``after(span, result, args)`` adds counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.TRACER.open(name, ident(args, kwargs) if ident else None)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, result, args)
            return result
        finally:
            tracer.TRACER.close(span)

    return traced


def _wrap_function(module, attr, name, **kw) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, _spanned(name, original, **kw))


def _wrap_classmethod(cls, attr, name, **kw) -> None:
    original = cls.__dict__[attr].__func__
    setattr(cls, attr, classmethod(_spanned(name, original, **kw)))


def _wrap_method(cls, attr, name, **kw) -> None:
    setattr(cls, attr, _spanned(name, cls.__dict__[attr], **kw))


def _wrap_fixpoint() -> None:
    from repro.batch import fixpoint

    def counts(span, result, args):
        span[6].update(games=int(result.rounds.size),
                       rounds=int(result.rounds.sum()),
                       certified=int(result.certified.sum()))

    _wrap_function(fixpoint, "batch_fixpoint_mixed_nash", "batch.fixpoint",
                   after=counts)


def _install_runtime() -> None:
    from repro.analysis import cycles, scaling
    from repro.batch import container, generator
    from repro.experiments import registry
    from repro.runtime import scheduler, store
    from repro.substrates import milchtaich
    from repro.util import parallel

    for attr in ("from_seeds", "from_seeds_symmetric", "from_seeds_kp",
                 "from_seeds_uniform_beliefs"):
        _wrap_classmethod(container.GameBatch, attr, "generators")
    _wrap_function(generator, "random_game_batch", "generators")

    _wrap_fixpoint()

    # Only the runtime's own canonicalisation step; the service's
    # canonical_payload calls stay inside the solver spans.
    scheduler.canonical_payload = _spanned(
        "runtime.canonicalise", scheduler.canonical_payload
    )

    append = store.ResultStore.append

    def traced_append(self, record):
        before = self.path.stat().st_size if self.path.exists() else 0
        span = tracer.TRACER.open("runtime.store_append", record.get("label"))
        try:
            append(self, record)
        finally:
            tracer.TRACER.close(span)
        span[6]["bytes"] = self.path.stat().st_size - before

    store.ResultStore.append = traced_append
    _wrap_method(store.ResultStore, "load_records", "runtime.store_load",
                 after=lambda span, result, args:
                 span[6].update(records=len(result)))

    original_iter_tasks = parallel.iter_tasks

    # The span stays open while the scheduler consumes the generator, so
    # the canonicalise and append spans between results nest under it and
    # its self time is the pool's dispatch and waiting.
    def traced_iter_tasks(fn, tasks, *, jobs=1):
        tasks = list(tasks)
        resolved = parallel.resolve_jobs(jobs)
        workers = 1 if resolved <= 1 or len(tasks) <= 1 else min(
            resolved, len(tasks))
        span = tracer.TRACER.open("util.parallel", getattr(fn, "__qualname__", None),
                                  {"workers": workers, "tasks": len(tasks)})
        try:
            kernel = tracer.TracedKernel(fn, (tracer.TRACER.pid, span[3]))
            yield from original_iter_tasks(kernel, tasks, jobs=jobs)
        finally:
            tracer.TRACER.close(span)

    _replace_everywhere(original_iter_tasks, traced_iter_tasks)

    _wrap_function(scaling, "measure_scaling", "analysis.scaling",
                   ident=lambda a, k: a[0] if a else k.get("algorithm"))
    _wrap_function(cycles, "search_improvement_cycle_instance",
                   "analysis.cycles")
    _wrap_function(milchtaich, "search_no_pne_instance",
                   "substrates.milchtaich",
                   after=lambda span, result, args:
                   span[6].update(restarts=int(result.tries)))
    _wrap_function(registry, "run_experiment", "experiments",
                   ident=lambda a, k: a[0])


def _install_service() -> None:
    from repro.service import batcher, query, server

    def message_id(message):
        return message.get("id") if isinstance(message, dict) else None

    def decoded_id(span, result, args):
        span[5] = message_id(result)

    _wrap_fixpoint()
    server.canonical_loads = _spanned("service.decode", server.canonical_loads,
                                      after=decoded_id)
    server.canonical_dumps = _spanned("service.encode", server.canonical_dumps,
                                      ident=lambda a, k: message_id(a[0]))
    # A wrapped classmethod's first argument is the class.
    _wrap_classmethod(query.EquilibriumRequest, "from_payload",
                      "service.validate", ident=lambda a, k: message_id(a[1]))

    # Queue wait: submit time -> start of the solver call whose window
    # holds the request's digest. A submit that returns without its
    # entry being consumed was a cache hit or rode a solve already
    # running, and contributes no queue-wait sample.
    waiting: dict[str, list[list[float]]] = {}
    submit = batcher.DynamicBatcher.submit

    async def traced_submit(self, request):
        entry = [time.perf_counter()]
        waiting.setdefault(request.digest, []).append(entry)
        try:
            return await submit(self, request)
        finally:
            pending = waiting.get(request.digest, [])
            rest = [other for other in pending if other is not entry]
            if len(rest) < len(pending):
                if rest:
                    waiting[request.digest] = rest
                else:
                    del waiting[request.digest]

    batcher.DynamicBatcher.submit = traced_submit

    def solver_span(name, solve):
        @functools.wraps(solve)
        def traced(requests, **kwargs):
            span = tracer.TRACER.open(name, None, {"games": len(requests)})
            waits = span[6].setdefault("queue_waits", [])
            for request in requests:
                for entry in waiting.pop(request.digest, []):
                    waits.append(span[1] - entry[0])
            try:
                return solve(requests, **kwargs)
            finally:
                tracer.TRACER.close(span)

        return traced

    # The server binds solve_requests as a constructor default and looks
    # solve_fixpoint_requests up at construction time.
    defaults = server.EquilibriumServer.__init__.__kwdefaults__
    defaults["solver"] = solver_span("service.solve", defaults["solver"])
    server.solve_fixpoint_requests = solver_span(
        "service.fixpoint", server.solve_fixpoint_requests
    )


def main() -> int:
    spans_dir, argv = sys.argv[1], sys.argv[2:]
    os.makedirs(spans_dir, exist_ok=True)
    tracer.TRACER = tracer.Tracer(spans_dir, STARTED)
    import repro.cli

    if argv and argv[0] == "serve":
        _install_service()
    else:
        _install_runtime()
    try:
        return repro.cli.main(argv)
    finally:
        tracer.TRACER.finish()


if __name__ == "__main__":
    sys.exit(main())
