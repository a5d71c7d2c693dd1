"""Backend selection for the ``(B, n, m)`` batch kernels.

The kernels are plain NumPy. A *backend* is a :class:`FusedHooks`
table: the few branch-heavy computations BLAS cannot help (the ``m^n``
pure-NE census, the response-cycle census peel, lockstep
nashification, best-response dynamics, the fixed-point round loop)
that a backend may take over wholesale. Two backends exist:

* ``numpy``  — the **bit-parity reference**: every hook is ``None``,
  so every kernel runs its generic NumPy composition and every frozen
  seed baseline and the service differential suite stay byte-identical;
* ``numba``  — compiled per-game loops for all seven hooks
  (``pip install repro[jit]``, :mod:`repro.batch._numba_backend`).
  Gated by tolerance-based differential tests, never by byte identity.

Resolution precedence:

1. an explicit :func:`set_backend` / :func:`use_backend` call — the CLI
   ``--backend`` flag lands here (and exports :data:`ENV_VAR` so
   process-pool campaign workers inherit the choice);
2. the :data:`ENV_VAR` (``REPRO_BACKEND``) environment variable;
3. the default, ``numpy``.

The choice is resolved once — on selection, or on first use after
``set_backend(None)`` — so a kernel call pays one global read.
"""

from __future__ import annotations

import importlib.util
import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple

from repro.errors import BackendError

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "FusedHooks",
    "active_hooks",
    "active_name",
    "available_backends",
    "set_backend",
    "use_backend",
]

DEFAULT_BACKEND = "numpy"

#: Environment variable naming the default backend for a process tree.
ENV_VAR = "REPRO_BACKEND"


class FusedHooks(NamedTuple):
    """A backend's fused-kernel hooks; ``None`` runs the generic kernel.

    A hook takes over a whole branch-heavy computation. Signatures
    (arrays are C-contiguous ``float64`` / ``intp`` unless noted; every
    hook must reproduce the generic path's *verdicts* — trajectories
    bit for bit where the generic kernel documents trajectory parity):

    ``scatter_loads(sigma, weights, num_links, initial_traffic)``
        ``(A, n)`` assignments/weights (+ optional ``(A, m)`` traffic)
        to ``(A, m)`` per-link loads, accumulated user by user in index
        order (bincount order — the bit-parity contract).
    ``count_pure_nash(assignments, weights, capacities, traffic, tol)``
        ``(P, n)`` assignment table crossed with a ``(B, n[, m])``
        stack to ``(B,)`` int64 pure-NE counts.
    ``exists_pure_nash(assignments, weights, capacities, traffic, tol)``
        Same inputs to ``(B,)`` bool existence verdicts (may
        short-circuit per game).
    ``nashify_common_loop(sigma, weights, capacities, caps_row,
    traffic, max_steps)``
        The lockstep common-beliefs nashification stepper: returns
        ``(sigma, steps, converged)``; per-game trajectories must match
        the sequential procedure move for move.
    ``dynamics_loop(sigma, weights, capacities, traffic, best,
    max_regret, max_steps, tol, detect_cycles)``
        The best-/better-response stepper: returns ``(sigma,
        converged, steps, cycled)`` or ``None`` to decline (the generic
        lockstep path runs instead).
    ``census_cycle(assignments, weights, capacities, traffic, best,
    tol)``
        ``(B,)`` bool response-cycle verdicts over the full ``m^n``
        state space; edge sets must match the sequential graphs.
    ``fixpoint_loop(weights, capacities, traffic, tol, eta,
    log2_beta_max, max_rounds, stall_rounds, stall_rtol)``
        The mixed-equilibrium smoothed best-response round loop of
        :func:`repro.batch.fixpoint.batch_fixpoint_mixed_nash`:
        returns ``(probabilities, rounds, residuals, converged,
        stalled)`` or ``None`` to decline. Per-game trajectories must
        reproduce the generic round loop *bit for bit* at every round
        budget (the update is elementwise IEEE arithmetic plus
        index-order accumulations by design).
    """

    scatter_loads: Callable[..., Any] | None = None
    count_pure_nash: Callable[..., Any] | None = None
    exists_pure_nash: Callable[..., Any] | None = None
    nashify_common_loop: Callable[..., Any] | None = None
    dynamics_loop: Callable[..., Any] | None = None
    census_cycle: Callable[..., Any] | None = None
    fixpoint_loop: Callable[..., Any] | None = None


def _numba_hooks() -> FusedHooks:
    try:
        from repro.batch._numba_backend import NUMBA_HOOKS
    except ImportError as exc:
        raise BackendError(
            "backend 'numba' requires the numba package — install the "
            "JIT extra: pip install 'repro-network-uncertainty[jit]'"
        ) from exc
    return NUMBA_HOOKS


_FACTORIES: dict[str, Callable[[], FusedHooks]] = {
    "numpy": FusedHooks,
    "numba": _numba_hooks,
}

#: The resolved ``(name, hooks)`` pair; ``None`` until first use after
#: ``set_backend(None)``.
_ACTIVE: tuple[str, FusedHooks] | None = None


def _load(name: str) -> tuple[str, FusedHooks]:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise BackendError(
            f"unknown array backend {name!r}; known backends: "
            f"{', '.join(sorted(_FACTORIES))}"
        ) from None
    return name, factory()


def _active() -> tuple[str, FusedHooks]:
    global _ACTIVE
    active = _ACTIVE
    if active is None:
        active = _ACTIVE = _load(os.environ.get(ENV_VAR) or DEFAULT_BACKEND)
    return active


def active_name() -> str:
    """Name of the active backend (resolving it on first use)."""
    return _active()[0]


def active_hooks() -> FusedHooks:
    """Hook table of the active backend (resolving it on first use)."""
    return _active()[1]


def available_backends() -> dict[str, bool]:
    """Name -> whether the backend can be selected on this host."""
    return {
        "numpy": True,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def set_backend(name: str | None) -> None:
    """Select *name* explicitly (overriding the environment variable).

    ``None`` clears the selection; the next kernel call re-resolves
    from the env-var/default chain. An unknown or unavailable name
    raises :class:`~repro.errors.BackendError` here, leaving the
    current selection in place.
    """
    global _ACTIVE
    _ACTIVE = None if name is None else _load(name)


@contextmanager
def use_backend(name: str) -> Iterator[FusedHooks]:
    """Context manager: run a block under backend *name*."""
    global _ACTIVE
    previous = _ACTIVE
    set_backend(name)
    try:
        yield active_hooks()
    finally:
        _ACTIVE = previous
