"""Batched fixed-point mixed-equilibrium solver (beyond enumeration width).

Support enumeration (:mod:`repro.batch.support`) is exponential in
``(n, m)`` and caps every mixed experiment's grid at toy widths. This
module is the ROADMAP item-3 solver: a batched smoothed best-response /
proportional-fitting iteration over ``(B, n, m)`` probability tensors
that finds mixed Nash equilibria at ``n, m`` far beyond anything
enumerable, with per-game convergence masks and a certified residual
check against the module's own Nash oracle.

The iteration
-------------
State is a row-stochastic tensor ``P`` of shape ``(B, n, m)``, started
uniform. One *round* updates every user once, sequentially in index
order (user ``i`` sees the link traffic already updated by users
``0..i-1`` — the Gauss-Seidel schedule; simultaneous lockstep updates
oscillate at large ``n`` because the congestion externality makes every
user overshoot at once). For user ``i`` with expected latencies
``lat_l`` and row minimum ``mins``:

    q_l   = mins / lat_l                 in (0, 1], 1 on best links
    g_l   = p_l * q_l ** beta            proportional fitting
    p'_l  = (1 - eta) p_l + eta g_l / sum(g)

``beta`` is the inverse temperature: ``beta = 0`` keeps the row fixed,
``beta -> inf`` is hard best response. It anneals by doubling each
round (1, 2, 4, ... ``beta_max``), so early rounds move smoothly while
late rounds sharpen supports. ``q ** beta`` is computed by repeated
squaring of power-of-two exponents — no ``exp``/``pow``/``log`` — so
the whole update is elementwise IEEE arithmetic plus index-order
accumulations, which is what lets the numba fused kernel reproduce the
NumPy path *bit for bit* (the same contract as
:func:`repro.batch.pure._scatter_loads`).

Link traffic ``W^l = sum_i p_il w_i`` is maintained incrementally
inside a round (subtract the mover's old row contribution, add the
new), and rebuilt from scratch — users in index order — at the top of
every round, where the convergence residual is also checked; per-round
cost is ``O(B n m)``.

Convergence, stall and certification
------------------------------------
The residual of a game is the worst supported-link excess latency

    r = max over (i, l) with p_il > SUPPORT_ATOL of
        (lat_il - mins_i) / max(mins_i, 1)

— *identical* to the condition :func:`~repro.batch.mixed.batch_is_mixed_nash`
tests, so a game converged at ``tol`` (default 1e-10) is structurally
certified by the oracle at :data:`CERT_TOL` (1e-8); the 100x margin
absorbs the ulp-level difference between the solver's index-order
traffic accumulation and the oracle's BLAS mat-vec. Certification is
nevertheless *recomputed* through the public oracle on the returned
tensors — every profile in a :class:`BatchFixpointResult` is either
certified within :data:`CERT_TOL` or explicitly flagged
(``converged``/``certified`` False).

Games converge individually: a converged game freezes (its rows stop
updating, so convergence masks are monotone in the budget and a longer
budget replays a shorter one's trajectory exactly). A game that shows
no relative residual improvement for ``stall_rounds`` rounds, or that
exhausts ``max_rounds``, is flagged non-converged — masked out, never
fatal for the batch. The ``B = 1`` view
(:func:`repro.equilibria.fixpoint.fixpoint_mixed_nash`) turns the flag
into a :class:`~repro.errors.ConvergenceError`.

Fused hook
----------
The kernels call NumPy directly; the whole round loop is the
``fixpoint_loop`` fused hook (:class:`~repro.batch.backend.FusedHooks`),
which the numba backend implements as a compiled ``prange``-per-game
loop reproducing the generic trajectory state for state. The generic
composition below remains the bit-parity reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batch.backend import active_hooks
from repro.batch.mixed import SUPPORT_ATOL, batch_is_mixed_nash
from repro.errors import DimensionError, ModelError

__all__ = [
    "CERT_TOL",
    "DEFAULT_BETA_MAX",
    "DEFAULT_ETA",
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_STALL_ROUNDS",
    "DEFAULT_TOL",
    "BatchFixpointResult",
    "batch_fixpoint_mixed_nash",
]

#: Oracle tolerance every returned profile is certified against (or
#: flagged): ``batch_is_mixed_nash(probabilities, ..., tol=CERT_TOL)``.
CERT_TOL = 1e-8

#: Residual tolerance declaring a game converged. 100x tighter than
#: :data:`CERT_TOL`, so converged implies certified (see module notes).
DEFAULT_TOL = 1e-10

#: Damping factor of the proportional-fitting update.
DEFAULT_ETA = 0.5

#: Inverse-temperature ceiling of the doubling anneal (a power of two).
DEFAULT_BETA_MAX = 256

#: Round budget (one round = one sequential update of every user).
DEFAULT_MAX_ROUNDS = 4000

#: Rounds without relative residual improvement before a game is
#: declared stalled. Generous on purpose: the residual is a step
#: function of support collapse (it only drops when a probability
#: crosses :data:`~repro.batch.mixed.SUPPORT_ATOL`), so short windows
#: would kill games mid-collapse.
DEFAULT_STALL_ROUNDS = 1000

#: Relative improvement that resets the stall window.
STALL_RTOL = 1e-3


@dataclass(frozen=True)
class BatchFixpointResult:
    """Per-game outcome of one batched fixed-point solve.

    Attributes
    ----------
    probabilities:
        ``(B, n, m)`` row-stochastic profiles — the solver state at
        termination for every game, converged or not.
    residuals:
        ``(B,)`` last supported-link excess-latency residual measured
        while the game was still active (``<= tol`` iff converged).
    rounds:
        ``(B,)`` int64 — update rounds each game consumed before
        converging or being flagged.
    converged:
        ``(B,)`` bool — residual reached *tol* within the budgets.
    stalled:
        ``(B,)`` bool — flagged by the stall window (a non-converged
        game with ``stalled`` False exhausted ``max_rounds`` instead).
    certified:
        ``(B,)`` bool — the public oracle's verdict
        ``batch_is_mixed_nash(probabilities, ..., tol=certify_tol)`` on
        the returned tensors. The solver's contract is
        ``converged implies certified``; a profile with ``certified``
        False is explicitly *not* an equilibrium claim.
    """

    probabilities: np.ndarray
    residuals: np.ndarray
    rounds: np.ndarray
    converged: np.ndarray
    stalled: np.ndarray
    certified: np.ndarray


def _validated(
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    w = np.asarray(weights, dtype=np.float64)
    caps = np.asarray(capacities, dtype=np.float64)
    if caps.ndim != 3 or w.ndim != 2:
        raise DimensionError(
            "batch_fixpoint_mixed_nash needs weights (B, n) and "
            f"capacities (B, n, m); got {w.shape} and {caps.shape}"
        )
    b, n, m = caps.shape
    if w.shape != (b, n):
        raise DimensionError(
            f"capacities cover (B, n) = ({b}, {n}), weights are {w.shape}"
        )
    if initial_traffic is None:
        t = np.zeros((b, m))
    else:
        t = np.asarray(initial_traffic, dtype=np.float64)
        if t.shape != (b, m):
            raise DimensionError(
                f"initial_traffic must be ({b}, {m}), got {t.shape}"
            )
    return w, caps, t


def _generic_fixpoint_loop(
    w: np.ndarray,
    caps: np.ndarray,
    t: np.ndarray,
    tol: float,
    eta: float,
    log2_beta_max: int,
    max_rounds: int,
    stall_rounds: int,
    stall_rtol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The bit-parity reference round loop (see the hook contract on
    :class:`~repro.batch.backend.FusedHooks`)."""
    b, n, m = caps.shape
    p = np.full((b, n, m), 1.0 / m)
    rounds = np.zeros(b, dtype=np.int64)
    residuals = np.full(b, np.inf)
    best = np.full(b, np.inf)
    since = np.zeros(b, dtype=np.int64)
    converged = np.zeros(b, dtype=bool)
    stalled = np.zeros(b, dtype=bool)
    active = np.ones(b, dtype=bool)
    log2beta = 0
    for k in range(max_rounds + 1):
        # Rebuild link traffic from scratch, users in index order (the
        # bit-parity accumulation contract), and check the residual.
        w_link = np.zeros((b, m))
        for i in range(n):
            w_link = w_link + p[:, i, :] * w[:, i, None]
        lat = ((1.0 - p) * w[:, :, None] + (t + w_link)[:, None, :]) / caps
        mins = lat.min(axis=-1)
        scale = np.maximum(mins, 1.0)
        excess = (lat - mins[..., None]) / scale[..., None]
        r = np.where(p > SUPPORT_ATOL, excess, 0.0).max(axis=(-2, -1))
        residuals = np.where(active, r, residuals)
        newly = active & (r <= tol)
        converged |= newly
        active &= ~newly
        improved = active & (r < best * (1.0 - stall_rtol))
        best = np.where(improved, r, best)
        since = np.where(active, np.where(improved, 0, since + 1), since)
        newly_stalled = active & (since >= stall_rounds)
        stalled |= newly_stalled
        active &= ~newly_stalled
        if k == max_rounds or not active.any():
            break
        # One round: every user in index order, each seeing the link
        # traffic already updated by earlier movers (Gauss-Seidel).
        for u in range(n):
            row = p[:, u, :]
            lat_u = ((1.0 - row) * w[:, u, None] + (t + w_link)) / caps[:, u, :]
            q = lat_u.min(axis=-1)[:, None] / lat_u
            qb = q
            for _ in range(log2beta):
                qb = qb * qb
            g = row * qb
            s = g[:, 0]
            for link in range(1, m):
                s = s + g[:, link]
            updated = (1.0 - eta) * row + eta * (g / s[:, None])
            updated = np.where(active[:, None], updated, row)
            w_link = w_link + (updated - row) * w[:, u, None]
            p[:, u, :] = updated
        rounds = np.where(active, rounds + 1, rounds)
        if log2beta < log2_beta_max:
            log2beta += 1
    return p, rounds, residuals, converged, stalled


def batch_fixpoint_mixed_nash(
    weights: np.ndarray,
    capacities: np.ndarray,
    initial_traffic: np.ndarray | None = None,
    *,
    tol: float = DEFAULT_TOL,
    eta: float = DEFAULT_ETA,
    beta_max: int = DEFAULT_BETA_MAX,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    stall_rounds: int = DEFAULT_STALL_ROUNDS,
    stall_rtol: float = STALL_RTOL,
    certify_tol: float = CERT_TOL,
) -> BatchFixpointResult:
    """Solve a ``(B, n, m)`` game stack for mixed Nash equilibria.

    Runs the annealed smoothed best-response iteration (module notes)
    until every game converges to residual *tol*, stalls, or exhausts
    *max_rounds*, then certifies the returned tensors through
    :func:`~repro.batch.mixed.batch_is_mixed_nash` at *certify_tol*.
    Per-game failures are masks on the result, never exceptions.

    Determinism: the trajectory of game ``b`` is a pure function of
    that game's reduced form and the solver parameters — independent of
    its batch-mates, batch order and padding, and identical between the
    NumPy reference and the numba fused hook bit for bit.

    *beta_max* must be a power of two (the anneal doubles up to it and
    the exponentiation is by repeated squaring).
    """
    w, caps, t = _validated(weights, capacities, initial_traffic)
    if beta_max < 1 or beta_max & (beta_max - 1):
        raise ModelError(f"beta_max must be a power of two, got {beta_max}")
    if not 0.0 < eta <= 1.0:
        raise ModelError(f"eta must lie in (0, 1], got {eta}")
    if max_rounds < 0 or stall_rounds < 1:
        raise ModelError("max_rounds must be >= 0 and stall_rounds >= 1")
    log2_beta_max = int(beta_max).bit_length() - 1
    args = (
        float(tol),
        float(eta),
        log2_beta_max,
        int(max_rounds),
        int(stall_rounds),
        float(stall_rtol),
    )
    hooks = active_hooks()
    fused = None
    if hooks.fixpoint_loop is not None:
        fused = hooks.fixpoint_loop(w, caps, t, *args)
    if fused is None:
        fused = _generic_fixpoint_loop(w, caps, t, *args)
    p, rounds, residuals, converged, stalled = fused
    certified = batch_is_mixed_nash(p, w, caps, t, tol=certify_tol)
    return BatchFixpointResult(
        probabilities=p,
        residuals=residuals,
        rounds=rounds,
        converged=converged,
        stalled=stalled,
        certified=np.asarray(certified, dtype=bool),
    )
