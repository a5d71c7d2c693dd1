"""Batched price-of-anarchy engine — Theorems 4.13/4.14 over game stacks.

Pipelines the whole per-instance Section 4 anarchy computation for a
:class:`~repro.batch.container.GameBatch` at once:

* :func:`batch_poa_bound_uniform` / :func:`batch_poa_bound_general` —
  the theorem bounds as ``(...,)`` reductions over capacity tensors;
* :func:`batch_all_pure_latencies` / :func:`batch_social_optima` —
  exhaustive ``OPT1``/``OPT2`` for every game in one ``(B, P, n)``
  sweep;
* :func:`batch_equilibrium_profiles` — every pure NE (exhaustive sweep
  mask) plus the fully mixed NE when it exists, stacked into one
  ``(E, n, m)`` tensor with a game-index vector;
* :func:`batch_empirical_ratios` — worst ``(SC1/OPT1, SC2/OPT2)`` per
  game over that equilibrium stack.

The single-game functions in :mod:`repro.analysis.poa` are the ``B = 1``
views of these kernels. Parity contract: slice ``b`` of every result is
bit-identical to the sequential per-game computation (the historical
``poa_study`` loop), which ``tests/test_batch_poa.py`` asserts
differentially and ``tests/data/mixed_seed_baseline.json`` pins across
the E10/E11 campaigns. The contract is scoped to the exhaustive-optimum
regime (``m^n`` up to the single-game ``optimum(method="auto")``
cutover of 200k profiles — the campaign grids sit far below it): these
kernels always compute the optima exhaustively, while the single-game
path switches to branch-and-bound above the cutover, whose float
accumulation order is not guaranteed to agree in the last ulp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batch.container import GameBatch
from repro.batch.kernels import _all_assignments, _block_onehot, sweep_pure_nash_mask
from repro.batch.mixed import (
    batch_fully_mixed_candidate,
    batch_min_expected_latencies,
    normalize_rows,
)
from repro.errors import ModelError

#: Mirrors :data:`repro.model.social.MAX_EXHAUSTIVE_PROFILES` — kept as a
#: module constant here because importing :mod:`repro.model.social` at
#: module level would close an import cycle through the model layer
#: (``model.latency`` -> ``batch`` -> ``batch.poa`` -> ``model.social``);
#: a cross-check test asserts the two stay equal.
MAX_EXHAUSTIVE_PROFILES = 2_000_000


def enumerate_assignments(num_users: int, num_links: int) -> np.ndarray:
    """Lazy re-export of :func:`repro.model.social.enumerate_assignments`."""
    from repro.model.social import enumerate_assignments as impl

    return impl(num_users, num_links)

__all__ = [
    "batch_poa_bound_uniform",
    "batch_poa_bound_general",
    "batch_all_pure_latencies",
    "batch_social_optima",
    "EquilibriumStack",
    "batch_equilibrium_profiles",
    "BatchRatioResult",
    "batch_empirical_ratios",
]


def batch_poa_bound_uniform(capacities: np.ndarray) -> np.ndarray:
    """Theorem 4.13's bound ``(cmax/cmin)(m + n - 1)/m`` per game.

    Operates on ``(..., n, m)`` capacity tensors; valid under uniform
    user beliefs. Returns shape ``(...)``.
    """
    caps = np.asarray(capacities, dtype=np.float64)
    n, m = caps.shape[-2], caps.shape[-1]
    axes = (-2, -1)
    return caps.max(axis=axes) / caps.min(axis=axes) * (m + n - 1) / m


def batch_poa_bound_general(capacities: np.ndarray) -> np.ndarray:
    """Theorem 4.14's bound ``(cmax^2/cmin)(m + n - 1)/sum_j c^j_min``."""
    caps = np.asarray(capacities, dtype=np.float64)
    n, m = caps.shape[-2], caps.shape[-1]
    axes = (-2, -1)
    cmax = caps.max(axis=axes)
    cmin = caps.min(axis=axes)
    col_min_sum = caps.min(axis=-2).sum(axis=-1)
    return (cmax**2 / cmin) * (m + n - 1) / col_min_sum


def batch_all_pure_latencies(
    batch: GameBatch, assignments: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Latency tensor for every pure assignment of every game.

    Returns ``(assignments, latencies)`` with latencies of shape
    ``(B, P, n)`` — the stacked counterpart of
    :func:`repro.model.social.all_pure_costs`, replicating its per-link
    masked load sums so each ``[b]`` slice is bit-identical.
    """
    n, m = batch.num_users, batch.num_links
    if assignments is None:
        assignments = enumerate_assignments(n, m)
    sig = np.ascontiguousarray(assignments, dtype=np.intp)
    w = batch.weights
    num_p = sig.shape[0]
    loads = np.zeros((len(batch), num_p, m))
    for link in range(m):
        loads[:, :, link] = (w[:, None, :] * (sig == link)[None, :, :]).sum(axis=2)
    loads += batch.initial_traffic[:, None, :]
    chosen_load = np.take_along_axis(loads, sig[None, :, :], axis=2)
    chosen_cap = batch.capacities[:, np.arange(n)[None, :], sig]  # (B, P, n)
    return sig, chosen_load / chosen_cap


#: Profile rows per sweep block — matches the single-game enumerator's
#: block size, bounding the per-block tensors independently of ``m^n``.
PROFILE_BLOCK = 65_536


def batch_social_optima(
    batch: GameBatch, assignments: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(OPT1, OPT2)`` for every game: two ``(B,)`` vectors.

    One exhaustive sweep serves both objectives, blocked over the
    profile axis so peak memory stays bounded; the per-game values
    equal :func:`repro.model.social.opt1`/``opt2`` with the exhaustive
    method exactly (a blockwise minimum is the global minimum).
    """
    total = batch.num_links**batch.num_users
    if total > MAX_EXHAUSTIVE_PROFILES:
        raise ModelError(
            f"{total} assignments exceed the exhaustive limit "
            f"({MAX_EXHAUSTIVE_PROFILES})"
        )
    if assignments is None:
        assignments = enumerate_assignments(batch.num_users, batch.num_links)
    best1 = np.full(len(batch), np.inf)
    best2 = np.full(len(batch), np.inf)
    for lo in range(0, assignments.shape[0], PROFILE_BLOCK):
        _, lat = batch_all_pure_latencies(batch, assignments[lo : lo + PROFILE_BLOCK])
        np.minimum(best1, lat.sum(axis=2).min(axis=1), out=best1)
        np.minimum(best2, lat.max(axis=2).min(axis=1), out=best2)
    return best1, best2


@dataclass(frozen=True)
class EquilibriumStack:
    """All equilibria of a game stack, flattened for kernel evaluation.

    Attributes
    ----------
    game_index:
        ``(E,)`` — which game each equilibrium belongs to.
    probabilities:
        ``(E, n, m)`` profile matrices: exact one-hot rows for pure NE,
        the renormalised closed form for fully mixed NE.
    num_pure:
        ``(B,)`` pure-NE count per game.
    fmne_exists:
        ``(B,)`` interiority mask of the fully mixed candidate.
    """

    game_index: np.ndarray
    probabilities: np.ndarray
    num_pure: np.ndarray
    fmne_exists: np.ndarray

    @property
    def num_equilibria(self) -> np.ndarray:
        """``(B,)`` total equilibria per game (pure + fully mixed)."""
        return self.num_pure + self.fmne_exists.astype(np.int64)


def batch_equilibrium_profiles(
    batch: GameBatch,
    *,
    tol: float = 1e-9,
    assignments: np.ndarray | None = None,
) -> EquilibriumStack:
    """Every pure NE plus the FMNE (when interior) of every game.

    Pure equilibria come from one exhaustive
    :func:`~repro.batch.kernels.sweep_pure_nash_mask` over the whole
    stack (same verdicts as the per-game enumerator); the fully mixed
    candidates come from one closed-form evaluation. Within a game,
    pure equilibria appear in assignment-enumeration order followed by
    the fully mixed point — the order the sequential ``poa_study``
    evaluated them in.
    """
    n, m = batch.num_users, batch.num_links
    total = m**n
    if total > MAX_EXHAUSTIVE_PROFILES:
        raise ModelError(
            f"{total} profiles exceed the exhaustive limit "
            f"({MAX_EXHAUSTIVE_PROFILES})"
        )
    # The memoised one-hot blocks are keyed by (n, m, lo, hi) alone, so
    # they are only valid for the canonical memoised assignment table —
    # caller-supplied tables fall back to rebuilding per block.
    canonical = assignments is None or assignments is _all_assignments(n, m)
    if assignments is None:
        assignments = _all_assignments(n, m)
    fm = batch_fully_mixed_candidate(
        batch.weights, batch.capacities, batch.initial_traffic
    )

    # Sweep in profile blocks (bounding the one-hot/GEMM tensors) and
    # keep only the equilibrium rows — a vanishing fraction of m^n.
    num_pure = np.zeros(len(batch), dtype=np.int64)
    game_parts: list[np.ndarray] = []
    row_parts: list[np.ndarray] = []
    for lo in range(0, assignments.shape[0], PROFILE_BLOCK):
        hi = min(lo + PROFILE_BLOCK, assignments.shape[0])
        sig = assignments[lo:hi]
        mask = sweep_pure_nash_mask(
            sig,
            batch.weights,
            batch.capacities,
            batch.initial_traffic,
            tol=tol,
            # The campaign sweeps the same few (n, m) cells thousands of
            # times; the memoised one-hot block is shared with the
            # pure-NE counting kernels instead of being rebuilt here.
            onehot=_block_onehot(n, m, lo, hi, sig) if canonical else None,
        )  # (B, block)
        num_pure += mask.sum(axis=1)
        block_game, block_row = np.nonzero(mask)
        game_parts.append(block_game)
        row_parts.append(block_row + lo)
    pure_game = np.concatenate(game_parts)
    pure_row = np.concatenate(row_parts)
    onehot = np.zeros((pure_game.size, n, m))
    onehot[np.arange(pure_game.size)[:, None],
           np.arange(n)[None, :],
           assignments[pure_row]] = 1.0

    fm_games = np.flatnonzero(fm.exists)
    fm_probs = normalize_rows(fm.probabilities[fm_games])

    game_index = np.concatenate([pure_game, fm_games])
    probabilities = np.concatenate([onehot, fm_probs]) if fm_games.size else onehot
    # Stable sort keeps each game's pure NE first, FMNE last — the
    # sequential evaluation order (irrelevant to the max-reductions
    # downstream, but it keeps differential tests straightforward).
    order = np.argsort(game_index, kind="stable")
    return EquilibriumStack(
        game_index=game_index[order],
        probabilities=probabilities[order],
        num_pure=num_pure,
        fmne_exists=fm.exists,
    )


@dataclass(frozen=True)
class BatchRatioResult:
    """Worst empirical coordination ratios per game.

    ``ratio_sc1``/``ratio_sc2`` are ``(B,)`` worst ``SC1/OPT1`` and
    ``SC2/OPT2`` over each game's equilibria (zero where a game has no
    equilibrium — ``num_equilibria`` tells them apart).
    """

    ratio_sc1: np.ndarray
    ratio_sc2: np.ndarray
    num_equilibria: np.ndarray
    opt1: np.ndarray
    opt2: np.ndarray


def batch_empirical_ratios(
    batch: GameBatch, *, tol: float = 1e-9
) -> BatchRatioResult:
    """Worst ``(SC1/OPT1, SC2/OPT2)`` over all equilibria of every game.

    The batched counterpart of
    :func:`repro.analysis.poa.empirical_coordination_ratios` with the
    default (exhaustive) equilibrium set: all pure NE plus the fully
    mixed NE when it exists (per Theorems 4.11/4.12 the maximiser).
    """
    total = batch.num_links**batch.num_users
    if total > MAX_EXHAUSTIVE_PROFILES:
        raise ModelError(
            f"{total} profiles exceed the exhaustive limit "
            f"({MAX_EXHAUSTIVE_PROFILES})"
        )
    assignments = _all_assignments(batch.num_users, batch.num_links)
    stack = batch_equilibrium_profiles(batch, tol=tol, assignments=assignments)
    o1, o2 = batch_social_optima(batch, assignments)

    gidx = stack.game_index
    costs = batch_min_expected_latencies(
        stack.probabilities,
        batch.weights[gidx],
        batch.capacities[gidx],
        batch.initial_traffic[gidx],
    )  # (E, n)
    r1 = costs.sum(axis=1) / o1[gidx]
    r2 = costs.max(axis=1) / o2[gidx]
    worst1 = np.zeros(len(batch))
    worst2 = np.zeros(len(batch))
    np.maximum.at(worst1, gidx, r1)
    np.maximum.at(worst2, gidx, r2)
    return BatchRatioResult(
        ratio_sc1=worst1,
        ratio_sc2=worst2,
        num_equilibria=stack.num_equilibria,
        opt1=o1,
        opt2=o2,
    )
