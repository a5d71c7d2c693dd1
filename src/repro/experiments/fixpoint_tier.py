"""Experiment E13: the fixed-point solver tier beyond enumeration.

Every other mixed-strategy experiment stops where support enumeration
stops (``m^n`` exhaustive censuses, k×k indifference systems). E13 runs
the iterative fixed-point solver
(:func:`repro.batch.fixpoint.batch_fixpoint_mixed_nash`) on games one
to two orders of magnitude wider — tens of users and links — and
verifies the two things the paper still predicts out there:

* **certified equilibria exist and the solver finds them** — every
  converged game's profile must pass the mixed-Nash oracle
  (:func:`repro.batch.mixed.batch_is_mixed_nash`) at the solver's
  certification tolerance, and non-convergence must be flagged, never
  silent. The solver rounds every game's profile to its argmax each
  round and stops as soon as that pure profile certifies, so the table
  splits the converged games into ``pure`` (one-hot) and ``mixed``
  answers — Conjecture 3.7 predicts the pure column carries them;
* **FMNE dominance strain (Lemma 4.9 / Thms 4.11-4.12)** — wherever
  the fully mixed closed form is interior, the solver's equilibrium
  must be dominated by it user-by-user, exactly the E9 check but at
  widths where enumerating "every equilibrium" is impossible, so the
  solver's one certified equilibrium stands in for the census.

The sweep runs two seeded families because interiority is
width-sensitive: general heterogeneous-belief draws essentially never
admit an interior fully mixed point past a dozen users (the closed
form goes non-positive somewhere), while uniform-beliefs draws always
do (Thm 4.8). The general family carries the certification leg; the
uniform family keeps the dominance leg non-vacuous at every width.

Execution model matches E7-E9: a declarative
:class:`~repro.runtime.spec.SweepSpec` over a seeded grid, chunk
kernels that stack replications into a
:class:`~repro.batch.container.GameBatch`, and bit-identical results
under any ``jobs`` / ``batch_size`` / ``resume`` configuration because
per-rep seeds come from :func:`~repro.util.rng.stable_seed` and the
solver trajectory of each game is independent of its batch-mates.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.batch.container import GameBatch
from repro.batch.fixpoint import batch_fixpoint_mixed_nash
from repro.batch.mixed import (
    SUPPORT_ATOL,
    batch_fully_mixed_candidate,
    batch_min_expected_latencies,
)
from repro.experiments.base import ExperimentResult
from repro.generators.suites import GridCell
from repro.runtime import ResultStore, SweepSpec, run_sweep
from repro.util.parallel import ReplicationChunk
from repro.util.tables import Table

__all__ = ["run_e13", "e13_specs"]

#: Fields of one E13 chunk payload (see ``_solve_chunk_batch``).
PAYLOAD_FIELDS = 8

#: Relative dominance slack, matching E9's comparison against the
#: closed form (the solver residual itself is certified far tighter).
_DOMINANCE_RTOL = 1e-7


def _solve_chunk_batch(
    batch: GameBatch,
) -> tuple[int, int, int, int, int, float, int, int]:
    """``(games, converged, certified, dominance checked, violations,
    worst residual, total rounds, pure)`` for one stacked chunk.

    ``pure`` counts the converged games whose every user supports one
    link (probability above ``SUPPORT_ATOL``) — the one-hot answers.
    """
    result = batch_fixpoint_mixed_nash(
        batch.weights, batch.capacities, batch.initial_traffic
    )
    fm = batch_fully_mixed_candidate(
        batch.weights, batch.capacities, batch.initial_traffic
    )
    comparable = np.flatnonzero(fm.exists & result.converged)
    one_hot = ((result.probabilities > SUPPORT_ATOL).sum(axis=-1) == 1).all(
        axis=-1
    )
    violations = 0
    if comparable.size:
        lat = batch_min_expected_latencies(
            result.probabilities[comparable],
            batch.weights[comparable],
            batch.capacities[comparable],
            batch.initial_traffic[comparable],
        )  # (K, n)
        reference = fm.latencies[comparable]
        scale = np.maximum(np.abs(reference), 1.0)
        violations = int(
            np.count_nonzero(lat - reference > _DOMINANCE_RTOL * scale)
        )
    return (
        len(batch),
        int(result.converged.sum()),
        int(result.certified.sum()),
        int(comparable.size),
        violations,
        float(result.residuals[result.converged].max(initial=0.0)),
        int(result.rounds.sum()),
        int(np.count_nonzero(result.converged & one_hot)),
    )


def _examine_e13_chunk(
    chunk: ReplicationChunk,
) -> tuple[int, int, int, int, int, float, int, int]:
    """The general heterogeneous-belief family (certification leg)."""
    return _solve_chunk_batch(
        GameBatch.from_seeds(chunk.seeds(), chunk.num_users, chunk.num_links)
    )


def _examine_e13_uniform_chunk(
    chunk: ReplicationChunk,
) -> tuple[int, int, int, int, int, float, int, int]:
    """The uniform-beliefs family (interior FMNE — dominance leg).

    Drawn *with* initial traffic: without it the equiprobable start is
    already the equilibrium (Thm 4.8) and the solver would converge in
    zero rounds, proving nothing about the iteration.
    """
    return _solve_chunk_batch(
        GameBatch.from_seeds_uniform_beliefs(
            chunk.seeds(),
            chunk.num_users,
            chunk.num_links,
            with_initial_traffic=True,
        )
    )


def e13_specs(*, quick: bool = False) -> tuple[SweepSpec, ...]:
    """E13's declarative sweeps: widths past the enumeration ceiling.

    The full grid tops out at ``(100, 10)`` — ``10^100`` pure profiles,
    ~95 orders of magnitude past the exhaustive-census services — while
    quick mode keeps two cells just past the ``m^n`` service guard so
    the smoke tier still exercises the beyond-enumeration claim. Two
    specs with distinct seed labels: the general family and the
    uniform-beliefs family (see the module docstring).
    """
    if quick:
        cells = ((12, 4, 2), (16, 4, 2))
    else:
        cells = ((16, 4, 6), (32, 6, 4), (64, 8, 3), (100, 10, 2))
    grid = tuple(GridCell(n, m, reps) for (n, m, reps) in cells)
    return (
        SweepSpec(
            "E13", "E13", grid, _examine_e13_chunk,
            payload_fields=PAYLOAD_FIELDS,
        ),
        SweepSpec(
            "E13", "E13-uniform", grid, _examine_e13_uniform_chunk,
            payload_fields=PAYLOAD_FIELDS,
        ),
    )


def run_e13(
    *,
    quick: bool = False,
    jobs: int = 1,
    batch_size: int | None = None,
    seed: int | None = None,
    store: Union[ResultStore, str, Path, None] = None,
    resume: bool = False,
) -> ExperimentResult:
    """E13 — certified fixed-point equilibria beyond enumeration."""
    general_spec, uniform_spec = e13_specs(quick=quick)
    table = Table(
        ["beliefs", "n", "m", "instances", "converged", "pure", "mixed",
         "certified", "dominance", "violations", "worst residual",
         "mean rounds"],
        title="E13 — fixed-point solver tier, rounded and certified "
              "every round (beyond enumeration)",
    )
    all_ok = True
    cells = []
    for family, spec in (
        ("general", general_spec), ("uniform", uniform_spec)
    ):
        sweep = run_sweep(
            spec, jobs=jobs, batch_size=batch_size, seed=seed, store=store,
            resume=resume,
        )
        totals = [[0, 0, 0, 0, 0, 0.0, 0, 0] for _ in spec.cells]
        for cell_index, payload in zip(
            sweep.cell_of_chunk, sweep.chunk_payloads
        ):
            games, conv, cert, checked, bad, residual, rounds, pure = payload
            cell = totals[cell_index]
            cell[0] += games
            cell[1] += conv
            cell[2] += cert
            cell[3] += checked
            cell[4] += bad
            cell[5] = max(cell[5], residual)
            cell[6] += rounds
            cell[7] += pure
        for grid_cell, (
            games, conv, cert, checked, bad, residual, rounds, pure
        ) in zip(spec.cells, totals):
            # Every converged profile must be oracle-certified, and no
            # certified profile may beat the fully mixed point.
            # Convergence itself is reported, not asserted — a stalled
            # game is an honest flag, not a reproduction failure — but
            # the tier is only evidence if most games converge, and
            # the uniform family (interior FMNE by Thm 4.8) must
            # actually exercise the dominance comparison.
            ok = cert == conv and bad == 0 and conv * 2 >= games
            if family == "uniform":
                ok = ok and checked == conv and checked > 0
            all_ok = all_ok and ok
            cells.append(
                {
                    "family": family,
                    "n": grid_cell.num_users, "m": grid_cell.num_links,
                    "reps": grid_cell.replications, "games": games,
                    "converged": conv, "pure": pure, "certified": cert,
                    "dominance_checked": checked, "violations": bad,
                    "worst_residual": residual,
                }
            )
            table.add_row(
                [family, grid_cell.num_users, grid_cell.num_links,
                 grid_cell.replications, f"{conv}/{games}", pure,
                 conv - pure, f"{cert}/{conv}", checked, bad, f"{residual:.2e}",
                 round(rounds / max(games, 1))]
            )
    return ExperimentResult(
        "E13",
        "Fixed-point solver: certified equilibria past enumeration",
        passed=all_ok,
        tables=[table],
        details={"all_ok": all_ok, "cells": cells},
    )
