"""Differential and property tests for the fixed-point solver.

The contract under test is ISSUE PR 9's strong one:

* at every enumerable width the fixpoint solver's equilibrium is one of
  the equilibria support enumeration finds, within tolerance — across
  the batched path, the ``B = 1`` view and the service op;
* every returned profile is certified by the public mixed-Nash oracle
  at :data:`~repro.batch.fixpoint.CERT_TOL` or explicitly flagged;
* convergence masks are monotone in the round budget and converged
  trajectories are frozen (longer budgets replay shorter ones exactly);
* the round-and-certify step only ever stops a game at a one-hot
  profile that is itself an equilibrium within ``tol``;
* results are bit-invariant to batch padding, batch order, and the
  campaign runtime's ``jobs`` / ``batch_size`` / ``resume`` knobs
  (the E13 chunking contract).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.container import GameBatch
from repro.batch.fixpoint import (
    CERT_TOL,
    DEFAULT_TOL,
    BatchFixpointResult,
    _residuals,
    batch_fixpoint_mixed_nash,
)
from repro.batch.mixed import batch_is_mixed_nash
from repro.batch.support import batch_enumerate_mixed_nash
from repro.equilibria import FixpointSolution, fixpoint_mixed_nash
from repro.errors import ConvergenceError, DimensionError, ModelError
from repro.experiments.registry import get_experiment_specs, run_experiment
from repro.model.game import UncertainRoutingGame
from repro.runtime import run_sweep
from repro.service import (
    EquilibriumRequest,
    EquilibriumServer,
    ServiceClient,
    solve_fixpoint_requests,
)
from repro.util.rng import stable_seed

#: Distance at which a fixpoint profile "is" an enumerated equilibrium.
#: The solver converges to residual 1e-10; observed distances to the
#: matching enumerated profile stay below ~2e-12.
MATCH_ATOL = 1e-6

#: Enumerable widths for the differential leg.
_SMALL_GRID = [(2, 2), (3, 2), (3, 3), (4, 3), (5, 3)]


def _seeded_batch(
    tag: str, n: int, m: int, count: int, **kwargs
) -> GameBatch:
    seeds = [stable_seed("fixpoint-test", tag, n, m, i) for i in range(count)]
    return GameBatch.from_seeds(seeds, n, m, **kwargs)


def _solve(batch: GameBatch, **kwargs) -> BatchFixpointResult:
    return batch_fixpoint_mixed_nash(
        batch.weights, batch.capacities, batch.initial_traffic, **kwargs
    )


def _matches_an_enumerated_equilibrium(
    probabilities: np.ndarray, equilibria
) -> bool:
    return any(
        float(np.abs(eq.matrix - probabilities).max()) <= MATCH_ATOL
        for eq in equilibria
    )


class TestDifferentialAgainstEnumeration:
    """The solver's one equilibrium is in enumeration's complete set."""

    @pytest.mark.parametrize(("n", "m"), _SMALL_GRID)
    def test_batched_profile_is_an_enumerated_equilibrium(self, n, m):
        batch = _seeded_batch("diff", n, m, 6)
        result = _solve(batch)
        assert bool(result.converged.all()), result.residuals
        assert bool(result.certified.all())
        all_equilibria = batch_enumerate_mixed_nash(
            batch.weights, batch.capacities, batch.initial_traffic
        )
        for b, equilibria in enumerate(all_equilibria):
            assert _matches_an_enumerated_equilibrium(
                result.probabilities[b], equilibria
            ), f"game {b} of ({n}, {m}) not in the enumerated set"

    @pytest.mark.parametrize(("n", "m"), _SMALL_GRID)
    def test_with_initial_traffic(self, n, m):
        batch = _seeded_batch("diff-t", n, m, 4, with_initial_traffic=True)
        result = _solve(batch)
        assert bool(result.converged.all())
        all_equilibria = batch_enumerate_mixed_nash(
            batch.weights, batch.capacities, batch.initial_traffic
        )
        for b, equilibria in enumerate(all_equilibria):
            assert _matches_an_enumerated_equilibrium(
                result.probabilities[b], equilibria
            )

    def test_b1_view_is_bit_identical_to_batched_row(self):
        batch = _seeded_batch("b1", 4, 3, 5)
        result = _solve(batch)
        for b in range(len(batch)):
            game = UncertainRoutingGame.from_capacities(
                batch.weights[b],
                batch.capacities[b],
                initial_traffic=batch.initial_traffic[b],
            )
            solution = fixpoint_mixed_nash(game)
            assert isinstance(solution, FixpointSolution)
            assert np.array_equal(
                solution.profile.matrix, result.probabilities[b]
            )
            assert solution.rounds == int(result.rounds[b])
            assert solution.residual == float(result.residuals[b])
            assert solution.certified == bool(result.certified[b])

    def test_service_op_is_bit_identical_to_batched_solve(self):
        batch = _seeded_batch("svc", 3, 3, 4)
        requests = [
            EquilibriumRequest.from_arrays(
                batch.weights[b],
                batch.capacities[b],
                batch.initial_traffic[b],
            )
            for b in range(len(batch))
        ]
        responses = solve_fixpoint_requests(requests)
        result = _solve(batch)
        for b, response in enumerate(responses):
            assert response["digest"] == requests[b].digest
            assert response["converged"] is True
            assert response["certified"] is True
            assert response["rounds"] == int(result.rounds[b])
            assert response["residual"] == float(result.residuals[b])
            assert np.array_equal(
                np.array(response["probabilities"]), result.probabilities[b]
            )

    def test_service_op_mixed_shapes_and_width_relaxation(self):
        small = _seeded_batch("mix", 3, 3, 2)
        wide = _seeded_batch("mix", 20, 5, 1)  # 5^20 pure profiles
        requests = [
            EquilibriumRequest.from_arrays(
                b.weights[i], b.capacities[i], b.initial_traffic[i],
                check_width=False,
            )
            for b in (small, wide)
            for i in range(len(b))
        ]
        responses = solve_fixpoint_requests(requests)
        assert [r["num_users"] for r in responses] == [3, 3, 20]
        for request, response in zip(requests, responses):
            assert response["digest"] == request.digest
            assert response["converged"] and response["certified"]
            probabilities = np.array(response["probabilities"])
            assert bool(
                batch_is_mixed_nash(
                    probabilities[None],
                    request.weights[None],
                    request.capacities[None],
                    request.initial_traffic[None],
                    tol=CERT_TOL,
                )[0]
            )


class TestFlaggingAndErrors:
    def test_exhausted_budget_is_flagged_not_fatal(self):
        batch = _seeded_batch("flag", 5, 3, 3)
        result = _solve(batch, max_rounds=2)
        assert not bool(result.converged.any())
        assert not bool(result.stalled.any())
        assert bool((result.rounds == 2).all())
        # Uncertified profiles are still returned, flagged.
        assert result.probabilities.shape == (3, 5, 3)
        np.testing.assert_allclose(result.probabilities.sum(axis=-1), 1.0)

    def test_certified_recomputed_through_public_oracle(self):
        batch = _seeded_batch("cert", 4, 3, 4)
        for max_rounds in (0, 3, 4000):
            result = _solve(batch, max_rounds=max_rounds)
            oracle = batch_is_mixed_nash(
                result.probabilities,
                batch.weights,
                batch.capacities,
                batch.initial_traffic,
                tol=CERT_TOL,
            )
            assert np.array_equal(result.certified, np.asarray(oracle))
            # converged => certified (tol is 100x tighter than CERT_TOL)
            assert bool((~result.converged | result.certified).all())

    def test_b1_view_raises_convergence_error(self):
        batch = _seeded_batch("raise", 4, 3, 1)
        game = UncertainRoutingGame.from_capacities(
            batch.weights[0], batch.capacities[0]
        )
        with pytest.raises(ConvergenceError, match="round budget exhausted"):
            fixpoint_mixed_nash(game, max_rounds=1)

    @pytest.mark.parametrize(
        "kwargs",
        [{"beta_max": 3}, {"beta_max": 0}, {"eta": 0.0}, {"eta": 1.5},
         {"max_rounds": -1}, {"stall_rounds": 0}],
    )
    def test_invalid_parameters_raise(self, kwargs):
        batch = _seeded_batch("bad", 3, 2, 1)
        with pytest.raises(ModelError):
            _solve(batch, **kwargs)

    def test_width_guard_still_applies_by_default(self):
        batch = _seeded_batch("guard", 20, 5, 1)
        with pytest.raises(Exception, match="pure profiles"):
            EquilibriumRequest.from_arrays(
                batch.weights[0], batch.capacities[0]
            )


@st.composite
def _game_shapes(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=2, max_value=4))
    count = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, m, count, seed


class TestProperties:
    @given(_game_shapes())
    @settings(max_examples=20, deadline=None)
    def test_certified_iff_oracle_accepts(self, shape):
        n, m, count, seed = shape
        batch = GameBatch.from_seeds(
            [seed + i for i in range(count)], n, m
        )
        result = _solve(batch)
        oracle = batch_is_mixed_nash(
            result.probabilities,
            batch.weights,
            batch.capacities,
            batch.initial_traffic,
            tol=CERT_TOL,
        )
        assert np.array_equal(result.certified, np.asarray(oracle))

    @given(_game_shapes())
    @settings(max_examples=15, deadline=None)
    def test_convergence_masks_monotone_in_budget(self, shape):
        n, m, count, seed = shape
        batch = GameBatch.from_seeds(
            [seed + i for i in range(count)], n, m
        )
        budgets = (5, 40, 400, 4000)
        results = [_solve(batch, max_rounds=budget) for budget in budgets]
        for short, long in zip(results, results[1:]):
            # Monotone: a game converged under the short budget stays
            # converged under the long one...
            assert bool((~short.converged | long.converged).all())
            # ...and its trajectory is frozen: probabilities, round
            # count and residual replay exactly.
            for b in np.flatnonzero(short.converged):
                assert np.array_equal(
                    short.probabilities[b], long.probabilities[b]
                )
                assert short.rounds[b] == long.rounds[b]
                assert short.residuals[b] == long.residuals[b]

    @given(_game_shapes())
    @settings(max_examples=15, deadline=None)
    def test_batch_padding_and_order_invariance(self, shape):
        n, m, count, seed = shape
        batch = GameBatch.from_seeds(
            [seed + i for i in range(count)], n, m
        )
        together = _solve(batch)
        # Each game alone (maximal "padding" change) is bit-identical.
        for b in range(count):
            alone = _solve(batch.subbatch([b]))
            assert np.array_equal(
                alone.probabilities[0], together.probabilities[b]
            )
            assert alone.rounds[0] == together.rounds[b]
            assert alone.residuals[0] == together.residuals[b]
            assert alone.converged[0] == together.converged[b]
        # Reversed batch order too.
        reversed_batch = batch.subbatch(list(range(count))[::-1])
        reversed_result = _solve(reversed_batch)
        assert np.array_equal(
            reversed_result.probabilities, together.probabilities[::-1]
        )
        assert np.array_equal(
            reversed_result.rounds, together.rounds[::-1]
        )


def _one_hot(probabilities: np.ndarray) -> np.ndarray:
    """Per game: every entry is exactly 0 or 1 (rows sum to one)."""
    return np.isin(probabilities, (0.0, 1.0)).all(axis=(-2, -1))


class TestRoundAndCertify:
    """Each round the solver tries the argmax profile and stops a game
    as soon as that pure profile is an equilibrium within ``tol``."""

    def test_rounding_returns_a_certified_one_hot_profile(self):
        batch = _seeded_batch("round", 8, 4, 1)
        result = _solve(batch)
        assert bool(result.converged[0]) and bool(result.certified[0])
        assert bool(_one_hot(result.probabilities)[0])
        assert float(result.residuals[0]) <= DEFAULT_TOL
        # The annealed iterate needed 46 rounds to shed its off-support
        # mass; the rounded profile certifies long before.
        assert 0 < int(result.rounds[0]) < 46
        assert bool(
            batch_is_mixed_nash(
                result.probabilities,
                batch.weights,
                batch.capacities,
                batch.initial_traffic,
                tol=CERT_TOL,
            )[0]
        )

    @given(_game_shapes())
    @settings(max_examples=20, deadline=None)
    def test_converged_means_annealed_to_tol_or_one_hot(self, shape):
        n, m, count, seed = shape
        batch = GameBatch.from_seeds(
            [seed + i for i in range(count)], n, m, with_initial_traffic=True
        )
        result = _solve(batch)
        recomputed, _ = _residuals(
            result.probabilities,
            batch.weights[:, :, None],
            batch.capacities,
            batch.initial_traffic,
            np.empty_like(result.probabilities),
        )
        one_hot = _one_hot(result.probabilities)
        for b in np.flatnonzero(result.converged):
            # The reported residual is the returned profile's own,
            # bit for bit, whichever way the game converged.
            assert recomputed[b] == result.residuals[b] <= DEFAULT_TOL
            if one_hot[b]:
                # A rounded answer is a pure Nash equilibrium, checked
                # here from scratch: no user gains by moving.
                links = result.probabilities[b].argmax(axis=-1)
                loads = batch.initial_traffic[b] + np.bincount(
                    links, weights=batch.weights[b], minlength=m
                )
                for i, link in enumerate(links):
                    moved = loads + batch.weights[b, i]
                    moved[link] = loads[link]
                    lat = moved / batch.capacities[b, i]
                    best = lat.min()
                    assert lat[link] <= best + CERT_TOL * max(best, 1.0)

    def test_bench_stack_needs_at_most_half_the_annealing_rounds(self):
        """The 48-game ``bench_fixpoint`` stack took 2,456 rounds in
        total when games could only converge by annealing."""
        seeds = [stable_seed("bench-fixpoint", 16, 4, rep) for rep in range(48)]
        batch = GameBatch.from_seeds(seeds, 16, 4)
        result = _solve(batch)
        assert bool(result.converged.all()) and bool(result.certified.all())
        assert int(result.rounds.sum()) <= 2456 // 2


class TestInputValidation:
    """Value checks shared with :class:`GameBatch` (shapes are checked
    separately); an empty stack is still a no-op."""

    @pytest.mark.parametrize(
        ("n", "m", "field", "value", "error"),
        [
            (3, 0, None, None, DimensionError),
            (0, 3, None, None, DimensionError),
            (3, 2, "capacities", np.nan, ModelError),
            (3, 2, "capacities", 0.0, ModelError),
            (3, 2, "capacities", np.inf, ModelError),
            (3, 2, "weights", np.nan, ModelError),
            (3, 2, "weights", -1.0, ModelError),
            (3, 2, "traffic", np.nan, ModelError),
            (3, 2, "traffic", -0.5, ModelError),
        ],
    )
    def test_bad_values_raise(self, n, m, field, value, error):
        weights = np.ones((2, n))
        capacities = np.ones((2, n, m))
        traffic = np.zeros((2, m))
        if field is not None:
            {"weights": weights, "capacities": capacities,
             "traffic": traffic}[field].flat[-1] = value
        with pytest.raises(error):
            batch_fixpoint_mixed_nash(weights, capacities, traffic)
        if n > 1 and m > 1:
            # The container applies the same checks.
            with pytest.raises(error):
                GameBatch(weights, capacities, initial_traffic=traffic)

    def test_empty_stack_is_a_no_op(self):
        result = batch_fixpoint_mixed_nash(np.ones((0, 3)), np.ones((0, 3, 2)))
        assert result.probabilities.shape == (0, 3, 2)
        assert result.rounds.shape == result.certified.shape == (0,)


class TestE13Chunking:
    """The campaign-runtime invariance contract for the new tier."""

    def test_jobs_and_batch_size_invariance(self):
        spec, uniform_spec = get_experiment_specs("E13", quick=True)
        baseline = run_sweep(spec, jobs=1, batch_size=None)
        for jobs, batch_size in [(1, 1), (2, 1), (2, 2)]:
            other = run_sweep(spec, jobs=jobs, batch_size=batch_size)
            # Payloads may be chunked differently; per-cell aggregation
            # must agree exactly.
            def totals(sweep, cells):
                acc = [[0, 0, 0, 0, 0, 0.0, 0, 0] for _ in cells]
                for index, payload in zip(
                    sweep.cell_of_chunk, sweep.chunk_payloads
                ):
                    assert len(payload) == 8
                    for j in range(5):
                        acc[index][j] += payload[j]
                    acc[index][5] = max(acc[index][5], payload[5])
                    acc[index][6] += payload[6]
                    acc[index][7] += payload[7]
                return acc

            assert totals(other, spec.cells) == totals(baseline, spec.cells)

    def test_fresh_and_resumed_stores_are_byte_identical(self, tmp_path):
        spec, _ = get_experiment_specs("E13", quick=True)
        fresh_path = tmp_path / "fresh.jsonl"
        fresh = run_sweep(spec, batch_size=1, store=fresh_path)
        assert fresh.resumed_chunks == 0
        resumed_path = tmp_path / "resumed.jsonl"
        # Seed the resume store with a prefix of the fresh run, then
        # resume: the final file must be byte-identical to the fresh one.
        lines = fresh_path.read_bytes().splitlines(keepends=True)
        resumed_path.write_bytes(b"".join(lines[: len(lines) // 2]))
        resumed = run_sweep(
            spec, batch_size=1, store=resumed_path, resume=True
        )
        assert resumed.resumed_chunks == len(lines) // 2
        assert resumed.chunk_payloads == fresh.chunk_payloads
        assert resumed_path.read_bytes() == fresh_path.read_bytes()

    def test_quick_tier_passes_end_to_end(self):
        result = run_experiment("E13", quick=True)
        assert result.passed, result.render()
        assert any(
            cell["dominance_checked"] > 0
            for cell in result.details["cells"]
        )

    @pytest.mark.slow
    def test_full_tier_beyond_enumeration_widths(self):
        result = run_experiment("E13", quick=False)
        assert result.passed, result.render()
        widths = {(cell["n"], cell["m"]) for cell in result.details["cells"]}
        assert (100, 10) in widths


class TestServerFixpointOp:
    """The ``fixpoint`` wire op: width relaxation, separate cache."""

    def test_fixpoint_op_over_tcp(self):
        wide = _seeded_batch("tcp", 20, 5, 1)  # past MAX_SERVICE_PROFILES
        payload = {
            "weights": wide.weights[0].tolist(),
            "capacities": wide.capacities[0].tolist(),
            "initial_traffic": wide.initial_traffic[0].tolist(),
        }

        async def scenario():
            server = EquilibriumServer(port=0)
            await server.start()
            try:
                client = await ServiceClient.connect(
                    server.host, server.port
                )
                try:
                    first = await client.request(
                        {"op": "fixpoint", **payload}
                    )
                    again = await client.request(
                        {"op": "fixpoint", **payload}
                    )
                    census = await client.request(
                        {"op": "solve", **payload}
                    )
                    stats = await client.request({"op": "stats"})
                finally:
                    await client.close()
            finally:
                await server.close()
            return first, again, census, stats

        first, again, census, stats = asyncio.run(scenario())
        assert first["ok"], first
        result = first["result"]
        assert result["converged"] and result["certified"]
        assert len(result["probabilities"]) == 20
        # Same game, same digest — but the census op must still refuse
        # it (its own guard, its own cache), while the fixpoint cache
        # serves the replay.
        assert again == first
        assert not census["ok"] and "pure profiles" in census["error"]
        assert stats["stats"]["fixpoint"]["cache"]["hits"] == 1
