"""Tests for the conjecture campaign and the scaling fits."""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest

from repro.analysis.conjecture import (
    BRD_MAX_STEPS,
    CampaignResult,
    run_conjecture_campaign,
)
from repro.analysis.scaling import measure_scaling
from repro.analysis.cycles import (
    _user_loops_negative,
    abstract_move_graph,
    realize_cycle,
    search_improvement_cycle_instance,
)
from repro.equilibria.symmetric import asymmetric_counted
from repro.equilibria.two_links import atwolinks_counted
from repro.equilibria.uniform import auniform_counted
from repro.generators.games import (
    random_symmetric_game,
    random_two_link_game,
    random_uniform_beliefs_game,
)
from repro.generators.suites import GridCell


class TestConjectureCampaign:
    def test_small_campaign_supports_conjecture(self):
        grid = [GridCell(2, 2, 5), GridCell(3, 3, 5)]
        result = run_conjecture_campaign(grid, label="test-camp")
        assert result.conjecture_supported
        assert result.total_instances == 10
        assert result.counterexamples == 0

    def test_cells_carry_statistics(self):
        grid = [GridCell(3, 2, 4)]
        result = run_conjecture_campaign(grid, label="test-camp2")
        cell = result.cells[0]
        assert cell.instances == 4
        assert cell.with_pure_nash == 4
        assert cell.min_equilibria >= 1
        assert cell.max_equilibria >= cell.min_equilibria
        assert cell.brd_always_converged

    def test_table_renders(self):
        grid = [GridCell(2, 2, 2)]
        result = run_conjecture_campaign(grid, label="test-camp3")
        text = result.to_table().render()
        assert "Conjecture" in text
        assert "PNE" in text

    def test_deterministic(self):
        grid = [GridCell(3, 2, 3)]
        a = run_conjecture_campaign(grid, label="same-label")
        b = run_conjecture_campaign(grid, label="same-label")
        assert a.cells[0].mean_equilibria == b.cells[0].mean_equilibria


def _reference_campaign_cells(grid, label):
    """The pre-batch per-instance loop, inlined as the parity oracle: one
    game at a time through the single-game public APIs, exactly as the
    campaign ran before the batched engine existed."""
    from repro.equilibria.best_response import best_response_dynamics
    from repro.equilibria.enumeration import count_pure_nash
    from repro.generators.games import random_game
    from repro.util.rng import stable_seed

    cells = []
    for cell in grid:
        counts, steps, converged_all = [], [], True
        for rep in range(cell.replications):
            seed = stable_seed(label, cell.num_users, cell.num_links, rep)
            game = random_game(
                cell.num_users, cell.num_links, num_states=4,
                concentration=1.0, seed=seed,
            )
            counts.append(count_pure_nash(game))
            result = best_response_dynamics(
                game, schedule="round_robin", max_steps=BRD_MAX_STEPS, seed=seed
            )
            steps.append(result.steps)
            converged_all = converged_all and result.converged
        cells.append(
            (
                sum(1 for c in counts if c > 0),
                min(counts), max(counts), sum(counts) / len(counts),
                sum(steps) / len(steps), converged_all,
            )
        )
    return cells


def _cells_tuple(result):
    return [
        (
            c.with_pure_nash, c.min_equilibria, c.max_equilibria,
            c.mean_equilibria, c.mean_brd_steps, c.brd_always_converged,
        )
        for c in result.cells
    ]


class TestCampaignBatchedParity:
    GRID = [GridCell(2, 2, 6), GridCell(3, 3, 6), GridCell(5, 2, 6)]

    def test_bit_identical_to_per_instance_loop(self):
        """The batched campaign must reproduce the sequential per-instance
        implementation bit for bit (same seeds, same statistics)."""
        got = _cells_tuple(run_conjecture_campaign(self.GRID, label="parity"))
        assert got == _reference_campaign_cells(self.GRID, "parity")

    @pytest.mark.parametrize("grid_name", ["quick", "full"])
    def test_bit_identical_to_frozen_seed_baseline(self, grid_name):
        """Pin the campaign against outputs recorded from the *original*
        pre-batch implementation (tests/data/e5_seed_baseline.json was
        generated by the seed code before the batched engine existed).

        Unlike the loop oracle above — which now shares the refactored
        kernels with the campaign — this fixture cannot drift with the
        code, so it enforces the determinism contract against the true
        historical implementation, including the n=8 and n=10 cells
        whose load arithmetic is most sensitive to summation order.
        """
        import json
        from pathlib import Path

        baseline = json.loads(
            (Path(__file__).parent / "data" / "e5_seed_baseline.json").read_text()
        )[grid_name]
        from repro.generators.suites import conjecture_grid, quick_conjecture_grid

        if grid_name == "quick":
            grid = list(quick_conjecture_grid())
        else:
            grid = list(conjecture_grid())
        result = run_conjecture_campaign(grid)  # label="E5" default
        got = [
            {
                "n": c.num_users, "m": c.num_links, "instances": c.instances,
                "with_pure_nash": c.with_pure_nash, "min": c.min_equilibria,
                "max": c.max_equilibria, "mean": c.mean_equilibria,
                "mean_steps": c.mean_brd_steps, "conv": c.brd_always_converged,
            }
            for c in result.cells
        ]
        assert got == baseline

    def test_results_independent_of_batch_size(self):
        ref = _cells_tuple(run_conjecture_campaign(self.GRID, label="chunk"))
        for batch_size in (1, 2, 5):
            got = _cells_tuple(
                run_conjecture_campaign(self.GRID, label="chunk", batch_size=batch_size)
            )
            assert got == ref

    def test_results_independent_of_jobs(self):
        ref = _cells_tuple(run_conjecture_campaign(self.GRID, label="jobs"))
        got = _cells_tuple(
            run_conjecture_campaign(self.GRID, label="jobs", jobs=2, batch_size=3)
        )
        assert got == ref


def _lemma_3_4_bound(n: int, m: int) -> int:
    """Asymmetric's most operations on n users and m links: insertion k
    (k users placed) makes at most k moves (Lemma 3.4), hence at most
    k + 1 defector scans of at most k members over m links, plus the
    placement itself."""
    return sum((k + 1) * k * m + k + 1 for k in range(1, n + 1))


class TestOperationCounts:
    """The E1-E3 fits count operations; the counts are exact."""

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_atwolinks_counts_tolerances_and_moves(self, n):
        game = random_two_link_game(n, with_initial_traffic=True, seed=n)
        _, operations = atwolinks_counted(game)
        assert operations == n * (n + 1) + n

    @pytest.mark.parametrize("n, m", [(2, 3), (5, 2), (33, 4), (64, 7)])
    def test_auniform_counts_link_scans_and_the_sort(self, n, m):
        game = random_uniform_beliefs_game(n, m, seed=n)
        _, operations = auniform_counted(game)
        assert operations == n * m + math.ceil(n * math.log2(n))

    @pytest.mark.parametrize("n, m", [(2, 2), (6, 3), (30, 4), (80, 5)])
    def test_asymmetric_count_between_nm_and_lemma_bound(self, n, m):
        game = random_symmetric_game(n, m, seed=n)
        _, operations = asymmetric_counted(game)
        assert n * m <= operations <= _lemma_3_4_bound(n, m)

    def test_measure_scaling_counts_and_fits(self):
        obs = measure_scaling("atwolinks", sizes=[16, 32, 64, 128])
        assert obs.operations == tuple(n * (n + 2) for n in obs.sizes)
        assert obs.exponent == pytest.approx(2.0, abs=0.1)
        assert obs.within_theory()
        assert measure_scaling("atwolinks", sizes=[16, 32, 64, 128]) == obs

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            measure_scaling("quantum")

    def test_generates_each_size_once(self, monkeypatch):
        """Each size's game is generated once and solved once."""
        from repro.analysis import scaling

        generate, solve = scaling._INSTANCES["auniform"]
        generated, solved = [], []

        def counting_generate(n, m, *, seed):
            generated.append(n)
            return generate(n, m, seed=seed)

        def counting_solve(game):
            solved.append(game)
            return solve(game)

        monkeypatch.setitem(
            scaling._INSTANCES, "auniform", (counting_generate, counting_solve)
        )
        measure_scaling("auniform", sizes=[8, 16, 32])
        assert generated == [8, 16, 32]
        assert [game.num_users for game in solved] == [8, 16, 32]


class TestCycleMachinery:
    def test_abstract_move_graph_shape(self):
        g = abstract_move_graph(2, 2)
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 8  # each state: 2 users x 1 alt link

    def test_two_user_two_link_cycles_unrealisable(self):
        """The library-level proof sketch: the canonical 4-cycle cannot be
        realised by any capacities (the move inequalities multiply to a
        contradiction)."""
        states = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
        for w in ([1.0, 1.0], [1.0, 3.0], [2.5, 0.4]):
            assert realize_cycle(states, w, 2) is None

    def test_open_walks_rejected(self):
        assert realize_cycle([(0, 0), (1, 0)], [1.0, 1.0], 2) is None

    def test_non_unilateral_steps_rejected(self):
        states = [(0, 0), (1, 1), (0, 0)]
        assert realize_cycle(states, [1.0, 1.0], 2) is None

    def test_search_small_budget_runs(self):
        result = search_improvement_cycle_instance(
            max_cycle_length=4, weight_draws=3, max_cycles=200, seed=0
        )
        assert result.cycles_tested == 200
        # Length-4 cycles are provably unrealisable.
        assert not result.found

    def test_full_e6_configuration(self):
        result = search_improvement_cycle_instance(
            max_cycle_length=6, weight_draws=12
        )
        assert not result.found
        assert result.cycles_tested == 2889


def _per_user_loops_negative(states, w, num_links):
    """Oracle: :func:`realize_cycle`'s loop criterion, one user at a time."""
    n = len(w)
    verdicts = np.ones(n, dtype=bool)
    for i in range(n):
        weight = np.full((num_links, num_links), -np.inf)
        for s, t in zip(states, states[1:]):
            if s[i] == t[i]:
                continue
            loads = np.bincount(s, weights=w, minlength=num_links)
            a, b = s[i], t[i]
            gap = float(np.log((loads[b] + w[i]) / loads[a]))
            weight[a, b] = max(weight[a, b], gap)
        for k in range(num_links):
            weight = np.maximum(weight, weight[:, k : k + 1] + weight[k : k + 1, :])
        verdicts[i] = not np.any(np.diag(weight) >= -1e-12)
    return verdicts


class TestBatchedCycleCheck:
    """The search's batched feasibility block against per-pair loops."""

    # Length-8 walks repeat a user's move, so the scatter-max matters.
    @pytest.mark.parametrize(
        "num_users,num_links,length,draws,seeds",
        [
            (3, 3, 6, 2, (0,)),
            (2, 3, 8, 3, (0, 1, 2)),
            (3, 2, 8, 4, (0, 1, 2)),
            (4, 2, 6, 3, (0, 1)),
        ],
    )
    def test_matches_realize_cycle(self, num_users, num_links, length, draws, seeds):
        cycles = [
            cyc + [cyc[0]]
            for cyc in nx.simple_cycles(
                abstract_move_graph(num_users, num_links), length_bound=length
            )
        ]
        per_user_seen = []
        for seed in seeds:
            weights = np.random.default_rng(seed).uniform(
                0.2, 5.0, size=(draws, num_users)
            )
            batched = _user_loops_negative(cycles, weights, num_links)
            assert batched.shape == (len(cycles), draws, num_users)
            for c, states in enumerate(cycles):
                for d, w in enumerate(weights):
                    per_user = _per_user_loops_negative(states, w, num_links)
                    np.testing.assert_array_equal(batched[c, d], per_user)
                    realised = realize_cycle(states, w, num_links) is not None
                    assert batched[c, d].all() == realised == per_user.all()
            per_user_seen.append(batched.mean())
        # Both per-user outcomes occur, so the comparison is not vacuous.
        assert 0.0 < min(per_user_seen) and max(per_user_seen) < 1.0
