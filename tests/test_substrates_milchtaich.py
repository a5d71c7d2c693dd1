"""Tests for the Milchtaich counterexample machinery (E12 core)."""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError, SolverError
from repro.experiments import anarchy
from repro.substrates.milchtaich import (
    WITNESS_TABLES,
    WITNESS_WEIGHTS,
    _profile_options,
    _search_selection,
    canonical_counterexample,
    multiplicative_pne_sweep,
    search_no_pne_instance,
)
from repro.substrates.player_specific import PlayerSpecificGame


class TestStoredWitness:
    def test_witness_verifies(self):
        report = canonical_counterexample()
        assert report.verify()

    def test_witness_has_no_pure_nash_exhaustively(self):
        game = canonical_counterexample().game
        assert game.pure_nash_profiles() == []

    def test_every_profile_has_a_strict_defector(self):
        game = canonical_counterexample().game
        from repro.model.social import enumerate_assignments

        for row in enumerate_assignments(3, 3):
            dev = game.deviation_costs(row)
            current = dev[np.arange(3), row]
            assert (dev.min(axis=1) < current - 1e-12).any()

    def test_witness_tables_monotone(self):
        for player_tables in WITNESS_TABLES:
            for link_costs in player_tables:
                assert list(link_costs) == sorted(link_costs)

    def test_witness_weights(self):
        assert WITNESS_WEIGHTS == (1, 2, 3)

    def test_best_response_dynamics_never_converges(self):
        """No PNE means dynamics must run out of budget from any start."""
        game = canonical_counterexample().game
        for start in ([0, 0, 0], [1, 2, 0], [2, 2, 2]):
            _, converged, _ = game.best_response_dynamics(start, max_steps=500)
            assert not converged

    def test_cached(self):
        assert canonical_counterexample() is canonical_counterexample()


def _dfs_search_selection(w, m, seed, max_nodes):
    """Oracle: the constraint search with a per-query DFS ``reachable``.

    Reachability is searched afresh over explicit successor sets on
    every query, under the same node budget; the incremental closure in
    ``_search_selection`` must explore exactly the same tree.
    """
    total = int(w.sum())
    rng = np.random.default_rng(seed)
    profiles = _profile_options(w, m)
    order = rng.permutation(len(profiles))
    profiles = [profiles[k] for k in order]
    for opts in profiles:
        rng.shuffle(opts)

    succ = defaultdict(set)
    refcount = defaultdict(int)
    for i in range(w.size):
        for link in range(m):
            for load in range(1, total):
                succ[(i, link, load)].add((i, link, load + 1))
                refcount[((i, link, load), (i, link, load + 1))] += 1

    def reachable(src, dst):
        if src == dst:
            return True
        stack, seen = [src], {src}
        while stack:
            node = stack.pop()
            for nxt in succ[node]:
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    chosen = [None] * len(profiles)
    nodes = 0

    def forward_ok(k):
        return all(
            any(not reachable(b, a) for a, b in profiles[j])
            for j in range(k, len(profiles))
        )

    def backtrack(k):
        nonlocal nodes
        if nodes == max_nodes:
            raise TimeoutError
        nodes += 1
        if k == len(profiles):
            return True
        for a, b in profiles[k]:
            if reachable(b, a):
                continue
            refcount[(a, b)] += 1
            succ[a].add(b)
            chosen[k] = (a, b)
            if forward_ok(k + 1) and backtrack(k + 1):
                return True
            refcount[(a, b)] -= 1
            if refcount[(a, b)] == 0:
                succ[a].discard(b)
            chosen[k] = None
        return False

    try:
        return (list(chosen) if backtrack(0) else None), nodes
    except TimeoutError:
        return None, nodes


class TestConstraintSearch:
    def test_rederives_a_witness(self):
        """The exact search reproduces a no-PNE instance from scratch.

        With seed=2 the first five restarts exhaust their node budget and
        the sixth finds a satisfying selection; node budgets make that
        count, and the witness, the same on every host.
        """
        report = search_no_pne_instance(seed=2)
        assert report.verify()
        assert report.tries == 6
        np.testing.assert_array_equal(
            report.game.weights, np.asarray(WITNESS_WEIGHTS)
        )
        again = search_no_pne_instance(seed=2)
        np.testing.assert_array_equal(
            again.game.cost_tables, report.game.cost_tables
        )

    def test_independent_of_host_speed(self, monkeypatch):
        """Clocks jumping hours per read change nothing: no clock is read."""
        import time

        for name in ("monotonic", "perf_counter"):
            ticks = iter(range(0, 10**9, 3600))
            monkeypatch.setattr(time, name, lambda ticks=ticks: float(next(ticks)))
        assert search_no_pne_instance(seed=2).tries == 6

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "weights, num_links",
        [((1, 1, 2), 2), ((1, 2), 3), ((1, 1, 1), 2), ((1, 2, 2), 2), ((1, 2), 2)],
    )
    def test_closure_explores_the_dfs_tree(self, weights, num_links, seed):
        """Same selection and node count as the per-query DFS search."""
        w = np.asarray(weights, dtype=np.int64)
        expected = _dfs_search_selection(w, num_links, seed, 10**6)
        assert _search_selection(w, num_links, seed, 10**6) == expected

    def test_closure_explores_the_dfs_tree_of_the_witness_restarts(self):
        """The seed-2 restarts: five cut by the budget, then a selection."""
        w = np.asarray(WITNESS_WEIGHTS, dtype=np.int64)
        rng = np.random.default_rng(2)
        outcomes = []
        for _ in range(6):
            restart_seed = int(rng.integers(2**62))
            expected = _dfs_search_selection(w, 3, restart_seed, 1000)
            assert _search_selection(w, 3, restart_seed, 1000) == expected
            outcomes.append(expected[1])
        assert outcomes == [1000] * 5 + [28]

    @settings(max_examples=15, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 3), min_size=2, max_size=3),
        num_links=st.integers(2, 3),
        seed=st.integers(0, 2**31),
        max_nodes=st.integers(1, 300),
    )
    def test_closure_matches_dfs_under_any_budget(
        self, weights, num_links, seed, max_nodes
    ):
        w = np.asarray(weights, dtype=np.int64)
        assert _search_selection(w, num_links, seed, max_nodes) == (
            _dfs_search_selection(w, num_links, seed, max_nodes)
        )

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SolverError, match="5 restarts of 27 nodes"):
            search_no_pne_instance(seed=2, max_restarts=5, restart_nodes=27)

    @pytest.mark.parametrize(
        "budget", [{"max_restarts": 0}, {"restart_nodes": 0}]
    )
    def test_rejects_empty_budget(self, budget):
        with pytest.raises(ModelError):
            search_no_pne_instance(seed=2, **budget)

    def test_e12_row_reads_budget_exhausted(self, monkeypatch):
        def starved(**kwargs):
            return search_no_pne_instance(
                **{**kwargs, "max_restarts": 2, "restart_nodes": 5}
            )

        monkeypatch.setattr(anarchy, "search_no_pne_instance", starved)
        result = anarchy.run_e12()
        rows = {row[0]: row[1] for row in result.tables[0].rows}
        assert rows[
            "fresh witness re-derived by constraint search (restarts)"
        ] == "budget exhausted"
        assert result.passed


class TestMultiplicativeSweep:
    def test_all_multiplicative_instances_have_pne(self):
        """The separation: the paper's cost family never loses pure NE."""
        assert multiplicative_pne_sweep(num_instances=120, seed=0) == 120

    def test_deterministic(self):
        a = multiplicative_pne_sweep(num_instances=30, seed=4)
        b = multiplicative_pne_sweep(num_instances=30, seed=4)
        assert a == b

    def test_matches_witness_shape(self):
        """Same weights/links as the witness — only the cost family differs."""
        hits = multiplicative_pne_sweep(
            num_instances=40, weights=WITNESS_WEIGHTS, num_links=3, seed=1
        )
        assert hits == 40
