"""Kernel benchmarks for the model layer (the hot paths of everything).

These quantify the vectorisation choices of DESIGN.md section 5:
effective-capacity reduction (one matmul), reduced-form game
construction, deviation-latency tensors, and the all-profiles latency
sweep behind exhaustive optimum/enumeration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.beliefs import BeliefProfile
from repro.model.game import UncertainRoutingGame
from repro.model.latency import deviation_latencies, mixed_latency_matrix, pure_latencies
from repro.model.social import all_pure_costs
from repro.model.state import StateSpace
from repro.generators.games import random_game
from repro.util.rng import stable_seed


@pytest.mark.parametrize("n,states", [(100, 16), (1000, 64)])
def test_effective_capacity_reduction(benchmark, n, states):
    space = StateSpace.random(states, 8, seed=stable_seed("bench-m", n))
    profile = BeliefProfile.random(space, n, seed=stable_seed("bench-m2", n))
    caps = benchmark(lambda: profile.effective_capacities())
    assert caps.shape == (n, 8)


def test_from_capacities_reduced_form(benchmark):
    """A reduced-form game at n = 8192: O(n m), no n x n belief matrix."""
    n, m = 8192, 4
    rng = np.random.default_rng(stable_seed("bench-m7", n))
    caps = rng.uniform(0.5, 4.0, size=(n, m))
    weights = rng.uniform(0.5, 2.0, size=n)
    game = benchmark(lambda: UncertainRoutingGame.from_capacities(weights, caps))
    assert game.capacities.shape == (n, m)


@pytest.mark.parametrize("n", [100, 2000])
def test_pure_latency_kernel(benchmark, n):
    game = random_game(n, 8, seed=stable_seed("bench-m3", n))
    sigma = np.arange(n) % 8
    lat = benchmark(lambda: pure_latencies(game, sigma))
    assert lat.shape == (n,)


@pytest.mark.parametrize("n", [100, 2000])
def test_deviation_latency_kernel(benchmark, n):
    game = random_game(n, 8, seed=stable_seed("bench-m4", n))
    sigma = np.arange(n) % 8
    dev = benchmark(lambda: deviation_latencies(game, sigma))
    assert dev.shape == (n, 8)


def test_mixed_latency_kernel(benchmark):
    game = random_game(1000, 16, seed=stable_seed("bench-m5", 0))
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(16), size=1000)
    lat = benchmark(lambda: mixed_latency_matrix(game, p))
    assert lat.shape == (1000, 16)


def test_all_profiles_sweep(benchmark):
    """The (m^n, n) latency sweep: 6561 profiles x 8 users."""
    game = random_game(8, 3, seed=stable_seed("bench-m6", 0))
    assignments, lat = benchmark(lambda: all_pure_costs(game))
    assert lat.shape == (6561, 8)
