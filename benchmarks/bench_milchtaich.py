"""E12 — the Milchtaich separation benchmarks."""

from __future__ import annotations

import pytest

from repro.substrates.milchtaich import (
    canonical_counterexample,
    multiplicative_pne_sweep,
    search_no_pne_instance,
)


def test_witness_verification(benchmark):
    """Exhaustive 27-profile verification of the stored no-PNE witness."""
    game = canonical_counterexample().game
    exists = benchmark(lambda: game.exists_pure_nash())
    assert not exists


def test_constraint_search(benchmark):
    """Re-deriving a no-PNE witness: five restarts cut by their node
    budget, then a 28-node success on the sixth."""
    report = benchmark.pedantic(
        lambda: search_no_pne_instance(seed=2), rounds=3, iterations=1
    )
    assert report.tries == 6
    assert report.verify()


def test_multiplicative_sweep(benchmark, report):
    hits = benchmark.pedantic(
        lambda: multiplicative_pne_sweep(num_instances=100, seed=7),
        rounds=1,
        iterations=1,
    )
    assert hits == 100
    report.append(
        "[E12] separation: stored player-specific witness has no pure NE; "
        "100/100 multiplicative (our-model) instances have one"
    )
