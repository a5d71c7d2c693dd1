"""Empirical complexity fits for the paper's algorithms (E1-E3).

The paper states O(n^2) for ``Atwolinks``, O(n^2 m) for ``Asymmetric``
and O(n(log n + m)) for ``Auniform``. This module counts the abstract
operations each reference implementation tallies while it builds its
profile (see ``atwolinks_counted``, ``asymmetric_counted`` and
``auniform_counted``) over geometric size grids, and fits growth
exponents by log-log least squares. Counts are a pure function of the
game, so the fit — and the verdict "the upper end of the exponent's
two-standard-error interval is at most the stated exponent plus slack"
— is the same on every host.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.equilibria.symmetric import asymmetric_counted
from repro.equilibria.two_links import atwolinks_counted
from repro.equilibria.uniform import auniform_counted
from repro.generators.games import (
    random_symmetric_game,
    random_two_link_game,
    random_uniform_beliefs_game,
)
from repro.generators.suites import scaling_sizes
from repro.util.rng import stable_seed
from repro.util.timing import ScalingFit, fit_power_law

__all__ = ["ScalingObservation", "measure_scaling", "THEORETICAL_EXPONENTS"]

#: The paper's stated complexity exponents in n (m fixed).
THEORETICAL_EXPONENTS = {
    "atwolinks": 2.0,  # O(n^2)
    "asymmetric": 2.0,  # O(n^2 m), m held constant
    "auniform": 1.2,  # O(n log n) ~ slightly superlinear, m held constant
}


@dataclass(frozen=True)
class ScalingObservation:
    """Counted (size, operations) pairs; the fit needs two sizes or more."""

    algorithm: str
    sizes: tuple[int, ...]
    operations: tuple[int, ...]

    @cached_property
    def fit(self) -> ScalingFit:
        return fit_power_law(self.sizes, self.operations)

    @property
    def exponent(self) -> float:
        return self.fit.exponent

    @property
    def stderr(self) -> float:
        return self.fit.stderr

    def within_theory(self, *, slack: float = 0.35) -> bool:
        """The exponent plus two standard errors must not exceed the
        stated complexity class."""
        return (
            self.exponent + 2.0 * self.stderr
            <= THEORETICAL_EXPONENTS[self.algorithm] + slack
        )


#: Per algorithm: (generator of an ``n``-user game on ``m`` links,
#: solver returning ``(profile, operations)``).
_INSTANCES = {
    "atwolinks": (
        lambda n, m, seed: random_two_link_game(
            n, with_initial_traffic=True, seed=seed
        ),
        atwolinks_counted,
    ),
    "asymmetric": (random_symmetric_game, asymmetric_counted),
    "auniform": (random_uniform_beliefs_game, auniform_counted),
}


def measure_scaling(
    algorithm: str,
    *,
    sizes: Sequence[int] | None = None,
    num_links: int = 4,
) -> ScalingObservation:
    """Count *algorithm*'s operations on one game per size in *sizes*.

    Each size's game is generated once from ``stable_seed("scal",
    algorithm, n, 0)`` and solved once; only one game is alive at a time.
    """
    sizes = list(sizes) if sizes is not None else scaling_sizes(algorithm)
    generate, solver = _INSTANCES[algorithm]
    operations = []
    for n in sizes:
        game = generate(n, num_links, seed=stable_seed("scal", algorithm, n, 0))
        operations.append(solver(game)[1])
        del game
    return ScalingObservation(
        algorithm=algorithm, sizes=tuple(sizes), operations=tuple(operations)
    )
