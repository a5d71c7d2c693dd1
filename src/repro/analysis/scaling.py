"""Empirical complexity fits for the paper's algorithms (E1-E3).

The paper states O(n^2) for ``Atwolinks``, O(n^2 m) for ``Asymmetric``
and O(n(log n + m)) for ``Auniform``. This module times the
implementations over geometric size grids and fits growth exponents by
log-log least squares. Exponents are *upper-bounded* by the theory —
vectorisation can make measured exponents lower (e.g. ``Atwolinks``'s
inner tolerance pass is a NumPy kernel, so the measured curve sits
between O(n) and O(n^2) until n is large) — so the acceptance criterion
is "measured exponent <= stated exponent + tolerance".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.equilibria.symmetric import asymmetric
from repro.equilibria.two_links import atwolinks
from repro.equilibria.uniform import auniform
from repro.generators.games import (
    random_symmetric_game,
    random_two_link_game,
    random_uniform_beliefs_game,
)
from repro.generators.suites import scaling_sizes
from repro.util.rng import stable_seed
from repro.util.timing import ScalingFit, fit_power_law, time_callable

__all__ = ["ScalingObservation", "measure_scaling", "THEORETICAL_EXPONENTS"]

#: The paper's stated complexity exponents in n (m fixed).
THEORETICAL_EXPONENTS = {
    "atwolinks": 2.0,  # O(n^2)
    "asymmetric": 2.0,  # O(n^2 m), m held constant
    "auniform": 1.2,  # O(n log n) ~ slightly superlinear, m held constant
}


@dataclass(frozen=True)
class ScalingObservation:
    """Measured (size, seconds) pairs plus the fitted exponent."""

    algorithm: str
    sizes: tuple[int, ...]
    seconds: tuple[float, ...]
    fit: ScalingFit

    @property
    def exponent(self) -> float:
        return self.fit.exponent

    def within_theory(self, *, slack: float = 0.35) -> bool:
        """Measured growth must not exceed the stated complexity class."""
        return self.exponent <= THEORETICAL_EXPONENTS[self.algorithm] + slack


#: Per algorithm: (generator of an ``n``-user game on ``m`` links, solver).
_INSTANCES = {
    "atwolinks": (
        lambda n, m, seed: random_two_link_game(
            n, with_initial_traffic=True, seed=seed
        ),
        atwolinks,
    ),
    "asymmetric": (random_symmetric_game, asymmetric),
    "auniform": (random_uniform_beliefs_game, auniform),
}


def measure_scaling(
    algorithm: str,
    *,
    sizes: Sequence[int] | None = None,
    num_links: int = 4,
    repeats: int = 3,
) -> ScalingObservation:
    """Time *algorithm* across *sizes* users and fit a power law.

    Each size's game is generated once, outside the timed calls, so the
    fit measures the solver alone; only one game is alive at a time.
    """
    sizes = list(sizes) if sizes is not None else scaling_sizes(algorithm)
    generate, solver = _INSTANCES[algorithm]
    seconds = []
    for n in sizes:
        game = generate(n, num_links, seed=stable_seed("scal", algorithm, n, 0))
        seconds.append(time_callable(partial(solver, game), repeats=repeats))
        del game
    fit = fit_power_law(sizes, seconds)
    return ScalingObservation(
        algorithm=algorithm,
        sizes=tuple(sizes),
        seconds=tuple(seconds),
        fit=fit,
    )
