"""Empirical complexity fits.

The paper states asymptotic complexities for its three algorithms
(O(n^2), O(n^2 m), O(n(log n + m))). The scaling experiments count each
implementation's abstract operations over a geometric grid of sizes and
estimate the growth exponent by least squares on log-log data;
:class:`ScalingFit` carries the exponent, its standard error and an R^2
so tables can report the fit's quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["ScalingFit", "fit_power_law"]


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power-law fit ``t ~ coeff * x**exponent``.

    ``stderr`` is the exponent's standard error: the square root of the
    slope's variance in the least-squares covariance, which scales the
    residual sum of squares by ``len(x) - 2`` degrees of freedom.
    """

    exponent: float
    coeff: float
    r_squared: float
    stderr: float

    def predict(self, x: float) -> float:
        return self.coeff * float(x) ** self.exponent


def fit_power_law(xs: Sequence[float], ts: Sequence[float]) -> ScalingFit:
    """Fit ``t = c * x**a`` by linear regression on (log x, log t).

    Raises ``ValueError`` for fewer than two points or non-positive data,
    which would make the log transform meaningless. Two points leave no
    degree of freedom for the residuals, so their ``stderr`` is ``inf``.
    """
    x = np.asarray(xs, dtype=np.float64)
    t = np.asarray(ts, dtype=np.float64)
    if x.shape != t.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two 1-D arrays of equal length >= 2")
    if np.any(x <= 0) or np.any(t <= 0):
        raise ValueError("power-law fit requires positive sizes and times")
    lx, lt = np.log(x), np.log(t)
    if x.size > 2:
        (a, b), cov = np.polyfit(lx, lt, 1, cov=True)
        stderr = math.sqrt(cov[0, 0])
    else:
        a, b = np.polyfit(lx, lt, 1)
        stderr = math.inf
    pred = a * lx + b
    ss_res = float(np.sum((lt - pred) ** 2))
    ss_tot = float(np.sum((lt - lt.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        exponent=float(a), coeff=float(np.exp(b)), r_squared=r2, stderr=stderr
    )
