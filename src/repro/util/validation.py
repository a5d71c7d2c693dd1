"""Array-validation helpers shared by the model layer.

These functions normalise user input to contiguous ``float64`` arrays and
raise :class:`repro.errors.ModelError` subclasses with actionable messages.
They are deliberately strict: a routing game with a zero-capacity link or a
belief that does not sum to one is a modelling bug, not a numerical detail.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import BeliefError, DimensionError, ModelError

__all__ = [
    "ATOL",
    "check_game_stack",
    "check_positive_array",
    "check_probability_vector",
    "check_probability_matrix",
    "check_shape",
]

#: Absolute tolerance used for probability-sum and equilibrium checks.
ATOL = 1e-9


def check_positive_array(
    values: Sequence[float] | np.ndarray,
    *,
    name: str,
    ndim: int | None = None,
) -> np.ndarray:
    """Return *values* as a contiguous float64 array of strictly positive entries.

    Always copies: callers freeze the result, which must not alias input.
    """
    arr = np.array(values, dtype=np.float64, copy=True, order="C")
    if ndim is not None and arr.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ModelError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{name} contains non-finite entries")
    if np.any(arr <= 0.0):
        bad = float(arr.min())
        raise ModelError(f"{name} must be strictly positive everywhere (min={bad!r})")
    return arr


def check_game_stack(
    weights: np.ndarray, capacities: np.ndarray, initial_traffic: np.ndarray
) -> None:
    """Value checks for a shape-checked ``(B, n)`` / ``(B, n, m)`` /
    ``(B, m)`` game stack: ``n, m >= 1``; finite, strictly positive
    weights and capacities; finite, non-negative initial traffic.

    An empty stack (``B = 0``) passes — there are no values to reject.
    """
    _, n, m = capacities.shape
    if n < 1 or m < 1:
        raise DimensionError(f"a game needs n, m >= 1, got ({n}, {m})")
    for name, arr in (("weights", weights), ("capacities", capacities)):
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ModelError(f"{name} must be finite and strictly positive")
    if not np.all(np.isfinite(initial_traffic)) or np.any(initial_traffic < 0.0):
        raise ModelError("initial_traffic must be finite and non-negative")


def check_probability_vector(
    values: Sequence[float] | np.ndarray,
    *,
    name: str,
    atol: float = ATOL,
) -> np.ndarray:
    """Return *values* as a float64 probability vector (non-negative, sums to 1)."""
    arr = np.array(values, dtype=np.float64, copy=True, order="C")
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be a vector, got shape {arr.shape}")
    if arr.size == 0:
        raise BeliefError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise BeliefError(f"{name} contains non-finite entries")
    if np.any(arr < -atol):
        raise BeliefError(f"{name} has negative probabilities (min={float(arr.min())!r})")
    total = float(arr.sum())
    if abs(total - 1.0) > max(atol, atol * arr.size):
        raise BeliefError(f"{name} must sum to 1, sums to {total!r}")
    arr = np.clip(arr, 0.0, None)
    return arr / arr.sum()


def check_probability_matrix(
    values: Sequence[Sequence[float]] | np.ndarray,
    *,
    name: str,
    atol: float = ATOL,
) -> np.ndarray:
    """Return *values* as a row-stochastic float64 matrix."""
    arr = np.array(values, dtype=np.float64, copy=True, order="C")
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be a matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise BeliefError(f"{name} contains non-finite entries")
    if np.any(arr < -atol):
        raise BeliefError(f"{name} has negative probabilities (min={float(arr.min())!r})")
    sums = arr.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > max(atol, atol * arr.shape[1])):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise BeliefError(
            f"rows of {name} must sum to 1; row {worst} sums to {float(sums[worst])!r}"
        )
    arr = np.clip(arr, 0.0, None)
    return arr / arr.sum(axis=1, keepdims=True)


def check_shape(arr: np.ndarray, shape: tuple[int, ...], *, name: str) -> np.ndarray:
    """Assert that *arr* has exactly the given *shape*."""
    if arr.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr
