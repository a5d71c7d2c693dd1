"""Shared utilities: RNG handling, validation, table rendering, power-law
fits, chunked process-pool execution."""

from repro.util.parallel import chunk_ranges, resolve_jobs, run_tasks
from repro.util.rng import as_generator, spawn_generators, stable_seed
from repro.util.tables import Table, format_float
from repro.util.timing import ScalingFit, fit_power_law
from repro.util.validation import (
    check_positive_array,
    check_probability_matrix,
    check_probability_vector,
)

__all__ = [
    "chunk_ranges",
    "resolve_jobs",
    "run_tasks",
    "as_generator",
    "spawn_generators",
    "stable_seed",
    "Table",
    "format_float",
    "ScalingFit",
    "fit_power_law",
    "check_positive_array",
    "check_probability_matrix",
    "check_probability_vector",
]
