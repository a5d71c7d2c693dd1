"""Experiment runners E1-E13: each regenerates one paper artefact
(figure/algorithm or theorem claim) and reports a pass/fail verdict."""

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = ["ExperimentResult", "EXPERIMENTS", "get_experiment", "run_experiment"]
