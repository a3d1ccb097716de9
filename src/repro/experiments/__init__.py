"""Experiment harness: one module per paper figure/table, plus the runner."""

from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.registry import all_experiments, get_experiment
from repro.experiments.runner import run_points

__all__ = [
    "Experiment",
    "ExperimentResult",
    "all_experiments",
    "get_experiment",
    "run_points",
]
