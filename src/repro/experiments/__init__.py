"""Experiment harness regenerating every table and figure of the paper.

Each exhibit module exposes ``run(scale=..., seed=...) -> TextTable``;
:mod:`repro.experiments.run_all` drives the full evaluation and shares
the expensive quality-suite runs between Figures 1, 2 and 3.
"""

from repro.experiments.config import SCALES, ExperimentScale, get_scale
from repro.experiments.suite import QualityRecord, QualitySuiteResult, run_quality_suite
from repro.experiments.reference import PAPER_KS, shape_claims

__all__ = [
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "QualityRecord",
    "QualitySuiteResult",
    "run_quality_suite",
    "PAPER_KS",
    "shape_claims",
]
