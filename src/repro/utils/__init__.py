"""Shared utilities: RNG plumbing, math helpers and table rendering."""

from repro.utils.rng import ensure_rng
from repro.utils.math import harmonic_number, log_ratio
from repro.utils.tables import TextTable

__all__ = [
    "ensure_rng",
    "harmonic_number",
    "log_ratio",
    "TextTable",
]
