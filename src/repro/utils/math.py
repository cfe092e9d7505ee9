"""Small numeric helpers used across the clustering algorithms."""

from __future__ import annotations

import math

import numpy as np


def harmonic_number(n: int) -> float:
    """Return the n-th harmonic number ``H(n) = sum_{i=1..n} 1/i``.

    The ACP approximation bound (Theorem 4) is stated in terms of
    ``H(n)``.  For large ``n`` the asymptotic expansion is used, which is
    exact to double precision well before the crossover point.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        return 0.0
    if n < 256:
        return float(np.sum(1.0 / np.arange(1, n + 1)))
    # Euler-Maclaurin expansion; error is O(n^-6), far below double ulp here.
    euler_gamma = 0.5772156649015328606
    inv = 1.0 / n
    return (
        math.log(n)
        + euler_gamma
        + 0.5 * inv
        - inv**2 / 12.0
        + inv**4 / 120.0
    )


def log_ratio(a: float, b: float) -> float:
    """Return ``log(a / b)`` guarding against zero denominators.

    Used by guessing schedules to bound iteration counts such as
    ``log_{1+gamma}(1 / p_opt)``.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"log_ratio requires positive arguments, got a={a}, b={b}")
    return math.log(a) - math.log(b)
