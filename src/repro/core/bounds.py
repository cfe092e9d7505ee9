"""Computable forms of the paper's approximation guarantees.

Each function turns one theorem's bound into a number for concrete
parameters, so users can ask "what does the theory promise me here?"
and tests can assert achieved ≥ promised.  The bounds are loose in
practice (the paper says so explicitly; Section 5 shows measured values
far above them) — these are floors, not predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ClusteringError
from repro.utils.math import harmonic_number


def _check(gamma: float, eps: float = 0.0) -> None:
    if gamma <= 0:
        raise ClusteringError(f"gamma must be positive, got {gamma}")
    if not 0 <= eps < 1:
        raise ClusteringError(f"eps must be in [0, 1), got {eps}")


def mcp_guarantee(p_opt_min: float, gamma: float, *, eps: float = 0.0) -> float:
    """Theorem 3 / 7 floor on ``min-prob`` of the returned clustering.

    ``(1 - eps) * p_opt_min^2 / (1 + gamma)`` — ``eps = 0`` gives the
    oracle version (Theorem 3), ``eps > 0`` the Monte Carlo one
    (Theorem 7, which holds with high probability).
    """
    _check(gamma, eps)
    if not 0 <= p_opt_min <= 1:
        raise ClusteringError(f"p_opt_min must be in [0, 1], got {p_opt_min}")
    return (1.0 - eps) * p_opt_min**2 / (1.0 + gamma)


def acp_guarantee(p_opt_avg: float, gamma: float, n: int, *, eps: float = 0.0) -> float:
    """Theorem 4 / 8 floor on ``avg-prob`` of the returned clustering.

    ``(1 - eps) * (p_opt_avg / ((1 + gamma) H(n)))^3``.
    """
    _check(gamma, eps)
    if not 0 <= p_opt_avg <= 1:
        raise ClusteringError(f"p_opt_avg must be in [0, 1], got {p_opt_avg}")
    if n < 1:
        raise ClusteringError(f"n must be positive, got {n}")
    return (1.0 - eps) * (p_opt_avg / ((1.0 + gamma) * harmonic_number(n))) ** 3


def mcp_iteration_bound(p_opt_min: float, gamma: float) -> int:
    """Theorem 3's cap on ``min-partial`` invocations.

    ``floor(2 log_{1+gamma}(1 / p_opt_min)) + 1``.
    """
    _check(gamma)
    if not 0 < p_opt_min <= 1:
        raise ClusteringError(f"p_opt_min must be in (0, 1], got {p_opt_min}")
    return int(math.floor(2.0 * math.log(1.0 / p_opt_min) / math.log1p(gamma))) + 1


def acp_iteration_bound(p_opt_avg: float, gamma: float, n: int) -> int:
    """Theorem 4's cap: ``floor(log_{1+gamma}(H(n) / p_opt_avg)) + 1``."""
    _check(gamma)
    if not 0 < p_opt_avg <= 1:
        raise ClusteringError(f"p_opt_avg must be in (0, 1], got {p_opt_avg}")
    if n < 1:
        raise ClusteringError(f"n must be positive, got {n}")
    return int(
        math.floor(math.log(harmonic_number(n) / p_opt_avg) / math.log1p(gamma))
    ) + 1


@dataclass(frozen=True)
class GuaranteeReport:
    """The theory's promises for one clustering run, side by side.

    Produced by :func:`guarantee_report`; all fields are floors/caps
    that the corresponding run must satisfy.
    """

    objective: str
    p_opt: float
    promised_value: float
    max_min_partial_calls: int
    gamma: float
    eps: float

    def render(self) -> str:
        return (
            f"{self.objective}: optimum {self.p_opt:.4f} -> promised "
            f">= {self.promised_value:.6f} within <= "
            f"{self.max_min_partial_calls} min-partial calls "
            f"(gamma={self.gamma}, eps={self.eps})"
        )


def guarantee_report(
    objective: str,
    p_opt: float,
    *,
    gamma: float = 0.1,
    eps: float = 0.0,
    n: int | None = None,
) -> GuaranteeReport:
    """Bundle the value floor and iteration cap for one objective.

    ``objective`` is ``"mcp"`` or ``"acp"``; ACP requires ``n``.
    """
    if objective == "mcp":
        value = mcp_guarantee(p_opt, gamma, eps=eps)
        calls = mcp_iteration_bound(p_opt, gamma)
    elif objective == "acp":
        if n is None:
            raise ClusteringError("acp guarantees need the node count n")
        value = acp_guarantee(p_opt, gamma, n, eps=eps)
        calls = acp_iteration_bound(p_opt, gamma, n)
    else:
        raise ClusteringError(f"objective must be 'mcp' or 'acp', got {objective!r}")
    return GuaranteeReport(
        objective=objective,
        p_opt=p_opt,
        promised_value=value,
        max_min_partial_calls=calls,
        gamma=gamma,
        eps=eps,
    )
