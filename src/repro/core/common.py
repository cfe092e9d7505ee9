"""Shared plumbing for the MCP and ACP drivers."""

from __future__ import annotations

from collections.abc import Callable

from repro.exceptions import ClusteringError
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.oracle import MonteCarloOracle
from repro.sampling.sizes import (
    PracticalSchedule,
    TheoreticalACPSchedule,
    TheoreticalMCPSchedule,
)


def resolve_oracle(
    graph: UncertainGraph | None,
    oracle,
    *,
    seed,
    chunk_size: int,
    max_samples: int,
    store=None,
    cache_dir=None,
):
    """Return the oracle to use: the caller's, or a fresh Monte Carlo one.

    ``store`` / ``cache_dir`` select the world-store attachment of a
    freshly built :class:`MonteCarloOracle` (see
    :mod:`repro.sampling.store`); both are ignored when the caller
    supplies an ``oracle``.

    Examples
    --------
    >>> from repro.graph.uncertain_graph import UncertainGraph
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5)])
    >>> oracle = resolve_oracle(
    ...     g, None, seed=7, chunk_size=64, max_samples=1000)
    >>> oracle.num_samples
    0
    >>> resolve_oracle(None, oracle, seed=0, chunk_size=1,
    ...                max_samples=1) is oracle   # caller's oracle wins
    True
    """
    if oracle is not None:
        return oracle
    if graph is None:
        raise ClusteringError("either a graph or an oracle must be provided")
    return MonteCarloOracle(
        graph,
        seed=seed,
        chunk_size=chunk_size,
        max_samples=max_samples,
        store=store,
        cache_dir=cache_dir,
    )


def resolve_sample_schedule(
    schedule,
    *,
    kind: str,
    eps: float,
    gamma: float,
    n: int,
    p_lower: float,
) -> Callable[[float], int]:
    """Resolve a sample schedule spec into a callable ``q -> r``.

    Accepts ``None`` / ``"practical"`` (paper Section 5 configuration),
    ``"theoretical"`` (Eq. 9 for MCP, Eq. 10 for ACP), or any callable.
    """
    if schedule is None or schedule == "practical":
        return PracticalSchedule()
    if schedule == "theoretical":
        if kind == "mcp":
            return TheoreticalMCPSchedule(eps=eps, gamma=gamma, n=n, p_lower=p_lower)
        if kind == "acp":
            return TheoreticalACPSchedule(eps=eps, gamma=gamma, n=n, p_lower=p_lower)
        raise ClusteringError(f"unknown algorithm kind {kind!r}")
    if callable(schedule):
        return schedule
    raise ClusteringError(
        f"sample_schedule must be None, 'practical', 'theoretical' or callable, got {schedule!r}"
    )


def validate_common(k: int, n: int, gamma: float, eps: float, p_lower: float, depth) -> None:
    """Validate the parameters shared by both drivers."""
    if not 1 <= k < n:
        raise ClusteringError(f"k must satisfy 1 <= k < n_nodes ({n}), got {k}")
    if gamma <= 0:
        raise ClusteringError(f"gamma must be positive, got {gamma}")
    if not 0 <= eps < 1:
        raise ClusteringError(f"eps must be in [0, 1), got {eps}")
    if not 0 < p_lower <= 1:
        raise ClusteringError(f"p_lower must be in (0, 1], got {p_lower}")
    if depth is not None and depth < 1:
        raise ClusteringError(f"depth must be >= 1, got {depth}")
