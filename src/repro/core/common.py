"""Shared plumbing for the MCP and ACP drivers."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro import telemetry
from repro.core.partial import MinPartialResult, min_partial
from repro.exceptions import ClusteringError
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.exact import ExactOracle
from repro.sampling.oracle import MonteCarloOracle
from repro.sampling.sizes import (
    PracticalSchedule,
    TheoreticalACPSchedule,
    TheoreticalMCPSchedule,
)


@dataclass(frozen=True)
class GuessRecord:
    """One guess of the threshold schedule."""

    q: float
    samples: int
    covered: int
    covers_all: bool


def is_exact(oracle) -> bool:
    """Whether the oracle returns exact probabilities (no eps relaxation)."""
    return isinstance(oracle, ExactOracle)


def guess_runner(
    span_name: str,
    oracle,
    k: int,
    samples_for: Callable[[float], int],
    *,
    threshold: Callable[[float], float],
    q_bar: float | None = None,
    eps: float,
    history: list,
    cancel_check=None,
    progress=None,
    **partial_options,
) -> Callable[[float], MinPartialResult]:
    """One guess step of the MCP/ACP threshold loops, as ``q -> result``.

    Each call checks ``cancel_check``, then, inside a ``span_name``
    span, tops the oracle up to ``samples_for(q)`` worlds, runs
    ``min_partial`` at ``threshold(q)`` with ``q_bar`` (the guess ``q``
    when ``None``) and ``eps`` (0 for exact oracles), appends a
    :class:`GuessRecord` to ``history`` and reports it to ``progress``.
    ``partial_options`` (``alpha``, ``rng``, ``depth``,
    ``inner_depth``) pass through to ``min_partial``.
    """
    sampled = not is_exact(oracle)

    def run_guess(q: float) -> MinPartialResult:
        if cancel_check is not None:
            cancel_check()
        with telemetry.get_tracer().span(span_name, q=q) as span:
            oracle.ensure_samples(samples_for(q))
            result = min_partial(
                oracle, k, threshold(q), q_bar=q if q_bar is None else q_bar,
                eps=eps if sampled else 0.0,
                **partial_options,
            )
            record = GuessRecord(
                q=q,
                samples=oracle.num_samples if sampled else 0,
                covered=result.clustering.n_covered,
                covers_all=result.covers_all,
            )
            history.append(record)
            span.set("samples", record.samples)
            span.set("covered", record.covered)
            span.set("covers_all", record.covers_all)
            if progress is not None:
                progress({"q": record.q, "samples": record.samples,
                          "covered": record.covered, "covers_all": record.covers_all})
        return result

    return run_guess


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
