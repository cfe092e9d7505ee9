"""The ACP clustering algorithm (Algorithm 3).

Maximizes the *average* connection probability of nodes to their cluster
centers.  Strategy: for decreasing thresholds ``q``, compute a partial
k-clustering whose covered nodes connect to their centers with
probability at least the coverage threshold, complete it by assigning
the uncovered nodes, and keep the completion with the best average
``phi``.  The loop stops as soon as smaller thresholds can no longer
beat the best average found (line 5 of Algorithm 3).

Two modes are implemented:

``mode="theoretical"``
    ``min-partial(G, k, q^3, n, q)`` — the configuration analyzed in
    Theorem 4: ``avg-prob >= (p_opt_avg(k) / ((1+gamma) H(n)))^3``.
    The ``alpha = n`` greedy scoring makes it quadratic in the number of
    uncovered nodes; intended for small graphs and validation.
``mode="practical"`` (default)
    ``min-partial(G, k, q, 1, q)`` — the configuration the paper's
    experiments use (Section 5), chosen there after a parameter study
    because it is much faster and returns clusterings of the same
    quality, albeit without the proven bound.

Depth-limited variant (Theorem 6): coverage disks use ``d``-connection
probabilities and the theoretical selection disks ``floor(d/3)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import telemetry
from repro.core.clustering import Clustering, complete_clustering
from repro.core.common import resolve_oracle, resolve_sample_schedule, validate_common
from repro.core.mcp import GuessRecord, _is_exact
from repro.core.partial import min_partial
from repro.core.schedule import resolve_guess_schedule
from repro.exceptions import ClusteringError
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.rng import ensure_rng

_MODES = ("practical", "theoretical")


@dataclass(frozen=True)
class ACPResult:
    """Outcome of :func:`acp_clustering`.

    ``phi_best`` is the paper's objective bookkeeping value: the average
    connection probability with uncovered nodes counted as 0 *before*
    completion — the invariant ``avg-prob(C_best) >= phi_best`` holds.
    ``avg_prob_estimate`` is the measured average of the returned
    (completed) clustering, which is at least ``phi_best``.
    """

    clustering: Clustering
    phi_best: float
    q_final: float
    avg_prob_estimate: float
    mode: str
    samples_used: int
    history: tuple[GuessRecord, ...] = field(repr=False)

    @property
    def n_guesses(self) -> int:
        return len(self.history)


def acp_clustering(
    graph: UncertainGraph | None,
    k: int,
    *,
    oracle=None,
    mode: str = "practical",
    gamma: float = 0.1,
    eps: float = 0.3,
    seed=None,
    depth: int | None = None,
    p_lower: float = 1e-4,
    guess_schedule="doubling",
    sample_schedule=None,
    chunk_size: int = 512,
    max_samples: int = 1_000_000,
    store=None,
    cache_dir=None,
    cancel_check=None,
    progress=None,
) -> ACPResult:
    """Cluster an uncertain graph maximizing average connection probability.

    Parameters mirror :func:`repro.core.mcp.mcp_clustering` (including
    the ``store`` / ``cache_dir`` world-store attachment — an MCP run
    followed by an ACP run with the same ``(graph, seed)`` and a shared
    store reuses one sampled pool, the ``cancel_check`` cooperative-cancellation
    hook called before every threshold guess, and the ``progress``
    callback invoked after every guess with the JSON-safe dict
    ``{"q", "samples", "covered", "covers_all"}``); see the module
    docstring for the ``mode`` semantics.

    Examples
    --------
    >>> g = UncertainGraph.from_edges(
    ...     [(0, 1, 0.9), (1, 2, 0.9), (3, 4, 0.8), (4, 5, 0.8), (2, 3, 0.05)])
    >>> result = acp_clustering(g, k=2, seed=0)
    >>> result.clustering.covers_all
    True
    >>> result.avg_prob_estimate >= result.phi_best
    True
    """
    if mode not in _MODES:
        raise ClusteringError(f"mode must be one of {_MODES}, got {mode!r}")
    oracle = resolve_oracle(
        graph, oracle, seed=seed, chunk_size=chunk_size, max_samples=max_samples,
        store=store, cache_dir=cache_dir,
    )
    n = oracle.n_nodes
    validate_common(k, n, gamma, eps, p_lower, depth)
    samples_for = resolve_sample_schedule(
        sample_schedule, kind="acp", eps=eps, gamma=gamma, n=n, p_lower=p_lower
    )
    guesses = resolve_guess_schedule(guess_schedule, gamma, p_lower)
    rng = ensure_rng(seed)
    oracle_is_sampled = not _is_exact(oracle)
    history: list[GuessRecord] = []

    theoretical = mode == "theoretical"
    inner_depth = None
    if depth is not None:
        inner_depth = depth // 3 if theoretical else depth
        if theoretical and inner_depth < 1:
            raise ClusteringError(
                f"theoretical depth-limited ACP needs depth >= 3 (got {depth}) so that floor(d/3) >= 1"
            )

    def coverage_threshold(q: float) -> float:
        return q**3 if theoretical else q

    def run_guess(q: float):
        if cancel_check is not None:
            cancel_check()
        with telemetry.get_tracer().span("acp.guess", q=q) as span:
            result = _run_guess_traced(q, span)
        return result

    def _run_guess_traced(q: float, span):
        oracle.ensure_samples(samples_for(q))
        result = min_partial(
            oracle,
            k,
            coverage_threshold(q),
            alpha=n if theoretical else 1,
            q_bar=q,
            eps=eps if oracle_is_sampled else 0.0,
            rng=rng,
            depth=depth,
            inner_depth=inner_depth,
        )
        record = GuessRecord(
            q=q,
            samples=oracle.num_samples if oracle_is_sampled else 0,
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

    phi_best = -1.0
    best_completed: Clustering | None = None
    q_final = guesses[0]
    for q in guesses:
        if coverage_threshold(q) < phi_best:
            break
        result = run_guess(q)
        # Line 7: phi counts uncovered nodes as 0 (partial clustering).
        phi = result.clustering.avg_prob()
        if phi >= phi_best:
            phi_best = phi
            best_completed = complete_clustering(result.clustering, result.center_rows)
            q_final = q

    if best_completed is None:  # pragma: no cover - guesses is never empty
        raise ClusteringError("the guess schedule produced no clustering")

    return ACPResult(
        clustering=best_completed,
        phi_best=phi_best,
        q_final=q_final,
        avg_prob_estimate=best_completed.avg_prob(),
        mode=mode,
        samples_used=oracle.num_samples if oracle_is_sampled else 0,
        history=tuple(history),
    )
