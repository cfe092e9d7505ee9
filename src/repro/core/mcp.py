"""The MCP clustering algorithm (Algorithm 2).

Maximizes the *minimum* connection probability of a node to its cluster
center.  Strategy: guess a threshold ``q`` starting at 1, run
``min-partial(G, k, q, 1, q)``, and lower ``q`` until the returned
partial clustering covers every node; a final binary search between the
last failing and the first covering guess recovers threshold precision
(paper Section 5).

Guarantee (Theorem 3 / Theorem 7): the returned clustering ``C``
satisfies ``min-prob(C) >= (1 - eps) p_opt_min(k)^2 / (1 + gamma)``
with high probability, and the algorithm never needs to estimate
connection probabilities much smaller than ``p_opt_min(k)^2`` — the key
to practical running times.

The depth-limited variant (``depth=d``) optimizes ``min-prob_d`` and
carries the guarantee of Theorem 5 in terms of
``p_opt_min(k, floor(d/2))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.clustering import Clustering, complete_clustering
from repro.core.common import (
    GuessRecord,
    guess_runner,
    is_exact,
    resolve_oracle,
    resolve_sample_schedule,
    validate_common,
)
from repro.core.schedule import refine_between, resolve_guess_schedule
from repro.exceptions import ClusteringError
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class MCPResult:
    """Outcome of :func:`mcp_clustering`.

    Attributes
    ----------
    clustering:
        The returned k-clustering (full unless the schedule bottomed out
        at ``p_lower`` without covering; then ``covers_all`` is False and
        the clustering was completed by best-center assignment anyway).
    q_final:
        The largest threshold whose ``min-partial`` run covered all
        nodes (or the last attempted threshold on failure).
    min_prob_estimate:
        Estimated objective value of the returned clustering.
    history:
        One :class:`GuessRecord` per ``min-partial`` invocation,
        including binary-search probes.
    """

    clustering: Clustering
    q_final: float
    covers_all: bool
    min_prob_estimate: float
    samples_used: int
    history: tuple[GuessRecord, ...] = field(repr=False)

    @property
    def n_guesses(self) -> int:
        return len(self.history)


def mcp_clustering(
    graph: UncertainGraph | None,
    k: int,
    *,
    oracle=None,
    gamma: float = 0.1,
    eps: float = 0.3,
    seed=None,
    depth: int | None = None,
    p_lower: float = 1e-4,
    guess_schedule="doubling",
    sample_schedule=None,
    refine: bool = True,
    alpha: int = 1,
    q_bar: float | None = None,
    chunk_size: int = 512,
    max_samples: int = 1_000_000,
    store=None,
    cache_dir=None,
    cancel_check=None,
    progress=None,
) -> MCPResult:
    """Cluster an uncertain graph maximizing minimum connection probability.

    Parameters
    ----------
    graph:
        The uncertain graph (may be ``None`` when ``oracle`` is given).
    k:
        Number of clusters, ``1 <= k < n``.
    oracle:
        Optional pre-built oracle (e.g. :class:`ExactOracle` in tests or
        a shared :class:`MonteCarloOracle` across runs).
    gamma:
        Threshold-schedule resolution; the guarantee degrades by
        ``1/(1+gamma)`` (paper uses 0.1).
    eps:
        Monte Carlo relative-error parameter (Section 4).
    depth:
        Optional path-length limit ``d`` (Algorithm 4 semantics).
    p_lower:
        Smallest threshold the schedule may reach (``p_L``); the paper's
        experiments use ``1e-4``.
    guess_schedule:
        ``"doubling"`` (paper Section 5), ``"geometric"`` (Algorithm 2
        verbatim) or an explicit decreasing sequence.
    sample_schedule:
        ``None``/``"practical"``, ``"theoretical"`` (Eq. 9), or a
        callable ``q -> r``.
    refine:
        Run the final binary search between the last two guesses.
    alpha, q_bar:
        ``min-partial`` design parameters (defaults match Algorithm 2:
        ``alpha=1``, ``q_bar=q``).
    store, cache_dir:
        World-store attachment of a freshly built oracle (see
        :mod:`repro.sampling.store`): a shared
        :class:`~repro.sampling.store.WorldStore` instance, or a cache
        directory that persists the sampled pool across process runs.
        Two calls with the same ``(graph, seed)`` share one pool
        instead of resampling, whatever their ``chunk_size``.  Ignored
        when ``oracle`` is given.
    cancel_check:
        Optional zero-argument callable invoked before every threshold
        guess (binary-search probes included).  Raise from it — e.g.
        :class:`~repro.exceptions.JobCancelledError` — to abort the run
        cooperatively; the exception propagates unchanged.  This is how
        the clustering service cancels jobs running off the event loop.
    progress:
        Optional callable invoked after every threshold guess
        (binary-search probes included) with a JSON-safe dict
        ``{"q", "samples", "covered", "covers_all"}`` mirroring the
        :class:`GuessRecord` just appended to the history — the hook
        the clustering service streams job-progress events from.
        Exceptions raised by the callback propagate unchanged.

    Returns
    -------
    MCPResult

    Examples
    --------
    >>> g = UncertainGraph.from_edges(
    ...     [(0, 1, 0.9), (1, 2, 0.9), (3, 4, 0.8), (4, 5, 0.8), (2, 3, 0.05)])
    >>> result = mcp_clustering(g, k=2, seed=0)
    >>> result.clustering.covers_all
    True
    """
    oracle = resolve_oracle(
        graph, oracle, seed=seed, chunk_size=chunk_size, max_samples=max_samples,
        store=store, cache_dir=cache_dir,
    )
    n = oracle.n_nodes
    validate_common(k, n, gamma, eps, p_lower, depth)
    samples_for = resolve_sample_schedule(
        sample_schedule, kind="mcp", eps=eps, gamma=gamma, n=n, p_lower=p_lower
    )
    guesses = resolve_guess_schedule(guess_schedule, gamma, p_lower)
    rng = ensure_rng(seed)
    history: list[GuessRecord] = []
    # Exact oracles need no threshold relaxation.
    oracle_is_sampled = not is_exact(oracle)
    run_guess = guess_runner(
        "mcp.guess", oracle, k, samples_for,
        threshold=lambda q: q, q_bar=q_bar,
        eps=eps, history=history, cancel_check=cancel_check, progress=progress,
        alpha=alpha, rng=rng, depth=depth,
    )

    best = None
    q_success = None
    q_fail = None
    last = None
    for q in guesses:
        last = run_guess(q)
        if last.covers_all:
            best = last
            q_success = q
            break
        q_fail = q
    if last is None:  # pragma: no cover - resolve_guess_schedule rejects empty schedules
        raise ClusteringError("the guess schedule produced no thresholds")

    if best is None:
        # Bottomed out at p_lower without covering: more than k "reliable
        # islands" at this floor.  Return a completed best effort.
        clustering = complete_clustering(last.clustering, last.center_rows)
        return MCPResult(
            clustering=clustering,
            q_final=guesses[-1],
            covers_all=False,
            min_prob_estimate=clustering.min_prob(),
            samples_used=oracle.num_samples if oracle_is_sampled else 0,
            history=tuple(history),
        )

    if refine and q_fail is not None and q_success < q_fail:
        outcome = {}

        def succeeds(q_mid: float) -> bool:
            result_mid = run_guess(q_mid)
            if result_mid.covers_all:
                outcome[q_mid] = result_mid
                return True
            return False

        best_q = refine_between(q_success, q_fail, succeeds, ratio=1.0 - gamma)
        if best_q in outcome:
            best = outcome[best_q]
            q_success = best_q

    clustering = best.clustering
    return MCPResult(
        clustering=clustering,
        q_final=q_success,
        covers_all=True,
        min_prob_estimate=clustering.min_prob(),
        samples_used=oracle.num_samples if oracle_is_sampled else 0,
        history=tuple(history),
    )

