"""Probabilistic k-median and k-center over sampled worlds.

Following Han-style approximation algorithms for probabilistic graphs
(Han et al.; see PAPERS.md), both workloads optimize an
*expected-distance* objective: the distance between two nodes in one
possible world is their hop distance, a disconnected pair counts the
**disconnection penalty** ``n`` (one more than any achievable hop
count), and the pairwise cost is the expectation over worlds.  With
that convention every per-world distance is a metric (if both legs of a
triangle are connected the third is too), hence so is its expectation —
which is what makes the classic greedy algorithms meaningful here:

* **k-median** — greedy seeding (each round adds the center that most
  reduces the summed expected distance) followed by Lloyd-style
  alternation of nearest-center assignment and per-cluster medoid
  updates.  Objective: *mean* expected distance of a node to its
  center.
* **k-center** — farthest-point traversal (Gonzalez) seeded at the node
  of minimum eccentricity.  Objective: *max* expected distance of a
  node to its center; on a metric the greedy is a 2-approximation.

Both are thin consumers of the shared world pool: the expected-distance
matrix is computed from the same packed masks MCP/ACP sample, so a warm
pool means **zero** resampling, and the estimate is a pure function of
the seed — bit-identical with or without a store.
Ties break toward the lowest node index everywhere, so the clustering
itself is deterministic too.

Run against :class:`repro.sampling.exact.ExactOracle` the same code
optimizes the exact objective, which is how the test suite pins the
Monte Carlo estimates to ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core.clustering import Clustering
from repro.core.common import resolve_oracle
from repro.exceptions import ClusteringError
from repro.graph.uncertain_graph import UncertainGraph


@dataclass(frozen=True)
class RoundRecord:
    """One greedy round (or refinement sweep) of a k-clustering run."""

    round: int
    phase: str  # "seed" or "refine"
    center: int
    objective: float


@dataclass(frozen=True)
class KClusteringResult:
    """Outcome of :func:`kmedian_clustering` / :func:`kcenter_clustering`.

    Attributes
    ----------
    clustering:
        The k-clustering (always complete: every node is assigned to
        its nearest center under expected distance).
    objective:
        Mean (k-median) or max (k-center) expected distance of a node
        to its cluster center, under the disconnection penalty ``n``.
    node_costs:
        Per-node expected distance to the assigned center, shape ``(n,)``.
    samples_used:
        Worlds in the pool the estimate was computed over (0 for an
        exact oracle).
    history:
        One :class:`RoundRecord` per greedy round / refinement sweep.
    """

    clustering: Clustering
    objective: float
    node_costs: np.ndarray = field(repr=False)
    samples_used: int
    history: tuple[RoundRecord, ...] = field(repr=False)

    @property
    def n_rounds(self) -> int:
        return len(self.history)


def _prepare(graph, oracle, k, samples, *, seed, chunk_size, max_samples,
             store, cache_dir):
    """Resolve the oracle, validate, and compute the expected-distance matrix."""
    from repro.core.mcp import _is_exact

    oracle = resolve_oracle(
        graph, oracle, seed=seed, chunk_size=chunk_size, max_samples=max_samples,
        store=store, cache_dir=cache_dir,
    )
    n = oracle.n_nodes
    if not 1 <= k < n:
        raise ClusteringError(f"k must satisfy 1 <= k < n_nodes ({n}), got {k}")
    exact = _is_exact(oracle)
    if not exact:
        if samples < 1:
            raise ClusteringError(f"samples must be >= 1, got {samples}")
        oracle.ensure_samples(samples)
    matrix = oracle.expected_distances()
    samples_used = 0 if exact else oracle.num_samples
    return oracle, matrix, samples_used


def _assignment_from(matrix: np.ndarray, centers: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center assignment (ties -> lowest cluster index) and costs."""
    center_rows = matrix[np.asarray(centers, dtype=np.intp)]
    assignment = np.argmin(center_rows, axis=0).astype(np.int64)
    costs = center_rows[assignment, np.arange(matrix.shape[0])]
    return assignment, costs


def _emit(history, progress, cancel_check, *, phase, center, objective, samples):
    if cancel_check is not None:
        cancel_check()
    record = RoundRecord(
        round=len(history), phase=phase, center=int(center), objective=float(objective)
    )
    history.append(record)
    # An event marker, not a timed region: rounds end where the next one
    # begins, so the span carries the round's outcome with ~zero width.
    with telemetry.get_tracer().span(
        "kclustering.round", round=record.round, phase=record.phase,
        center=record.center, objective=record.objective,
    ):
        pass
    if progress is not None:
        progress({"round": record.round, "phase": record.phase,
                  "center": record.center, "objective": record.objective,
                  "samples": samples})


def kmedian_clustering(
    graph: UncertainGraph | None,
    k: int,
    *,
    oracle=None,
    seed=None,
    samples: int = 1000,
    max_iters: int = 20,
    chunk_size: int = 512,
    max_samples: int = 1_000_000,
    store=None,
    cache_dir=None,
    cancel_check=None,
    progress=None,
) -> KClusteringResult:
    """Probabilistic k-median under expected hop distance.

    Parameters mirror :func:`repro.core.mcp.mcp_clustering` where they
    overlap: ``oracle=`` substitutes a pre-built (possibly exact)
    oracle; ``store=`` / ``cache_dir=`` configure a
    freshly built Monte Carlo oracle; ``cancel_check`` runs before
    every greedy round (raise from it to abort cooperatively);
    ``progress`` receives one JSON-safe dict per round.

    ``samples`` is the pool size the expected distances are estimated
    over (ignored for an exact oracle).  ``max_iters`` bounds the
    Lloyd-style refinement sweeps after greedy seeding.

    Examples
    --------
    >>> g = UncertainGraph.from_edges(
    ...     [(0, 1, 0.9), (1, 2, 0.9), (3, 4, 0.9), (4, 5, 0.9), (2, 3, 0.05)])
    >>> result = kmedian_clustering(g, k=2, seed=0, samples=400)
    >>> sorted(result.clustering.centers.tolist())
    [1, 4]
    """
    _, matrix, samples_used = _prepare(
        graph, oracle, k, samples, seed=seed, chunk_size=chunk_size,
        max_samples=max_samples, store=store, cache_dir=cache_dir,
    )
    if max_iters < 0:
        raise ClusteringError(f"max_iters must be non-negative, got {max_iters}")
    n = matrix.shape[0]
    history: list[RoundRecord] = []

    # Greedy seeding: each round adds the center minimizing the summed
    # cost min(existing cost, distance to the candidate).
    centers: list[int] = []
    best_cost = np.full(n, np.inf)
    for _ in range(k):
        totals = np.minimum(matrix, best_cost[None, :]).sum(axis=1)
        if centers:
            totals[np.asarray(centers, dtype=np.intp)] = np.inf
        choice = int(np.argmin(totals))
        centers.append(choice)
        best_cost = np.minimum(best_cost, matrix[choice])
        _emit(history, progress, cancel_check, phase="seed", center=choice,
              objective=best_cost.mean(), samples=samples_used)

    # Lloyd-style refinement: alternate nearest-center assignment with
    # per-cluster medoid updates (candidates restricted to the cluster's
    # members, which keeps centers distinct).
    for _ in range(max_iters):
        assignment, _ = _assignment_from(matrix, centers)
        updated = list(centers)
        for cluster in range(k):
            members = np.flatnonzero(assignment == cluster)
            if len(members) == 0:
                continue
            member_costs = matrix[np.ix_(members, members)].sum(axis=1)
            updated[cluster] = int(members[np.argmin(member_costs)])
        if updated == centers:
            break
        centers = updated
        _, costs = _assignment_from(matrix, centers)
        _emit(history, progress, cancel_check, phase="refine", center=centers[-1],
              objective=costs.mean(), samples=samples_used)

    assignment, costs = _assignment_from(matrix, centers)
    clustering = Clustering(
        n_nodes=n,
        centers=np.asarray(centers, dtype=np.int64),
        assignment=assignment,
    )
    return KClusteringResult(
        clustering=clustering,
        objective=float(costs.mean()),
        node_costs=costs,
        samples_used=samples_used,
        history=tuple(history),
    )


def kcenter_clustering(
    graph: UncertainGraph | None,
    k: int,
    *,
    oracle=None,
    seed=None,
    samples: int = 1000,
    chunk_size: int = 512,
    max_samples: int = 1_000_000,
    store=None,
    cache_dir=None,
    cancel_check=None,
    progress=None,
) -> KClusteringResult:
    """Probabilistic k-center under expected hop distance.

    Farthest-point (Gonzalez) traversal on the expected-distance
    matrix: the first center minimizes the maximum expected distance
    (the exact 1-center optimum), and each following round adds the
    node farthest from its nearest center.  Because the expected
    distance is a metric (see the module docstring) this is a
    2-approximation of the optimal expected-distance k-center
    objective.  Parameters as in :func:`kmedian_clustering`.

    Examples
    --------
    Run against the exact oracle the traversal is fully determined by
    the true expected distances (the first center hugs the weak
    bridge, the second is the farthest node from it):

    >>> from repro.sampling import ExactOracle
    >>> g = UncertainGraph.from_edges(
    ...     [(0, 1, 0.9), (1, 2, 0.9), (3, 4, 0.9), (4, 5, 0.9), (2, 3, 0.05)])
    >>> result = kcenter_clustering(g, k=2, oracle=ExactOracle(g))
    >>> sorted(result.clustering.centers.tolist())
    [2, 5]
    >>> result.samples_used
    0
    """
    _, matrix, samples_used = _prepare(
        graph, oracle, k, samples, seed=seed, chunk_size=chunk_size,
        max_samples=max_samples, store=store, cache_dir=cache_dir,
    )
    n = matrix.shape[0]
    history: list[RoundRecord] = []

    first = int(np.argmin(matrix.max(axis=1)))
    centers = [first]
    best_cost = matrix[first].copy()
    _emit(history, progress, cancel_check, phase="seed", center=first,
          objective=best_cost.max(), samples=samples_used)
    while len(centers) < k:
        farthest = int(np.argmax(best_cost))
        centers.append(farthest)
        best_cost = np.minimum(best_cost, matrix[farthest])
        _emit(history, progress, cancel_check, phase="seed", center=farthest,
              objective=best_cost.max(), samples=samples_used)

    assignment, costs = _assignment_from(matrix, centers)
    clustering = Clustering(
        n_nodes=n,
        centers=np.asarray(centers, dtype=np.int64),
        assignment=assignment,
    )
    return KClusteringResult(
        clustering=clustering,
        objective=float(costs.max()),
        node_costs=costs,
        samples_used=samples_used,
        history=tuple(history),
    )
