"""Exact workload objectives by possible-world enumeration.

Ground truth for the workload suite: every quantity the Monte Carlo
estimators in :mod:`repro.workloads` approximate is computed here
exactly by materializing all ``2^m`` worlds of a tiny graph
(:func:`repro.sampling.exact.enumerate_worlds`) and weighting per-world
values by world probability.  The per-world kernels are *shared* with
the estimators (:mod:`repro.workloads.measures`), so the two paths can
only differ in how worlds are weighted — which is exactly what the
tolerance tests pin.

Conventions match the estimators: hop distance per world, disconnected
pairs count the disconnection penalty ``n`` (see
:meth:`repro.sampling.oracle.MonteCarloOracle.expected_distances`),
k-median averages and k-center maximizes the expected distance of a
node to its nearest center.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.exceptions import ClusteringError
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.exact import (
    _DEFAULT_MAX_UNCERTAIN_EDGES,
    enumerate_worlds,
    exact_expected_distances,
)
from repro.workloads.measures import MEASURE_KERNELS, MEASURE_NAMES

_OBJECTIVE_KINDS = ("kmedian", "kcenter")


def exact_clustering_objective(
    graph: UncertainGraph,
    centers,
    *,
    kind: str = "kmedian",
    max_uncertain_edges: int = _DEFAULT_MAX_UNCERTAIN_EDGES,
) -> float:
    """Exact k-median/k-center objective of a given center set.

    Each node's cost is its minimum exact expected distance to a
    center; ``kind="kmedian"`` averages the costs, ``kind="kcenter"``
    maximizes them — the exact counterparts of the objectives reported
    by :func:`repro.workloads.kmedian_clustering` /
    :func:`repro.workloads.kcenter_clustering`.
    """
    if kind not in _OBJECTIVE_KINDS:
        raise ClusteringError(f"kind must be one of {_OBJECTIVE_KINDS}, got {kind!r}")
    centers = np.asarray(centers, dtype=np.intp)
    if centers.ndim != 1 or len(centers) == 0:
        raise ClusteringError("centers must be a non-empty 1-D sequence")
    if len(np.unique(centers)) != len(centers):
        raise ClusteringError("centers must be distinct")
    n = graph.n_nodes
    if len(centers) and (centers.min() < 0 or centers.max() >= n):
        raise ClusteringError("centers out of range")
    matrix = exact_expected_distances(graph, max_uncertain_edges=max_uncertain_edges)
    costs = matrix[centers].min(axis=0)
    return float(costs.mean() if kind == "kmedian" else costs.max())


def exact_best_clustering(
    graph: UncertainGraph,
    k: int,
    *,
    kind: str = "kmedian",
    max_uncertain_edges: int = _DEFAULT_MAX_UNCERTAIN_EDGES,
) -> tuple[tuple[int, ...], float]:
    """Brute-force optimal centers and objective over all ``C(n, k)`` sets.

    Ties break toward the lexicographically smallest center set, so the
    result is deterministic.  Only feasible for tiny graphs; used to
    assert the greedy drivers' approximation quality in tests.
    """
    if kind not in _OBJECTIVE_KINDS:
        raise ClusteringError(f"kind must be one of {_OBJECTIVE_KINDS}, got {kind!r}")
    n = graph.n_nodes
    if not 1 <= k < n:
        raise ClusteringError(f"k must satisfy 1 <= k < n_nodes ({n}), got {k}")
    matrix = exact_expected_distances(graph, max_uncertain_edges=max_uncertain_edges)
    best_centers: tuple[int, ...] | None = None
    best_objective = np.inf
    for candidate in combinations(range(n), k):
        costs = matrix[np.asarray(candidate, dtype=np.intp)].min(axis=0)
        objective = float(costs.mean() if kind == "kmedian" else costs.max())
        if objective < best_objective:
            best_objective = objective
            best_centers = candidate
    assert best_centers is not None  # k >= 1 guarantees at least one candidate
    return best_centers, best_objective


def exact_expected_centrality(
    graph: UncertainGraph,
    measure: str,
    *,
    max_uncertain_edges: int = _DEFAULT_MAX_UNCERTAIN_EDGES,
) -> np.ndarray:
    """Exact per-node expected centrality, shape ``(n,)``.

    Examples
    --------
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    >>> exact_expected_centrality(g, "degree").tolist()
    [0.5, 1.0, 0.5]
    """
    if measure not in MEASURE_NAMES:
        raise ClusteringError(f"measure must be one of {MEASURE_NAMES}, got {measure!r}")
    kernel = MEASURE_KERNELS[measure]
    values = np.zeros(graph.n_nodes, dtype=np.float64)
    for mask, world_prob in enumerate_worlds(graph, max_uncertain_edges=max_uncertain_edges):
        if world_prob == 0.0:
            continue
        values += world_prob * kernel(graph, mask[None, :])[0]
    return values
