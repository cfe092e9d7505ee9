"""The Markov Cluster algorithm (van Dongen), ``mcl``.

mcl clusters a weighted graph by simulating flow: it alternates
*expansion* (matrix squaring — flow spreads along random walks) and
*inflation* (entry-wise powering + column renormalization — strong flow
is boosted, weak flow starved) on a column-stochastic matrix until a
doubly idempotent steady state.  The *inflation* parameter controls
cluster granularity indirectly; there is no way to request a specific
number of clusters, which is the flexibility gap the paper highlights.

Applied to uncertain graphs by treating edge probabilities as weights —
exactly how previous work (and the paper's experiments) use it.  Cluster
*centers*, needed by the paper's pmin/pavg metrics, are taken to be the
attractor nodes (footnote 2 of the paper); for clusters with several
attractors the one holding the most flow wins.

Implementation notes: sparse column-stochastic matrices (CSC), with the
standard pruning heuristic (drop entries below ``prune_threshold`` after
inflation) that the reference implementation uses to stay sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.clustering import Clustering
from repro.exceptions import ClusteringError
from repro.graph.components import connected_component_labels
from repro.graph.uncertain_graph import UncertainGraph


@dataclass(frozen=True)
class MCLResult:
    """Outcome of :func:`mcl_clustering`."""

    clustering: Clustering
    inflation: float
    n_iterations: int
    converged: bool

    @property
    def n_clusters(self) -> int:
        return self.clustering.k


def _normalize_columns(matrix: sp.csc_matrix) -> sp.csc_matrix:
    sums = np.asarray(matrix.sum(axis=0)).ravel()
    sums[sums == 0.0] = 1.0
    scale = sp.diags(1.0 / sums)
    return (matrix @ scale).tocsc()


def _inflate(matrix: sp.csc_matrix, inflation: float, prune_threshold: float) -> sp.csc_matrix:
    inflated = matrix.copy()
    inflated.data = np.power(inflated.data, inflation)
    if prune_threshold > 0.0:
        inflated.data[inflated.data < prune_threshold] = 0.0
        inflated.eliminate_zeros()
    return _normalize_columns(inflated)


def mcl_clustering(
    graph: UncertainGraph,
    *,
    inflation: float = 2.0,
    expansion: int = 2,
    loop_weight: float = 1.0,
    prune_threshold: float = 1e-5,
    max_iterations: int = 200,
    tolerance: float = 1e-8,
    max_nnz: int | None = 50_000_000,
) -> MCLResult:
    """Run mcl on an uncertain graph, using probabilities as weights.

    Parameters
    ----------
    graph:
        The uncertain graph.
    inflation:
        Granularity knob (> 1); higher values give more, smaller
        clusters.  The paper sweeps {1.2, 1.5, 2.0} on PPI networks and
        {1.15, 1.2, 1.3} on DBLP.
    expansion:
        Matrix power used in the expansion step (2 is standard).
    loop_weight:
        Self-loop weight added before normalization (stabilizes flow).
    prune_threshold:
        Entries below this are dropped after inflation (keeps the matrix
        sparse, as in the reference implementation).
    max_iterations, tolerance:
        Convergence controls; iteration stops when the matrix changes by
        at most ``tolerance`` (max absolute entry difference).
    max_nnz:
        Memory guard: raise :class:`MemoryError` if the expanded matrix
        exceeds this many stored entries.  Low inflation on large graphs
        densifies the flow matrix — the failure mode the paper observed
        (mcl ran out of memory on DBLP for small k, Figure 4).

    Returns
    -------
    MCLResult
        Clustering whose clusters are the weakly connected components of
        the converged flow matrix and whose centers are attractors.
    """
    if not (math.isfinite(inflation) and inflation > 1.0):
        raise ClusteringError(f"inflation must be a finite number > 1, got {inflation}")
    if expansion < 2:
        raise ClusteringError(f"expansion must be >= 2, got {expansion}")
    if loop_weight < 0:
        raise ClusteringError(f"loop_weight must be non-negative, got {loop_weight}")
    n = graph.n_nodes
    src, dst, prob = graph.edge_src, graph.edge_dst, graph.edge_prob
    rows = np.concatenate([src, dst, np.arange(n)])
    cols = np.concatenate([dst, src, np.arange(n)])
    data = np.concatenate([prob, prob, np.full(n, loop_weight, dtype=np.float64)])
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()
    matrix = _normalize_columns(matrix)

    converged = False
    n_iterations = 0
    for iteration in range(1, max_iterations + 1):
        n_iterations = iteration
        expanded = matrix
        for _ in range(expansion - 1):
            expanded = (expanded @ matrix).tocsc()
            if max_nnz is not None and expanded.nnz > max_nnz:
                raise MemoryError(
                    f"mcl expansion produced {expanded.nnz} stored entries "
                    f"(limit {max_nnz}); inflation={inflation} is too low for "
                    "this graph size"
                )
        new_matrix = _inflate(expanded, inflation, prune_threshold)
        delta = abs(new_matrix - matrix)
        change = delta.max() if delta.nnz else 0.0
        matrix = new_matrix
        if change <= tolerance:
            converged = True
            break

    clustering = _interpret(matrix, n)
    return MCLResult(
        clustering=clustering,
        inflation=inflation,
        n_iterations=n_iterations,
        converged=converged,
    )


def _interpret(matrix: sp.csc_matrix, n: int) -> Clustering:
    """Extract clusters and attractor centers from the converged matrix.

    Clusters are the weakly connected components of the support graph of
    the flow matrix (the standard mcl interpretation).  Attractors are
    nodes with positive return flow (``M[i, i] > 0``); each cluster's
    center is its attractor with the largest total incoming flow.
    """
    coo = matrix.tocoo()
    keep = coo.data > 0.0
    rows, cols = coo.row[keep], coo.col[keep]
    labels = connected_component_labels(n, rows.astype(np.intp), cols.astype(np.intp))
    n_clusters = int(labels.max()) + 1 if n else 0

    diag = matrix.diagonal()
    incoming = np.asarray(matrix.sum(axis=1)).ravel()
    # Prefer attractors; break ties by incoming flow, then by index.
    score = np.where(diag > 0.0, 1.0, 0.0) * (1.0 + incoming)
    centers = np.empty(n_clusters, dtype=np.intp)
    for cluster in range(n_clusters):
        members = np.flatnonzero(labels == cluster)
        best = members[np.argmax(score[members] + incoming[members] * 1e-9)]
        centers[cluster] = best
    assignment = labels.astype(np.int32)
    return Clustering(n, centers, assignment)
