"""Graph traversals: depth-capped BFS and shortest-path helpers.

The BFS here operates on a single deterministic graph (one possible
world, or the skeleton).  Bulk BFS across *many* sampled worlds at once
lives in :mod:`repro.sampling.worlds`, which walks the packed mask
columns 64 worlds per word.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.graph.uncertain_graph import UncertainGraph

UNREACHED = -1


def bfs_distances(
    graph: UncertainGraph,
    source: int,
    *,
    max_depth: int | None = None,
    edge_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Hop distances from ``source``; ``UNREACHED`` (-1) when unreachable.

    Parameters
    ----------
    graph:
        The uncertain graph (topology only; probabilities ignored).
    source:
        Source node index.
    max_depth:
        Stop expanding past this many hops (``None`` = unbounded).
    edge_mask:
        Optional boolean mask over edges selecting a possible world.
    """
    if not 0 <= source < graph.n_nodes:
        raise IndexError(f"source {source} out of range [0, {graph.n_nodes})")
    indptr, adj_nodes, adj_edges = graph.adjacency
    dist = np.full(graph.n_nodes, UNREACHED, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        next_frontier = []
        for u in frontier:
            start, stop = indptr[u], indptr[u + 1]
            for pos in range(start, stop):
                if edge_mask is not None and not edge_mask[adj_edges[pos]]:
                    continue
                v = adj_nodes[pos]
                if dist[v] == UNREACHED:
                    dist[v] = depth
                    next_frontier.append(int(v))
        frontier = next_frontier
    return dist


def build_csr_matrix(
    graph: UncertainGraph,
    *,
    weights: np.ndarray | None = None,
    edge_mask: np.ndarray | None = None,
) -> sp.csr_matrix:
    """Symmetric scipy CSR matrix of the graph.

    ``weights`` defaults to 1 per edge; ``edge_mask`` selects a possible
    world.  Used by the Dijkstra wrapper and by baselines.
    """
    src, dst = graph.edge_src, graph.edge_dst
    if weights is None:
        data = np.ones(graph.n_edges, dtype=np.float64)
    else:
        data = np.asarray(weights, dtype=np.float64)
        if data.shape != (graph.n_edges,):
            raise ValueError(f"weights must have shape ({graph.n_edges},), got {data.shape}")
    if edge_mask is not None:
        src, dst, data = src[edge_mask], dst[edge_mask], data[edge_mask]
    n = graph.n_nodes
    matrix = sp.coo_matrix(
        (np.concatenate([data, data]), (np.concatenate([src, dst]), np.concatenate([dst, src]))),
        shape=(n, n),
    )
    return matrix.tocsr()


def dijkstra_distances(
    graph: UncertainGraph,
    sources,
    *,
    weights: np.ndarray | None = None,
    limit: float = np.inf,
) -> np.ndarray:
    """Multi-source Dijkstra over edge ``weights``.

    Returns an array of shape ``(len(sources), n_nodes)``; unreachable
    entries are ``inf``.  Thin wrapper over
    :func:`scipy.sparse.csgraph.dijkstra` so callers do not build sparse
    matrices themselves.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.intp))
    if weights is None:
        weights = graph.log_distance_weights()
    matrix = build_csr_matrix(graph, weights=weights)
    dist = csgraph.dijkstra(matrix, directed=False, indices=sources, limit=limit)
    return np.atleast_2d(dist)
