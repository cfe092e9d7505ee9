"""Per-world centrality kernels shared by the MC and exact estimators.

Each kernel maps a batch of sampled worlds — an ``(r, m)`` boolean edge
mask matrix — to an ``(r, n)`` float64 matrix of per-node values, one
row per world.  The Monte Carlo estimator
(:func:`repro.workloads.centrality.expected_centrality`) averages these
rows over the pool; the exact reference
(:func:`repro.workloads.exact.exact_expected_centrality`) weights them
by world probability.  Sharing one kernel per measure means the two
paths cannot disagree about what a measure *is* — only about how worlds
are weighted.

Measures
--------
``degree``
    Number of present incident edges.  One sparse product per batch.
``harmonic``
    Harmonic closeness ``(1/(n-1)) * sum_u 1/d(v, u)`` with
    ``1/inf = 0`` for unreachable pairs — the standard centrality that
    stays well defined on the disconnected worlds uncertain graphs
    routinely produce.  The packed multi-source BFS
    (:mod:`repro.sampling.worlds`) walks the batch's mask columns, 64
    worlds per word, a batch of sources at a time, and yields narrow
    per-world level codes that index a ``1/d`` table directly.
``betweenness``
    Brandes shortest-path betweenness (unordered pairs, endpoints
    excluded).  Computed per world in ``O(n * m)`` each — exact and
    simple, but by far the most expensive measure; intended for the
    small graphs the workload suite and its enumeration ground truth
    target.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import scipy.sparse as sp

from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.backends.unionfind import validate_masks
from repro.sampling.store import pack_mask_columns
from repro.sampling.worlds import _packed_bfs_codes

#: Valid ``measure=`` names, in the order the CLI/API document them.
MEASURE_NAMES = ("degree", "harmonic", "betweenness")


def world_degrees(graph: UncertainGraph, masks) -> np.ndarray:
    """Per-world node degrees, shape ``(r, n)``.

    Examples
    --------
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    >>> world_degrees(g, [[True, True], [True, False]]).tolist()
    [[1.0, 2.0, 1.0], [1.0, 1.0, 0.0]]
    """
    masks = validate_masks(graph, masks)
    r = masks.shape[0]
    n, m = graph.n_nodes, graph.n_edges
    if m == 0:
        return np.zeros((r, n), dtype=np.float64)
    incidence = sp.csr_matrix(
        (
            np.ones(2 * m, dtype=np.float64),
            (
                np.concatenate([np.arange(m), np.arange(m)]),
                np.concatenate([graph.edge_src, graph.edge_dst]),
            ),
        ),
        shape=(m, n),
    )
    return np.asarray((incidence.T @ masks.astype(np.float64).T).T)


def world_harmonic(graph: UncertainGraph, masks) -> np.ndarray:
    """Per-world harmonic closeness, shape ``(r, n)``.

    ``value[i, v] = (1/(n-1)) * sum_{u != v} 1/d_i(v, u)`` with
    unreachable pairs contributing 0; values lie in ``[0, 1]``.

    Examples
    --------
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    >>> world_harmonic(g, [[True, True]]).round(2).tolist()  # path 0-1-2
    [[0.75, 1.0, 0.75]]
    """
    masks = validate_masks(graph, masks)
    return packed_world_harmonic(graph, pack_mask_columns(masks), masks.shape[0])


def packed_world_harmonic(graph: UncertainGraph, packed_cols: np.ndarray, r: int) -> np.ndarray:
    """:func:`world_harmonic` of ``r`` worlds given as the store's packed
    ``(m, packed_words(r))`` mask columns, which the BFS walks as is.

    Each world's row depends on that world alone, so the values do not
    depend on how worlds are grouped into blocks.

    Examples
    --------
    >>> from repro.sampling.store import pack_mask_columns
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    >>> cols = pack_mask_columns([[True, True], [True, False]])
    >>> packed_world_harmonic(g, cols, 2).round(2).tolist()
    [[0.75, 1.0, 0.75], [0.5, 0.5, 0.0]]
    """
    n = graph.n_nodes
    values = np.zeros((r, n), dtype=np.float64)
    if n <= 1 or r == 0:
        return values
    # 1/d per level code d + 1; code 0 (unreached, or the source) is 0.
    inverse = np.zeros(n + 1, dtype=np.float64)
    inverse[2:] = 1.0 / np.arange(1, n, dtype=np.float64)
    for lo, hi, codes in _packed_bfs_codes(graph, packed_cols, r, np.arange(n)):
        # Each source's (r, n) block is C-contiguous and summed along its
        # rows, so the float summation order matches a per-source BFS.
        values[:, lo:hi] = inverse[codes].sum(axis=2).T
    values /= n - 1
    return values


def world_betweenness(graph: UncertainGraph, masks) -> np.ndarray:
    """Per-world Brandes betweenness over unordered pairs, shape ``(r, n)``.

    Examples
    --------
    >>> g = UncertainGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    >>> world_betweenness(g, [[True, True, True]]).tolist()  # path 0-1-2-3
    [[0.0, 2.0, 2.0, 0.0]]
    """
    masks = validate_masks(graph, masks)
    r = masks.shape[0]
    n = graph.n_nodes
    values = np.zeros((r, n), dtype=np.float64)
    edge_src, edge_dst = graph.edge_src, graph.edge_dst
    for world in range(r):
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for edge in np.flatnonzero(masks[world]):
            u, v = int(edge_src[edge]), int(edge_dst[edge])
            adjacency[u].append(v)
            adjacency[v].append(u)
        values[world] = _brandes(adjacency, n)
    return values


def _brandes(adjacency: list[list[int]], n: int) -> np.ndarray:
    """Betweenness of one unweighted world (Brandes 2001), halved so
    each unordered pair counts once."""
    centrality = np.zeros(n, dtype=np.float64)
    for source in range(n):
        order: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n, dtype=np.float64)
        sigma[source] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n, dtype=np.float64)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != source:
                centrality[w] += delta[w]
    return centrality / 2.0


#: Kernel registry keyed by measure name.
MEASURE_KERNELS = {
    "degree": world_degrees,
    "harmonic": world_harmonic,
    "betweenness": world_betweenness,
}

#: Distance measures: their kernels run the packed BFS, which costs the
#: same for 1 or 64 worlds.  Mapped to their entry on packed mask
#: columns; the Monte Carlo estimator books it as the oracle's distance
#: phase.
DISTANCE_KERNELS = {
    "harmonic": packed_world_harmonic,
}
