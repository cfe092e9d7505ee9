"""Exact connection probabilities by possible-world enumeration.

Two-terminal reliability is #P-complete, so exact computation is only
feasible for toy graphs; :class:`ExactOracle` enumerates all ``2^m``
assignments of the *uncertain* edges (edges with ``p = 1`` are folded in
as always present).  It exists to

* validate the Monte Carlo oracle in tests,
* check the triangle inequality (Theorem 1) and its depth-limited
  analogue (Eq. 6) property-based style, and
* compute brute-force optimal clusterings (``repro.core.bruteforce``)
  against which the approximation guarantees are asserted.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.exceptions import OracleError
from repro.graph.components import UnionFind
from repro.graph.traversal import bfs_distances
from repro.graph.uncertain_graph import UncertainGraph

_DEFAULT_MAX_UNCERTAIN_EDGES = 22


def enumerate_worlds(graph: UncertainGraph, *, max_uncertain_edges: int = _DEFAULT_MAX_UNCERTAIN_EDGES) -> Iterator[tuple[np.ndarray, float]]:
    """Yield every possible world as ``(edge_mask, probability)``.

    Edges with probability exactly 1 are present in every world and are
    not enumerated over.  Worlds are yielded in increasing order of the
    bitmask over uncertain edges; probabilities sum to 1.
    """
    prob = graph.edge_prob
    uncertain = np.flatnonzero(prob < 1.0)
    if len(uncertain) > max_uncertain_edges:
        raise OracleError(
            f"{len(uncertain)} uncertain edges would require 2^{len(uncertain)} worlds; "
            f"limit is {max_uncertain_edges}"
        )
    base_mask = prob >= 1.0
    p_uncertain = prob[uncertain]
    for bits in range(1 << len(uncertain)):
        mask = base_mask.copy()
        world_prob = 1.0
        for position, edge_id in enumerate(uncertain):
            if bits >> position & 1:
                mask[edge_id] = True
                world_prob *= p_uncertain[position]
            else:
                world_prob *= 1.0 - p_uncertain[position]
        yield mask, world_prob


class ExactOracle:
    """Exact (d-)connection probabilities for small uncertain graphs.

    Presents the same query interface as
    :class:`repro.sampling.oracle.MonteCarloOracle` (``connection``,
    ``connection_to_all``, ``pairwise_matrix``) so the clustering
    algorithms can run against it unchanged; ``ensure_samples`` is a
    no-op for signature compatibility.
    """

    def __init__(self, graph: UncertainGraph, *, max_uncertain_edges: int = _DEFAULT_MAX_UNCERTAIN_EDGES):
        self._graph = graph
        self._max_uncertain_edges = max_uncertain_edges
        self._matrices: dict[int | None, np.ndarray] = {}
        self._distances: np.ndarray | None = None

    @property
    def graph(self) -> UncertainGraph:
        return self._graph

    @property
    def n_nodes(self) -> int:
        return self._graph.n_nodes

    @property
    def num_samples(self) -> int:
        """Exact oracles behave as if they had infinitely many samples."""
        return np.iinfo(np.int64).max

    def ensure_samples(self, r: int) -> None:
        """No-op: the oracle is exact."""

    def _matrix(self, depth: int | None) -> np.ndarray:
        cached = self._matrices.get(depth)
        if cached is not None:
            return cached
        graph = self._graph
        n = graph.n_nodes
        matrix = np.zeros((n, n), dtype=np.float64)
        for mask, world_prob in enumerate_worlds(graph, max_uncertain_edges=self._max_uncertain_edges):
            if world_prob == 0.0:
                continue
            if depth is None:
                uf = UnionFind(n)
                uf.union_edges(graph.edge_src[mask], graph.edge_dst[mask])
                labels = uf.labels()
                same = labels[:, None] == labels[None, :]
            else:
                same = np.zeros((n, n), dtype=bool)
                for source in range(n):
                    dist = bfs_distances(graph, source, max_depth=depth, edge_mask=mask)
                    same[source] = dist >= 0
            matrix += world_prob * same
        # Accumulated world probabilities can overshoot 1 by an ulp.
        np.clip(matrix, 0.0, 1.0, out=matrix)
        np.fill_diagonal(matrix, 1.0)
        self._matrices[depth] = matrix
        return matrix

    def connection(self, u: int, v: int, depth: int | None = None) -> float:
        """Exact (d-)connection probability between ``u`` and ``v``."""
        u, v = self._graph.node_indices([u, v])
        return float(self._matrix(depth)[u, v])

    def connection_to_all(self, node: int, depth: int | None = None) -> np.ndarray:
        """Exact (d-)connection probabilities from ``node`` to every node."""
        (node,) = self._graph.node_indices([node])
        return self._matrix(depth)[node].copy()

    def pairwise_matrix(self, nodes=None, depth: int | None = None) -> np.ndarray:
        """Exact pairwise (d-)connection matrix over ``nodes``."""
        if nodes is None:
            return self._matrix(depth).copy()
        nodes = self._graph.node_indices(nodes)
        return self._matrix(depth)[np.ix_(nodes, nodes)]

    def expected_distances(self, sources=None) -> np.ndarray:
        """Exact expected hop distances, disconnection counting ``n_nodes``.

        Same contract as
        :meth:`repro.sampling.oracle.MonteCarloOracle.expected_distances`
        (the ``(s, n)`` matrix, the disconnection penalty of ``n``), so
        the workload drivers in :mod:`repro.workloads` run against this
        oracle unchanged and become exact.
        """
        rows = self._graph.node_indices(sources)
        if self._distances is None:
            graph = self._graph
            n = graph.n_nodes
            matrix = np.zeros((n, n), dtype=np.float64)
            for mask, world_prob in enumerate_worlds(
                graph, max_uncertain_edges=self._max_uncertain_edges
            ):
                if world_prob == 0.0:
                    continue
                for source in range(n):
                    dist = bfs_distances(graph, source, edge_mask=mask).astype(np.float64)
                    dist[dist < 0] = float(n)
                    matrix[source] += world_prob * dist
            self._distances = matrix
        return self._distances[rows]

    def __repr__(self) -> str:
        return f"ExactOracle(n_nodes={self._graph.n_nodes}, n_edges={self._graph.n_edges})"
