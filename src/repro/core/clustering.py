"""Clustering result type shared by every algorithm in the package.

A (possibly partial) k-clustering is a set of ``k`` distinct *centers*
plus an *assignment* of each node to a cluster index, with ``-1``
marking uncovered nodes (partial clusterings leave outliers uncovered;
see Section 3.1 of the paper).  By definition each center belongs to its
own cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ClusteringError

UNCOVERED = -1


@dataclass(frozen=True)
class Clustering:
    """A (partial) k-clustering with distinguished centers.

    Attributes
    ----------
    n_nodes:
        Number of nodes in the underlying graph.
    centers:
        Array of ``k`` distinct node indices; ``centers[i]`` is the
        center of cluster ``i``.
    assignment:
        Array of length ``n_nodes``; ``assignment[u]`` is the cluster
        index of ``u`` or ``UNCOVERED`` (-1).
    center_connection:
        Optional per-node estimated connection probability to the
        assigned center (0 for uncovered nodes).  Carried along so
        objective values can be reported without re-querying an oracle.
    """

    n_nodes: int
    centers: np.ndarray
    assignment: np.ndarray
    center_connection: np.ndarray | None = field(default=None)

    def __post_init__(self):
        centers = np.ascontiguousarray(self.centers, dtype=np.intp)
        assignment = np.ascontiguousarray(self.assignment, dtype=np.int32)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "assignment", assignment)
        if self.center_connection is not None:
            probs = np.ascontiguousarray(self.center_connection, dtype=np.float64)
            object.__setattr__(self, "center_connection", probs)
        self._validate()

    def _validate(self):
        k = len(self.centers)
        if k == 0:
            raise ClusteringError("a clustering needs at least one center")
        ordered = np.sort(self.centers)
        if (ordered[1:] == ordered[:-1]).any():
            raise ClusteringError("cluster centers must be distinct")
        if self.centers.min() < 0 or self.centers.max() >= self.n_nodes:
            raise ClusteringError("center indices out of range")
        if self.assignment.shape != (self.n_nodes,):
            raise ClusteringError(
                f"assignment must have shape ({self.n_nodes},), got {self.assignment.shape}"
            )
        if self.assignment.min() < UNCOVERED or self.assignment.max() >= k:
            raise ClusteringError("assignment values must lie in [-1, k)")
        own = self.assignment[self.centers]
        expected = np.arange(k)
        if not np.array_equal(own, expected):
            bad = int(self.centers[np.flatnonzero(own != expected)[0]])
            raise ClusteringError(f"center {bad} is not assigned to its own cluster")
        if self.center_connection is not None:
            if self.center_connection.shape != (self.n_nodes,):
                raise ClusteringError("center_connection must have one entry per node")
            if np.any(self.center_connection < 0) or np.any(self.center_connection > 1):
                raise ClusteringError("center_connection values must lie in [0, 1]")

    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of clusters."""
        return len(self.centers)

    @property
    def covered_mask(self) -> np.ndarray:
        """Boolean mask of covered nodes."""
        return self.assignment != UNCOVERED

    @property
    def n_covered(self) -> int:
        return int(np.count_nonzero(self.covered_mask))

    @property
    def covers_all(self) -> bool:
        """Whether this is a *full* k-clustering."""
        return self.n_covered == self.n_nodes

    def clusters(self) -> list[np.ndarray]:
        """Member node indices of each cluster (centers included)."""
        order = np.argsort(self.assignment, kind="stable")
        sorted_assignment = self.assignment[order]
        start = int(np.searchsorted(sorted_assignment, 0))
        members = order[start:]
        bounds = np.searchsorted(sorted_assignment[start:], np.arange(self.k + 1))
        return [members[bounds[i]:bounds[i + 1]] for i in range(self.k)]

    def cluster_sizes(self) -> np.ndarray:
        """Number of nodes per cluster."""
        covered = self.assignment[self.assignment != UNCOVERED]
        return np.bincount(covered, minlength=self.k)

    def center_of(self, node: int) -> int:
        """Center index of ``node``'s cluster (raises if uncovered)."""
        cluster = int(self.assignment[node])
        if cluster == UNCOVERED:
            raise ClusteringError(f"node {node} is uncovered")
        return int(self.centers[cluster])

    # Objective values (from the carried estimates) -------------------

    def min_prob(self) -> float:
        """``min-prob`` (Eq. 1) over covered nodes, from carried estimates."""
        if self.center_connection is None:
            raise ClusteringError("clustering carries no connection estimates")
        covered = self.covered_mask
        if not covered.any():
            return 0.0
        return float(self.center_connection[covered].min())

    def avg_prob(self) -> float:
        """``avg-prob`` (Eq. 2): average over *all* nodes, uncovered = 0."""
        if self.center_connection is None:
            raise ClusteringError("clustering carries no connection estimates")
        values = np.where(self.covered_mask, self.center_connection, 0.0)
        return float(values.mean())

    def relabel_by_size(self) -> "Clustering":
        """Return an equivalent clustering with clusters sorted by size (desc)."""
        sizes = self.cluster_sizes()
        order = np.argsort(-sizes, kind="stable")
        inverse = np.empty_like(order)
        inverse[order] = np.arange(self.k)
        new_assignment = np.where(
            self.assignment == UNCOVERED, UNCOVERED, inverse[np.maximum(self.assignment, 0)]
        )
        return Clustering(
            self.n_nodes,
            self.centers[order],
            new_assignment,
            self.center_connection,
        )

    def __repr__(self) -> str:
        return (
            f"Clustering(k={self.k}, n_nodes={self.n_nodes}, "
            f"covered={self.n_covered}/{self.n_nodes})"
        )


def complete_clustering(clustering: Clustering, center_rows: np.ndarray) -> Clustering:
    """Turn a partial clustering into a full one.

    Uncovered nodes are assigned to the center with the highest
    estimated connection probability (``center_rows[i]`` is the
    connection-probability row of center ``i``).  This is the
    "completion" step of Algorithm 3; assigning to the *best* center
    only improves on the arbitrary assignment the analysis allows.
    """
    if clustering.covers_all:
        return clustering
    center_rows = np.asarray(center_rows, dtype=np.float64)
    if center_rows.shape != (clustering.k, clustering.n_nodes):
        raise ClusteringError(
            f"center_rows must have shape ({clustering.k}, {clustering.n_nodes}), "
            f"got {center_rows.shape}"
        )
    assignment = clustering.assignment.copy()
    uncovered = np.flatnonzero(assignment == UNCOVERED)
    best = np.argmax(center_rows[:, uncovered], axis=0)
    assignment[uncovered] = best
    if clustering.center_connection is not None:
        probs = clustering.center_connection.copy()
    else:
        probs = np.zeros(clustering.n_nodes)
    probs[uncovered] = center_rows[best, uncovered]
    return Clustering(clustering.n_nodes, clustering.centers, assignment, probs)
