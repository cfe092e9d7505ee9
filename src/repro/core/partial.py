"""``min-partial`` — Algorithm 1 (and its depth-limited variant, Algorithm 4).

Given a probability threshold ``q``, ``min_partial`` greedily selects up
to ``k`` centers and covers every node whose (estimated) connection
probability to some selected center is at least the coverage threshold.
Nodes below the threshold for *all* centers remain uncovered (outliers).

Design parameters (Section 3.1):

``alpha``
    Size of the candidate pool ``T`` examined per iteration.  With
    ``alpha = 1`` the next center is an arbitrary uncovered node (the
    fast path used by the MCP algorithm and the paper's practical ACP
    configuration).  With ``alpha = n`` every uncovered node is scored
    and the one covering the most uncovered nodes at threshold
    ``q_bar`` wins (the theoretical ACP configuration, Lemma 4).
``q_bar``
    Selection threshold for the greedy score, in ``[q, 1]``.

Monte Carlo integration (Section 4.1): with approximation parameter
``eps`` the thresholds are relaxed to ``(1 - eps/2) * q_bar`` for
selection and ``(1 - eps/2) * q`` for coverage, so that true
probabilities ``>= q`` are kept and true probabilities ``< (1 - eps) q``
are rejected, with high probability.

Depth limits (Algorithm 4): ``depth`` bounds the path length for
coverage disks and ``inner_depth`` (``d'`` in the paper) the one for
selection disks; the MCP variant uses ``inner_depth = depth`` and the
theoretical ACP variant ``inner_depth = depth // 3``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clustering import UNCOVERED, Clustering
from repro.exceptions import ClusteringError
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class MinPartialResult:
    """Outcome of one ``min_partial`` run.

    ``center_rows`` holds the coverage-depth connection-probability row
    of every center (shape ``(k, n)``) so callers can complete the
    clustering or recompute objectives without re-querying the oracle.
    ``n_loop_centers`` counts centers chosen by the greedy loop (the
    remainder were padding, line 11 of Algorithm 1).
    """

    clustering: Clustering
    center_rows: np.ndarray
    q: float
    q_bar: float
    alpha: int
    eps: float
    depth: int | None
    inner_depth: int | None
    n_loop_centers: int

    @property
    def covers_all(self) -> bool:
        return self.clustering.covers_all


def _select_center(oracle, uncovered_idx, candidates, threshold, inner_depth, uncovered_mask):
    """Greedy choice: candidate covering the most uncovered nodes at ``threshold``."""
    if len(candidates) == 1:
        return int(candidates[0])
    if len(candidates) == len(uncovered_idx):
        # alpha >= |V'|: score all uncovered nodes against each other with
        # one pairwise pass instead of per-candidate full rows.
        matrix = oracle.pairwise_matrix(uncovered_idx, depth=inner_depth)
        scores = (matrix >= threshold).sum(axis=1)
        return int(uncovered_idx[int(np.argmax(scores))])
    best_node = int(candidates[0])
    best_score = -1
    for node in candidates:
        row = oracle.connection_to_all(int(node), depth=inner_depth)
        score = int(np.count_nonzero(uncovered_mask & (row >= threshold)))
        if score > best_score:
            best_score = score
            best_node = int(node)
    return best_node


def min_partial(
    oracle,
    k: int,
    q: float,
    *,
    alpha: int = 1,
    q_bar: float | None = None,
    eps: float = 0.0,
    rng=None,
    depth: int | None = None,
    inner_depth: int | None = None,
) -> MinPartialResult:
    """Algorithm 1 / Algorithm 4: maximal partial k-clustering at threshold ``q``.

    Parameters
    ----------
    oracle:
        Connection-probability oracle (Monte Carlo or exact); must
        already hold enough samples for the caller's accuracy needs.
    k:
        Number of clusters, ``1 <= k < n``.
    q:
        Coverage threshold in ``(0, 1]``.
    alpha, q_bar, eps, depth, inner_depth:
        See module docstring.
    rng:
        Drives the "arbitrary" choices (candidate pool and padding).

    Returns
    -------
    MinPartialResult
        Partial clustering where every covered node has estimated
        connection probability ``>= (1 - eps/2) q`` to its center, and
        every uncovered node is below that threshold for *all* loop
        centers (maximality).
    """
    n = oracle.n_nodes
    if not 1 <= k < n:
        raise ClusteringError(f"k must satisfy 1 <= k < n_nodes ({n}), got {k}")
    if not 0 < q <= 1:
        raise ClusteringError(f"q must be in (0, 1], got {q}")
    if q_bar is None:
        q_bar = q
    if not q <= q_bar <= 1:
        raise ClusteringError(f"q_bar must lie in [q, 1] = [{q}, 1], got {q_bar}")
    if alpha < 1:
        raise ClusteringError(f"alpha must be >= 1, got {alpha}")
    if not 0 <= eps < 1:
        raise ClusteringError(f"eps must be in [0, 1), got {eps}")
    if depth is None and inner_depth is not None:
        raise ClusteringError("inner_depth requires depth to be set")
    if depth is not None and inner_depth is None:
        inner_depth = depth
    rng = ensure_rng(rng)

    coverage_threshold = (1.0 - eps / 2.0) * q
    selection_threshold = (1.0 - eps / 2.0) * q_bar

    uncovered = np.ones(n, dtype=bool)
    centers: list[int] = []
    rows: list[np.ndarray] = []

    for _ in range(k):
        uncovered_idx = np.flatnonzero(uncovered)
        if len(uncovered_idx) == 0:
            break
        pool_size = min(alpha, len(uncovered_idx))
        if pool_size == len(uncovered_idx):
            candidates = uncovered_idx
        else:
            candidates = rng.choice(uncovered_idx, size=pool_size, replace=False)
        center = _select_center(
            oracle, uncovered_idx, candidates, selection_threshold, inner_depth, uncovered
        )
        row = oracle.connection_to_all(center, depth=depth)
        centers.append(center)
        rows.append(row)
        uncovered &= ~(row >= coverage_threshold)

    n_loop_centers = len(centers)

    # Line 10-11: pad with arbitrary non-center nodes if the loop ran out
    # of uncovered nodes before selecting k centers.
    if n_loop_centers < k:
        is_center = np.zeros(n, dtype=bool)
        is_center[centers] = True
        non_centers = np.flatnonzero(~is_center)
        extra = rng.choice(non_centers, size=k - n_loop_centers, replace=False)
        for center in extra:
            centers.append(int(center))
            rows.append(oracle.connection_to_all(int(center), depth=depth))

    center_rows = np.vstack(rows)
    covered = ~uncovered

    # Line 12: assign each covered node to its best-connected center
    # (c(u, S) in the paper; with estimates, the argmax of p~).
    assignment = np.full(n, UNCOVERED, dtype=np.int32)
    best_center = np.argmax(center_rows, axis=0)
    assignment[covered] = best_center[covered]
    # Centers always belong to their own cluster (ties at probability 1
    # may otherwise land them elsewhere).
    centers_arr = np.asarray(centers, dtype=np.intp)
    assignment[centers_arr] = np.arange(k, dtype=np.int32)

    probs = np.zeros(n, dtype=np.float64)
    covered_after = assignment != UNCOVERED
    idx = np.flatnonzero(covered_after)
    probs[idx] = center_rows[assignment[idx], idx]

    clustering = Clustering(n, centers_arr, assignment, probs)
    return MinPartialResult(
        clustering=clustering,
        center_rows=center_rows,
        q=q,
        q_bar=q_bar,
        alpha=alpha,
        eps=eps,
        depth=depth,
        inner_depth=inner_depth,
        n_loop_centers=n_loop_centers,
    )
