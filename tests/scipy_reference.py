"""Block-diagonal scipy world labeler: the reference the labeler is pinned against.

Stacks the ``r`` sampled worlds into one block-diagonal sparse
adjacency with ``r * n`` vertices, labels every world with a single
:func:`scipy.sparse.csgraph.connected_components` call, and renumbers
the labels to the canonical min-node-index form.  It shares no code
with :class:`repro.sampling.backends.UnionFindWorldBackend`, so the
suites compare ``component_labels`` and ``repair_labels`` against it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.graph.uncertain_graph import UncertainGraph


def scipy_component_labels(graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
    """Canonical ``(r, n)`` int32 labels of every world in ``masks``.

    Examples
    --------
    >>> g = UncertainGraph.from_edges([(0, 1, 0.9), (2, 3, 0.9)])
    >>> scipy_component_labels(g, np.array([[True, False], [True, True]]))
    array([[0, 0, 2, 3],
           [0, 0, 2, 2]], dtype=int32)
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2 or masks.shape[1] != graph.n_edges:
        raise ValueError(f"masks must have shape (r, {graph.n_edges}), got {masks.shape}")
    r, n = masks.shape[0], graph.n_nodes
    if r == 0 or n == 0:
        return np.empty((r, n), dtype=np.int32)
    world_idx, edge_idx = np.nonzero(masks)
    offset = world_idx.astype(np.int64) * n
    bsrc = graph.edge_src[edge_idx].astype(np.int64) + offset
    bdst = graph.edge_dst[edge_idx].astype(np.int64) + offset
    total = r * n
    data = np.ones(len(bsrc), dtype=np.int8)
    matrix = sp.coo_matrix((data, (bsrc, bdst)), shape=(total, total))
    _, flat = csgraph.connected_components(matrix, directed=False)
    # Canonicalize: the component's smallest block index is its first
    # occurrence in flat order (blocks are node-ordered), so a reversed
    # scatter leaves the earliest index per component.
    first = np.empty(int(flat.max()) + 1, dtype=np.int64)
    indices = np.arange(total, dtype=np.int64)
    first[flat[::-1]] = indices[::-1]
    return (first[flat] % n).reshape(r, n).astype(np.int32)


class ScipyReferenceLabeler:
    """:func:`scipy_component_labels` behind the labeler's method names.

    ``repair_labels`` ignores its hints and relabels the given worlds
    from scratch: the full relabel the union-find repair must equal.
    """

    name = "scipy"

    def component_labels(self, graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
        return scipy_component_labels(graph, masks)

    def repair_labels(self, graph, masks, old_labels, affected) -> np.ndarray:
        return scipy_component_labels(graph, masks)
