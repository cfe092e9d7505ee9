"""Vectorized union-find world labeling.

Labels all ``r`` worlds of a sampled mask chunk — an ``(r, m)``
boolean edge-mask matrix — **without ever materializing an**
``(r*n, r*n)`` **block-diagonal sparse matrix**.  The state is a single
flat parent array over the ``r * n`` block vertices; hooking and
compression are whole-array numpy operations, so the per-edge constant
is a handful of vectorized passes.  This is the hot path of
:class:`repro.sampling.oracle.MonteCarloOracle`: every progressive
sampling step funnels its freshly drawn masks through exactly one
:meth:`UnionFindWorldBackend.component_labels` call.

Canonical labeling contract
---------------------------
``component_labels(graph, masks)`` returns an ``(r, n)`` int32 array
with ``labels[i, v]`` the **smallest node index in the connected
component of** ``v`` **in world** ``i``.  The labels are a pure function
of ``(graph, masks)`` and the masks are sampled once by the oracle (the
labeler never consumes RNG state), so every downstream quantity —
``connection_to_all``, ``pairwise_matrix``, MCP/ACP clusterings — is a
pure function of the seed.  ``tests/test_backends.py`` pins the labels
against an independent block-diagonal ``scipy`` reference.

Incremental relabeling
----------------------
``repair_labels(graph, masks, old_labels, affected)`` is the
delta-derivation fast path (:mod:`repro.sampling.deltas`).  ``masks``
are the post-delta edge masks of the worlds needing repair,
``old_labels`` their pre-delta canonical labels, and ``affected`` an
``(r, n)`` boolean matrix marking every node whose pre-delta component
contains an endpoint of a flipped edge.  The contract: the result is
**bit-identical** to ``component_labels(graph, masks)`` — incrementality
is an optimization, never a different answer.  The caller guarantees
that no post-delta present edge joins an affected node to an unaffected
one (flipped edges' endpoints are affected by construction, and
unflipped present edges connect nodes of one pre-delta component, which
is affected either wholly or not at all) — which is what makes
component-local repair sound.

The algorithm
-------------
The scatter-min variant of parallel union-find used by GPU
connected-components kernels (hook to the smaller label, then path
halving), adapted to numpy:

1. **First hook.**  ``parent`` starts as the identity and edges are
   stored with ``src < dst``, so the first round needs no root lookups
   at all — it is a single conflict-resolving ``np.minimum.at`` scatter.
2. **Iterate.**  While some edge still straddles two trees: gather both
   endpoint parents, hook the larger onto the smaller (scatter-min),
   and apply one path-halving pass (``parent = parent[parent]``).
   Hooked parents only ever decrease and every written value stays
   inside the true component, so the iteration converges to one root
   per component — necessarily the component's smallest block index.
3. **Compress.**  Path-halve to idempotence and subtract the block
   offsets, yielding the canonical min-node-index labels.

Worlds are processed in sub-batches (default ≤ 64) so the parent array
stays cache-resident; per-world independence makes the split invisible
in the output.
"""

from __future__ import annotations

import numpy as np

from repro.graph.uncertain_graph import UncertainGraph

# Worlds per internal labeling batch.  Small batches keep the flat
# parent array (and the per-batch edge arrays) inside the CPU cache;
# measured sweet spot on benchmarks/test_bench_backends.py substrates.
_DEFAULT_WORLD_BATCH = 64

# The flat block domain is indexed with int32; one batch must satisfy
# batch * n_nodes < 2**31.
_INT32_LIMIT = 2**31 - 1


def validate_masks(graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
    """Coerce ``masks`` to a boolean ``(r, m)`` matrix for ``graph``."""
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2 or masks.shape[1] != graph.n_edges:
        raise ValueError(
            f"masks must have shape (r, {graph.n_edges}), got {masks.shape}"
        )
    return masks


class UnionFindWorldBackend:
    """Label worlds via whole-chunk vectorized union-find.

    Parameters
    ----------
    world_batch:
        Maximum worlds labeled per internal pass (cache-size tuning
        knob; the output is independent of it).

    Examples
    --------
    >>> from repro.graph.uncertain_graph import UncertainGraph
    >>> g = UncertainGraph.from_edges([(0, 1, 0.9), (2, 3, 0.9)])
    >>> masks = np.array([[True, False], [True, True]])
    >>> UnionFindWorldBackend().component_labels(g, masks)
    array([[0, 0, 2, 3],
           [0, 0, 2, 2]], dtype=int32)
    """

    name = "unionfind"

    def __init__(self, *, world_batch: int = _DEFAULT_WORLD_BATCH):
        if world_batch <= 0:
            raise ValueError(f"world_batch must be positive, got {world_batch}")
        self._world_batch = int(world_batch)

    def component_labels(self, graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
        masks = validate_masks(graph, masks)
        r, n = masks.shape[0], graph.n_nodes
        if r == 0 or n == 0:
            return np.empty((r, n), dtype=np.int32)
        batch = self._world_batch
        if batch * n > _INT32_LIMIT:
            batch = max(1, _INT32_LIMIT // max(n, 1))
        if r <= batch:
            return self._label_batch(graph, masks)
        chunks = [
            self._label_batch(graph, masks[start:start + batch])
            for start in range(0, r, batch)
        ]
        return np.concatenate(chunks, axis=0)

    def repair_labels(
        self,
        graph: UncertainGraph,
        masks: np.ndarray,
        old_labels: np.ndarray,
        affected: np.ndarray,
    ) -> np.ndarray:
        """Component-local union-find repair (the incremental path).

        Instead of relabeling the whole worlds, the union-find runs only
        over edge instances whose world-local component actually changed:
        an edge is *allowed* iff it is present in the post-delta mask
        **and** its endpoint lies in an affected component.  Nodes
        outside the affected components keep their old labels; affected
        nodes get fresh canonical min-node labels from the restricted
        union-find (unaffected nodes come out of it as singletons and
        are immediately overwritten by their old labels).

        Soundness rests on the caller's guarantee (see the module's
        incremental relabeling contract) that no present post-delta edge
        crosses the affected/unaffected boundary — so testing one
        endpoint per edge suffices, and the restricted components equal
        the full relabeling's components.  Pinned bit-identical against
        the scipy full-relabel reference by ``tests/test_deltas.py``.
        """
        masks = validate_masks(graph, masks)
        r, n = masks.shape[0], graph.n_nodes
        old_labels = np.ascontiguousarray(old_labels, dtype=np.int32)
        affected = np.asarray(affected, dtype=bool)
        if old_labels.shape != (r, n) or affected.shape != (r, n):
            raise ValueError(
                f"old_labels and affected must have shape ({r}, {n}), got "
                f"{old_labels.shape} and {affected.shape}"
            )
        if r == 0 or n == 0:
            return old_labels.copy()
        allowed = masks & affected[:, graph.edge_src]
        fresh = self.component_labels(graph, allowed)
        return np.where(affected, fresh, old_labels)

    @staticmethod
    def _label_batch(graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
        r, n = masks.shape[0], graph.n_nodes
        world_idx, edge_idx = np.nonzero(masks)
        offset = world_idx.astype(np.int32)
        offset *= np.int32(n)
        src = graph.edge_src[edge_idx].astype(np.int32)
        src += offset
        dst = graph.edge_dst[edge_idx].astype(np.int32)
        dst += offset
        parent = np.arange(r * n, dtype=np.int32)
        if len(src):
            # First hook: parent is the identity and src < dst holds
            # elementwise, so hooking is a bare scatter-min.
            np.minimum.at(parent, dst, src)
            parent = parent[parent]
            while True:
                ps = parent[src]
                pd = parent[dst]
                if np.array_equal(ps, pd):
                    break
                np.minimum.at(parent, np.maximum(ps, pd), np.minimum(ps, pd))
                parent = parent[parent]
        # Compress to idempotence: every vertex points at its root.
        while True:
            hopped = parent[parent]
            if np.array_equal(hopped, parent):
                break
            parent = hopped
        labels = parent.reshape(r, n)
        labels -= np.arange(0, r * n, n, dtype=np.int32)[:, None]
        return labels
