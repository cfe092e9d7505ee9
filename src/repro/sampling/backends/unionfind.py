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

Edge instances are extracted by flat index: ``np.flatnonzero`` over
the batch's ``(b, m)`` mask gives positions ``w * m + e``, and one
``np.take`` from endpoint arrays tiled over the batch (edge ``e`` of
world ``w`` at position ``w * m + e``, already offset by ``w * n``)
turns them into block endpoints, with no per-instance world/edge
decomposition.  The tiled int32 endpoints are built once per
``component_labels`` call.  Every later gather is a ``take`` into a
buffer allocated once per batch, so the hook rounds allocate no new
index arrays.

Worlds are processed in sub-batches (default ≤ 16) so the parent array
stays cache-resident; per-world independence makes the split invisible
in the output.
"""

from __future__ import annotations

import numpy as np

from repro.graph.uncertain_graph import UncertainGraph

# Worlds per internal labeling batch.  Small batches keep the flat
# parent array and the per-batch edge arrays inside the CPU cache.
# Batch sweep, median ms per chunk at batch 4/8/16/32/64/128 (2-core
# x86-64 Xeon, 2 MiB L2 per core):
#   krogan_like(0.4), 251 worlds:  20.2 / 18.1 / 17.8 / 21.0 / 26.4 / 32.3
#   krogan_like(0.12), 251 worlds: 14.1 / 10.5 /  8.7 /  7.8 /  7.8 /  8.1
#   sparse1500, 512 worlds:        41.7 / 35.0 / 32.8 / 31.8 / 33.4 / 37.6
#   dblp_like(600), 512 worlds:    32.2 / 26.9 / 21.9 / 20.3 / 19.8 / 21.1
# 16 is fastest on the 1024-node graph, where 64 spills the cache;
# smaller graphs gain at most ~10% from 32-64.
_DEFAULT_WORLD_BATCH = 16

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
        Maximum worlds labeled per internal pass.  A cache-size
        choice: it bounds the working set of one pass and cannot
        change the output.

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
        batch = min(self._world_batch, r)
        if batch * n > _INT32_LIMIT:
            batch = max(1, _INT32_LIMIT // n)
        # Block endpoints of one batch, world-major like masks.ravel():
        # built once per call and shared by every batch.
        offsets = np.arange(0, batch * n, n, dtype=np.int32)[:, None]
        tiled_src = (graph.edge_src.astype(np.int32) + offsets).ravel()
        tiled_dst = (graph.edge_dst.astype(np.int32) + offsets).ravel()
        labels = np.empty((r, n), dtype=np.int32)
        for start in range(0, r, batch):
            stop = start + batch
            self._label_batch(masks[start:stop], tiled_src, tiled_dst, offsets, labels[start:stop])
        return labels

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
    def _label_batch(
        masks: np.ndarray,
        tiled_src: np.ndarray,
        tiled_dst: np.ndarray,
        offsets: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Write the canonical labels of the ``(b, m)`` batch ``masks`` into ``out``.

        ``tiled_src``/``tiled_dst`` are the block endpoints of at least
        ``b`` worlds laid out like ``masks.ravel()``, so the flat index
        of a present edge instance addresses its endpoints directly;
        ``offsets`` holds each world's first block vertex.
        Every gather index is a block vertex in ``[0, b * n)`` by
        construction, so the gathers take ``mode="clip"``, which (unlike
        the default) writes ``out`` without an intermediate buffer.
        """
        b, n = out.shape
        parent = np.arange(b * n, dtype=np.int32)
        hopped = np.empty_like(parent)
        edges = np.flatnonzero(masks)
        if len(edges):
            src = tiled_src.take(edges)
            dst = tiled_dst.take(edges)
            # First hook: parent is the identity and src < dst holds
            # elementwise, so hooking is a bare scatter-min.
            np.minimum.at(parent, dst, src)
            parent.take(parent, out=hopped, mode="clip")
            parent, hopped = hopped, parent
            ps = np.empty_like(src)
            pd = np.empty_like(dst)
            high = np.empty_like(src)
            while True:
                parent.take(src, out=ps, mode="clip")
                parent.take(dst, out=pd, mode="clip")
                if (ps == pd).all():
                    break
                np.maximum(ps, pd, out=high)
                np.minimum(ps, pd, out=ps)
                np.minimum.at(parent, high, ps)
                parent.take(parent, out=hopped, mode="clip")
                parent, hopped = hopped, parent
        # Compress to idempotence: every vertex points at its root.
        while True:
            parent.take(parent, out=hopped, mode="clip")
            if (hopped == parent).all():
                break
            parent, hopped = hopped, parent
        np.subtract(parent.reshape(b, n), offsets[:b], out=out)
