"""The :class:`WorldBackend` protocol and shared mask plumbing.

A *world-labeling backend* turns a chunk of sampled possible worlds —
an ``(r, m)`` boolean edge-mask matrix — into per-world connected
component labels.  Backends are the hot path of
:class:`repro.sampling.oracle.MonteCarloOracle`: every progressive
sampling step funnels its freshly drawn masks through exactly one
:meth:`WorldBackend.component_labels` call.

Canonical labeling contract
---------------------------
All backends must return the *same* ``(r, n)`` int32 array for the same
``(graph, masks)`` input: ``labels[i, v]`` is the **smallest node index
in the connected component of** ``v`` **in world** ``i``.  Because the
masks are sampled once by the oracle (backends never consume RNG state),
this makes every downstream quantity — ``connection_to_all``,
``pairwise_matrix``, MCP/ACP clusterings — bit-identical across
backends for a fixed seed.  The cross-backend equivalence suite in
``tests/test_backends.py`` pins this contract.

Incremental relabeling (optional)
---------------------------------
Backends *may* additionally implement ``repair_labels(graph, masks,
old_labels, affected) -> labels`` — the delta-derivation fast path
(:mod:`repro.sampling.deltas`).  ``masks`` are the post-delta edge
masks of the worlds needing repair, ``old_labels`` their pre-delta
canonical labels, and ``affected`` an ``(r, n)`` boolean matrix marking
every node whose pre-delta component contains an endpoint of a flipped
edge.  The contract: the result must be **bit-identical** to
``component_labels(graph, masks)`` — incrementality is an optimization,
never a different answer.  The caller guarantees that no post-delta
present edge joins an affected node to an unaffected one (flipped
edges' endpoints are affected by construction, and unflipped present
edges connect nodes of one pre-delta component, which is affected
either wholly or not at all) — which is what makes component-local
repair sound.  The method is deliberately *not* part of the runtime
protocol: custom backends without it simply take the full-relabel path.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.graph.uncertain_graph import UncertainGraph


@runtime_checkable
class WorldBackend(Protocol):
    """Labels every world of a sampled mask chunk.

    Implementations must be deterministic pure functions of
    ``(graph, masks)`` and follow the canonical labeling contract of
    this module: ``labels[i, v]`` is the smallest node index in ``v``'s
    component of world ``i``.
    """

    name: str

    def component_labels(self, graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
        """Return ``(r, n)`` int32 canonical component labels."""
        ...  # pragma: no cover - protocol


def validate_masks(graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
    """Coerce ``masks`` to a boolean ``(r, m)`` matrix for ``graph``."""
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2 or masks.shape[1] != graph.n_edges:
        raise ValueError(
            f"masks must have shape (r, {graph.n_edges}), got {masks.shape}"
        )
    return masks


def block_edge_endpoints(
    graph: UncertainGraph, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Endpoints of all sampled edges, shifted into their world's block.

    Returns ``(bsrc, bdst, r)`` where world ``i`` occupies the index
    range ``[i*n, (i+1)*n)``.  Because graph edges are stored with
    ``src < dst``, the returned arrays satisfy ``bsrc < bdst``
    elementwise — a property the union-find backend's first hooking
    round exploits.
    """
    masks = validate_masks(graph, masks)
    r = masks.shape[0]
    world_idx, edge_idx = np.nonzero(masks)
    offset = world_idx.astype(np.int64) * graph.n_nodes
    bsrc = graph.edge_src[edge_idx].astype(np.int64) + offset
    bdst = graph.edge_dst[edge_idx].astype(np.int64) + offset
    return bsrc, bdst, r
