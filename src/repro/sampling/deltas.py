"""Delta-aware world-pool derivation: warm clustering across mutations.

Before this module, mutating a single edge probability invalidated the
whole world pool: the fingerprint changed, the cache missed, and every
world was cold-resampled and relabeled even though only one Bernoulli
column differed.  Delta derivation turns that cliff into an increment:

1.  Mask bit ``(i, e)`` is a pure function of ``(root seed, u, v, i)``
    (per-edge streams, :mod:`repro.sampling.parallel`), so a pool for
    the mutated graph shares every untouched edge's column with the
    parent pool bit-for-bit.  The store's edge-major columnar layout
    (:mod:`repro.sampling.store`) makes copying those columns a row
    copy and resampling the touched ones a row write.
2.  Component labels only change in worlds where a touched edge's
    *presence* actually flipped; within such a world, only the
    components containing the flipped edge's endpoints are affected.
    The labeler's incremental ``repair_labels`` path runs union-find
    over the affected components only (pinned against a full scipy
    relabel in the tests).
3.  A mutated graph fingerprints identically to cold-building its
    final edge set (mutations keep canonical edge order), so the
    derived pool registers under the digest the cold path would use:
    every later consumer — oracle, service cache, CLI — finds it warm
    without knowing it was derived.

The determinism pin (``tests/test_deltas.py``): for any mutation
sequence, labels obtained by delta replay are **bit-identical** to
cold-sampling the final graph at the same seed, whatever chunk size
either side was drawn in.

Derivation is best-effort, exactly like the store itself: any failure
(parent pool evicted mid-read, disk corruption, races) degrades to
cold sampling of whatever remains underived — never to wrong worlds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import WorldStoreError
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.backends import UnionFindWorldBackend
from repro.sampling.parallel import sample_mask_rows
from repro.sampling.store import (
    WORD_BITS,
    WorldStore,
    pack_mask_columns,
    packed_words,
    unpack_mask_columns,
)
from repro.utils.rng import ensure_seed_sequence

__all__ = ["DeriveResult", "EdgeDiff", "derive_pool", "diff_edges"]

#: Above this many touched edges the component-local repair bookkeeping
#: (``2 * touched`` label compares over every ``(world, node)``) costs
#: more than relabeling the affected worlds outright, so derivation
#: switches to the full relabel of exactly those worlds.
_REPAIR_TOUCHED_LIMIT = 64

#: Worlds :func:`derive_pool` reads, derives and appends per block.  It
#: bounds the working set; the derived worlds do not depend on it.
DERIVE_BLOCK_WORLDS = 512


@dataclass(frozen=True)
class EdgeDiff:
    """Edge-level difference between two graphs on the same node set.

    Index arrays refer to the graphs' edge arrays: ``kept_*`` pairs up
    edges present in both with unchanged probability, ``updated_*``
    pairs up edges whose probability changed, ``added_child`` /
    ``removed_parent`` hold the one-sided edges.
    """

    kept_parent: np.ndarray
    kept_child: np.ndarray
    updated_parent: np.ndarray
    updated_child: np.ndarray
    added_child: np.ndarray
    removed_parent: np.ndarray

    @property
    def n_touched(self) -> int:
        """Columns that must be resampled or dropped."""
        return len(self.updated_child) + len(self.added_child) + len(self.removed_parent)


def diff_edges(parent: UncertainGraph, child: UncertainGraph) -> EdgeDiff:
    """Classify every edge of ``parent`` and ``child`` for derivation.

    The graphs must share the node set (mutations never renumber
    nodes).  Works for *any* pair of graphs — a whole delta chain
    collapses into one diff, so deriving grandchild-from-grandparent
    never replays intermediate revisions.

    Examples
    --------
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    >>> g2, _ = g.mutate(update=[(0, 1, 0.9)], add=[(0, 2, 0.4)])
    >>> diff = diff_edges(g, g2)
    >>> (len(diff.kept_child), len(diff.updated_child), len(diff.added_child))
    (1, 1, 1)
    """
    if parent.n_nodes != child.n_nodes:
        raise ValueError(
            f"cannot diff graphs with different node counts "
            f"({parent.n_nodes} vs {child.n_nodes})"
        )
    n = parent.n_nodes
    parent_keys = parent.edge_src.astype(np.int64) * n + parent.edge_dst
    child_keys = child.edge_src.astype(np.int64) * n + child.edge_dst
    _, parent_common, child_common = np.intersect1d(
        parent_keys, child_keys, assume_unique=True, return_indices=True
    )
    same = parent.edge_prob[parent_common] == child.edge_prob[child_common]
    added = np.flatnonzero(~np.isin(child_keys, parent_keys, assume_unique=True))
    removed = np.flatnonzero(~np.isin(parent_keys, child_keys, assume_unique=True))
    return EdgeDiff(
        kept_parent=parent_common[same],
        kept_child=child_common[same],
        updated_parent=parent_common[~same],
        updated_child=child_common[~same],
        added_child=added,
        removed_parent=removed,
    )


@dataclass(frozen=True)
class DeriveResult:
    """Outcome of one :func:`derive_pool` call.

    ``worlds_derived`` counts the worlds appended to the child pool by
    this call; ``worlds_repaired`` the subset whose labels needed
    repair (a touched edge's presence flipped there);
    ``columns_resampled`` the number of *distinct* edge columns
    regenerated (the updated + added edges — every derived block
    resamples the same set, so the count is independent of how many
    blocks the pool spans, and 0 when no block was derived);
    ``complete`` is False when derivation stopped early (a read or
    append failed — the remainder cold-samples).
    """

    digest: str
    worlds_available: int
    worlds_derived: int
    worlds_repaired: int
    columns_resampled: int
    complete: bool


def derive_pool(
    store: WorldStore,
    parent_graph: UncertainGraph,
    child_graph: UncertainGraph,
    *,
    seed,
) -> DeriveResult | None:
    """Derive the child graph's world pool from the parent's.

    Reads the parent pool block by block, copies the untouched edges'
    packed columns, resamples the touched edges' columns from the same
    per-edge streams cold sampling would use, repairs the labels of
    exactly the worlds where a presence bit flipped, and appends the
    result under the child's own fingerprint.  The derived pool is
    bit-identical to cold-sampling the child graph.  Worlds are derived
    (and appended) :data:`DERIVE_BLOCK_WORLDS` at a time.

    Returns ``None`` when there is nothing to work from (no parent
    pool, identical fingerprints, store errors before the first
    block); otherwise a :class:`DeriveResult` — possibly partial
    (``complete=False``) when the parent pool vanished mid-derivation,
    e.g. because the service cache evicted it.  Either way the child
    pool only ever contains correct worlds; callers cold-sample
    whatever is missing.

    Examples
    --------
    >>> from repro.sampling.oracle import MonteCarloOracle
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    >>> store = WorldStore()
    >>> with MonteCarloOracle(g, seed=7, store=store) as oracle:
    ...     oracle.ensure_samples(100)
    >>> g2, _ = g.update_edge(0, 1, 0.9)
    >>> result = derive_pool(store, g, g2, seed=7)
    >>> (result.worlds_derived, result.complete)
    (100, True)
    >>> with MonteCarloOracle(g2, seed=7, store=store) as warm:
    ...     warm.ensure_samples(100)
    ...     warm.cache_stats["worlds_sampled"]
    0
    """
    seed_seq = ensure_seed_sequence(seed)
    labeler = UnionFindWorldBackend()
    try:
        parent_digest = store.register(parent_graph, seed_seq)
        child_digest = store.register(child_graph, seed_seq)
        if parent_digest == child_digest:
            return None  # nothing changed; the "parent" pool already serves
        available = store.count(parent_digest)
        have = store.count(child_digest)
    except (WorldStoreError, OSError, ValueError):
        return None
    if available == 0:
        return None
    if available <= have:
        return DeriveResult(child_digest, available, 0, 0, 0, True)

    diff = diff_edges(parent_graph, child_graph)
    child_src, child_dst, child_prob = (
        child_graph.edge_src,
        child_graph.edge_dst,
        child_graph.edge_prob,
    )
    parent_src, parent_dst = parent_graph.edge_src, parent_graph.edge_dst
    # Columns are independent streams, so the updated and added columns
    # are drawn together, one kernel call per block.
    touched = np.concatenate([diff.updated_child, diff.added_child])
    n_updated = len(diff.updated_child)
    m_child = child_graph.n_edges
    derived = repaired = resampled = 0
    block = DERIVE_BLOCK_WORLDS
    for start in range(have, available, block):
        stop = min(start + block, available)
        rows = stop - start
        try:
            packed_parent, labels_parent = store.read(parent_digest, start, stop)
        except (WorldStoreError, OSError, ValueError):
            return DeriveResult(child_digest, available, derived, repaired, resampled, False)
        packed_child = np.zeros((m_child, packed_words(rows)), dtype=np.uint64)
        packed_child[diff.kept_child] = packed_parent[diff.kept_parent]
        new_masks = sample_mask_rows(
            child_src[touched], child_dst[touched], child_prob[touched], seed_seq, start, rows
        )
        packed_child[touched] = pack_mask_columns(new_masks)
        # An updated column flips where its bits changed, an added one
        # wherever the edge is present.
        flip_cols = new_masks.copy()
        flip_cols[:, :n_updated] ^= unpack_mask_columns(packed_parent[diff.updated_parent], rows)
        flips = [
            (int(child_src[c_idx]), int(child_dst[c_idx]), flip_cols[:, j])
            for j, c_idx in enumerate(touched)
            if flip_cols[:, j].any()
        ]
        removed_cols = unpack_mask_columns(packed_parent[diff.removed_parent], rows)
        flips += [
            (int(parent_src[p_idx]), int(parent_dst[p_idx]), removed_cols[:, j])
            for j, p_idx in enumerate(diff.removed_parent)
            if removed_cols[:, j].any()
        ]
        # Distinct columns, not a per-block accumulation: each block
        # regenerates the same updated + added columns.
        resampled = len(touched)

        if flips:
            flip_matrix = np.stack([flip for _, _, flip in flips])  # (t, rows)
            affected_worlds = np.flatnonzero(flip_matrix.any(axis=0))
            labels_child = np.array(labels_parent)  # copy; reads may be views
            if len(affected_worlds):
                # int32: the repair marks unflipped worlds with label -1.
                old = labels_parent[affected_worlds].astype(np.int32)
                labels_child[affected_worlds] = _relabel_affected(
                    labeler, child_graph, packed_child, affected_worlds,
                    old, flips, flip_matrix[:, affected_worlds],
                )
                repaired += len(affected_worlds)
        else:
            labels_child = labels_parent  # label rows carry over unchanged
        try:
            store.append(child_digest, start, packed_child, labels_child)
        except (WorldStoreError, OSError, ValueError):
            return DeriveResult(child_digest, available, derived, repaired, resampled, False)
        derived += rows
    return DeriveResult(child_digest, available, derived, repaired, resampled, True)


def _world_masks(packed_cols: np.ndarray, worlds: np.ndarray) -> np.ndarray:
    """Boolean ``(len(worlds), m)`` masks of just ``worlds``, read off the columns."""
    shifts = (worlds % WORD_BITS).astype(np.uint64)
    bits = (packed_cols[:, worlds // WORD_BITS] >> shifts) & np.uint64(1)
    return np.ascontiguousarray(bits.T.astype(bool))


def _relabel_affected(
    labeler, graph, packed_cols, affected_worlds, old_labels, flips, flip_matrix
):
    """New labels for the affected worlds, via the cheapest sound path."""
    masks = _world_masks(packed_cols, affected_worlds)
    if len(flips) > _REPAIR_TOUCHED_LIMIT:
        # Deltas so wide that the membership compares would dwarf the
        # relabeling recompute the affected worlds outright (still only
        # those).
        return labeler.component_labels(graph, masks)
    endpoints = np.array([[u, v] for u, v, _ in flips])  # (t, 2)
    flipped_here = flip_matrix.T  # (worlds, t)
    target_u = np.where(flipped_here, old_labels[:, endpoints[:, 0]], -1)
    target_v = np.where(flipped_here, old_labels[:, endpoints[:, 1]], -1)
    targets = np.concatenate([target_u, target_v], axis=1)  # (worlds, 2t)
    affected = np.zeros(old_labels.shape, dtype=bool)
    for target in targets.T:
        affected |= old_labels == target[:, None]
    return labeler.repair_labels(graph, masks, old_labels, affected)
