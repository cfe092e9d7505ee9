"""Vectorized sampling of possible worlds and the hop-distance kernels.

A *possible world* of an uncertain graph keeps each edge independently
with its probability.  A batch of ``r`` sampled worlds is represented
three ways:

* an ``(r, m)`` boolean *edge mask* matrix,
* the store's edge-major packed columns
  (:func:`~repro.sampling.store.pack_mask_columns`): one ``uint64``
  word holds one edge's presence in 64 worlds, and
* a single **block-diagonal** sparse adjacency matrix with ``r * n``
  vertices, world ``i`` occupying the vertex range ``[i*n, (i+1)*n)``.

Component labeling (:func:`world_component_labels`) runs the
vectorized union-find of :mod:`repro.sampling.backends.unionfind` over
the edge masks; it never builds the block-diagonal matrix.

Every hop-distance query (expected distances, depth-limited
connection, harmonic centrality) runs the packed multi-source BFS of
:func:`packed_bfs_counts` / :func:`packed_bfs_distances`: it walks the
packed columns directly, so one word operation advances a frontier in
64 worlds, and a whole batch of sources moves one level per handful of
numpy calls.  The block-CSR BFS (:func:`block_bfs_distances`,
:func:`block_bfs_reached`) is kept as the reference the packed kernel
is pinned against, bit for bit.  This substitutes for the OpenMP
parallel sampler in the authors' C++ implementation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.backends import UnionFindWorldBackend
from repro.sampling.backends.unionfind import validate_masks
from repro.sampling.store import WORD_BITS, packed_words
from repro.utils.rng import ensure_rng

#: Words one source batch may hold (2 MiB): the kernel's ``(arcs x
#: sources x words)`` gather, and the unpacked per-world distances
#: :func:`packed_bfs_distances` yields per block.  Sources are walked
#: in batches sized to it, which bounds the working set whatever the
#: source count.
_BATCH_WORDS = 1 << 18


def sample_edge_masks(edge_prob: np.ndarray, r: int, rng=None) -> np.ndarray:
    """Sample ``r`` possible worlds as an ``(r, m)`` boolean mask matrix."""
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    rng = ensure_rng(rng)
    edge_prob = np.asarray(edge_prob, dtype=np.float64)
    return rng.random((r, len(edge_prob))) < edge_prob


def world_component_labels(graph: UncertainGraph, masks: np.ndarray) -> np.ndarray:
    """Component labels for each sampled world.

    Returns an ``(r, n)`` int32 array in canonical form:
    ``labels[i, v]`` is the smallest node index in ``v``'s component of
    world ``i`` (so labels are directly comparable across worlds, not
    just within a row).
    """
    return UnionFindWorldBackend().component_labels(graph, masks)


def world_block_csr(graph: UncertainGraph, masks: np.ndarray) -> sp.csr_matrix:
    """Symmetric block-diagonal CSR adjacency of the sampled worlds.

    Shape ``(r*n, r*n)``; world ``i`` occupies rows/cols
    ``[i*n, (i+1)*n)``.  Data entries are 1 (int8).
    """
    masks = validate_masks(graph, masks)
    r, n = masks.shape[0], graph.n_nodes
    world_idx, edge_idx = np.nonzero(masks)
    offset = world_idx.astype(np.int64) * n
    bsrc = graph.edge_src[edge_idx].astype(np.int64) + offset
    bdst = graph.edge_dst[edge_idx].astype(np.int64) + offset
    total = r * n
    data = np.ones(2 * len(bsrc), dtype=np.int8)
    matrix = sp.coo_matrix(
        (data, (np.concatenate([bsrc, bdst]), np.concatenate([bdst, bsrc]))),
        shape=(total, total),
    )
    return matrix.tocsr()


def _gather_ranges(indptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Concatenate the CSR index ranges of ``nodes`` without a Python loop."""
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shifts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.repeat(starts - shifts, lengths) + np.arange(total, dtype=np.int64)


def block_bfs_distances(
    block: sp.csr_matrix,
    n_nodes: int,
    r: int,
    source: int,
    max_depth: int | None = None,
) -> np.ndarray:
    """Hop distances from ``source`` in each of ``r`` worlds.

    Same frontier-driven traversal as :func:`block_bfs_reached`, but
    recording the BFS level at which each vertex is first reached.
    Returns an ``(r, n_nodes)`` int32 matrix; unreachable nodes (and,
    with ``max_depth``, nodes further than that many hops) are ``-1``.
    One call walks *every* sampled world simultaneously.  It is the
    reference :func:`packed_bfs_distances` is pinned against.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    total = r * n_nodes
    dist = np.full(total, -1, dtype=np.int32)
    frontier = source + np.arange(r, dtype=np.int64) * n_nodes
    dist[frontier] = 0
    indptr, indices = block.indptr, block.indices
    depth = 0
    while len(frontier):
        if max_depth is not None and depth >= max_depth:
            break
        neighbours = indices[_gather_ranges(indptr, frontier)]
        neighbours = neighbours[dist[neighbours] < 0]
        if len(neighbours) == 0:
            break
        frontier = np.unique(neighbours)
        depth += 1
        dist[frontier] = depth
    return dist.reshape(r, n_nodes)


def block_bfs_reached(
    block: sp.csr_matrix,
    n_nodes: int,
    r: int,
    source: int,
    depth: int,
) -> np.ndarray:
    """Nodes within ``depth`` hops of ``source`` in each of ``r`` worlds.

    Runs a frontier-driven BFS from ``source`` simultaneously in every
    world of a block-diagonal adjacency.  Because the matrix is
    symmetric its CSR arrays double as CSC, so the neighbours of the
    whole frontier are one vectorized gather — total work is
    proportional to the edges actually reached, not ``depth * nnz``.
    Returns an ``(r, n_nodes)`` boolean matrix.
    """
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    total = r * n_nodes
    reached = np.zeros(total, dtype=bool)
    frontier = source + np.arange(r, dtype=np.int64) * n_nodes
    reached[frontier] = True
    indptr, indices = block.indptr, block.indices
    for _ in range(depth):
        if len(frontier) == 0:
            break
        neighbours = indices[_gather_ranges(indptr, frontier)]
        neighbours = neighbours[~reached[neighbours]]
        if len(neighbours) == 0:
            break
        frontier = np.unique(neighbours)
        reached[frontier] = True
    return reached.reshape(r, n_nodes)


def _packed_bfs(graph, packed_cols, r: int, sources, max_depth):
    """Yield ``(lo, hi, levels)`` per batch of ``sources``.

    ``levels`` iterates ``(level, nodes, reached)`` for ``level = 1, 2,
    ...``: ``reached`` is a ``(len(nodes), hi - lo, words)`` ``uint64``
    array whose bit ``i`` of word ``w`` at ``[k, j]`` says world
    ``64*w + i`` first reaches ``nodes[k]`` from ``sources[lo + j]`` at
    this level (nodes reached in no world are left out).  Level 0 (each
    source reaches itself in every world) is not yielded.  State is
    node-major, so the per-arc gather copies contiguous ``(sources x
    words)`` rows.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    packed_cols = np.asarray(packed_cols, dtype=np.uint64)
    words = packed_words(r)
    if packed_cols.shape != (graph.n_edges, words):
        raise ValueError(
            f"packed columns must have shape ({graph.n_edges}, {words}) "
            f"for {r} worlds, got {packed_cols.shape}"
        )
    # Arcs into each node, one per CSR adjacency entry, sorted by head.
    indptr, tails, edges = graph.adjacency
    heads = np.repeat(np.arange(graph.n_nodes), np.diff(indptr))
    presence = packed_cols[edges]
    # The initial frontier holds only real worlds, so the pad bits of
    # the last presence word are never read.
    all_worlds = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)
    if r % WORD_BITS:
        all_worlds[-1] = np.uint64((1 << (r % WORD_BITS)) - 1)
    batch = max(1, _BATCH_WORDS // max(1, len(tails) * words))
    for lo in range(0, len(sources), batch):
        hi = min(lo + batch, len(sources))
        nodes, row = np.unique(sources[lo:hi], return_inverse=True)
        frontier = np.zeros((len(nodes), hi - lo, words), dtype=np.uint64)
        frontier[row, np.arange(hi - lo)] = all_worlds
        yield lo, hi, _levels(graph.n_nodes, nodes, frontier, tails, heads, presence, max_depth)


def _levels(n, nodes, frontier, tails, heads, presence, max_depth):
    """The level loop of :func:`_packed_bfs`.

    Only arcs leaving the current frontier ``nodes`` are walked: their
    tail words are gathered, ANDed with the arc's presence, OR-reduced
    per head and stripped of the already visited.
    """
    unvisited = np.full((n,) + frontier.shape[1:], np.iinfo(np.uint64).max, dtype=np.uint64)
    unvisited[nodes] = ~frontier
    row_of = np.full(n, -1, dtype=np.intp)
    presence = presence[:, None, :]
    level = 0
    while max_depth is None or level < max_depth:
        row_of[nodes] = np.arange(len(nodes))
        tail_rows = row_of[tails]
        row_of[nodes] = -1
        arcs = np.flatnonzero(tail_rows >= 0)
        if len(arcs) == 0:
            return
        gathered = frontier[tail_rows[arcs]]
        gathered &= presence[arcs]
        arc_heads = heads[arcs]
        first = np.empty(len(arcs), dtype=bool)
        first[0] = True
        np.not_equal(arc_heads[1:], arc_heads[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        targets = arc_heads[starts]
        reached = np.bitwise_or.reduceat(gathered, starts, axis=0)
        reached &= unvisited[targets]
        fresh = reached.any(axis=(1, 2))
        if not fresh.all():
            targets, reached = targets[fresh], reached[fresh]
            if len(targets) == 0:
                return
        unvisited[targets] ^= reached
        level += 1
        nodes, frontier = targets, reached
        yield level, nodes, reached


def packed_bfs_counts(
    graph: UncertainGraph,
    packed_cols: np.ndarray,
    r: int,
    sources,
    max_depth: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(source, node) reach counts and hop-distance sums over ``r`` worlds.

    ``packed_cols`` is an ``(m, packed_words(r))`` block in the store's
    edge-major layout.  Returns two ``(s, n)`` int64 matrices:
    ``reached[j, v]`` counts the worlds where ``v`` is within
    ``max_depth`` hops of ``sources[j]`` (unbounded for ``None``), and
    ``hops[j, v]`` sums the hop distance over those worlds.  Both equal
    the column sums of :func:`block_bfs_distances` exactly, but no
    per-world matrix is built: each level adds ``level * popcount``.

    Examples
    --------
    >>> from repro.sampling.store import pack_mask_columns
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    >>> cols = pack_mask_columns([[True, True], [True, False]])
    >>> reached, hops = packed_bfs_counts(g, cols, 2, [0])
    >>> reached.tolist(), hops.tolist()
    ([[2, 2, 1]], [[0, 2, 2]])
    """
    sources = graph.node_indices(sources)
    reached = np.zeros((len(sources), graph.n_nodes), dtype=np.int64)
    hops = np.zeros((len(sources), graph.n_nodes), dtype=np.int64)
    reached[np.arange(len(sources)), sources] = r
    for lo, hi, levels in _packed_bfs(graph, packed_cols, r, sources, max_depth):
        for level, nodes, bits in levels:
            counts = np.bitwise_count(bits).sum(axis=2, dtype=np.int64).T
            reached[lo:hi, nodes] += counts
            hops[lo:hi, nodes] += level * counts
    return reached, hops


def packed_bfs_distances(
    graph: UncertainGraph,
    packed_cols: np.ndarray,
    r: int,
    sources,
    max_depth: int | None = None,
):
    """Per-world hop distances from ``sources``, one source batch at a time.

    Yields ``(lo, hi, dist)`` where ``dist`` is a C-contiguous
    ``(hi - lo, r, n)`` int32 array and ``dist[j]`` equals
    ``block_bfs_distances(block, n, r, sources[lo + j], max_depth)``
    bit for bit (``-1`` for unreached).  Batches are sized so the
    working set stays bounded; concatenate them for the full
    ``(s, r, n)`` matrix.

    Examples
    --------
    >>> from repro.sampling.store import pack_mask_columns
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    >>> cols = pack_mask_columns([[True, True], [True, False]])
    >>> [dist.tolist() for _, _, dist in packed_bfs_distances(g, cols, 2, [0])]
    [[[[0, 1, 2], [0, 1, -1]]]]
    """
    sources = graph.node_indices(sources)
    n = graph.n_nodes
    words = packed_words(r)
    # Sources per yielded block: ~4 words per unpacked (world, node)
    # entry with the caller's temporaries.
    step = max(1, _BATCH_WORDS // max(1, 4 * n * r))
    for lo, hi, levels in _packed_bfs(graph, packed_cols, r, sources, max_depth):
        # Bit-sliced levels: bit k of the level at which a world first
        # reaches a node is kept in planes[k], so log2(depth) + 1
        # planes are unpacked at the end instead of one per level.
        planes: list[np.ndarray] = []
        seen = np.zeros((n, hi - lo, words), dtype=np.uint64)
        for level, nodes, bits in levels:
            seen[nodes] |= bits
            for k in range(level.bit_length()):
                if level >> k & 1:
                    if k == len(planes):
                        planes.append(np.zeros_like(seen))
                    planes[k][nodes] |= bits
        for block_lo in range(lo, hi, step):
            block_hi = min(block_lo + step, hi)
            cols = slice(block_lo - lo, block_hi - lo)
            dist = np.zeros((block_hi - block_lo, n, r), dtype=np.int32)
            for k, plane in enumerate(planes):
                dist |= np.left_shift(_world_bits(plane[:, cols], r), k, dtype=np.int32)
            dist += _world_bits(seen[:, cols], r)  # level + 1 where reached, else 0
            dist -= 1
            dist[np.arange(block_hi - block_lo), sources[block_lo:block_hi]] = 0
            yield block_lo, block_hi, np.ascontiguousarray(dist.transpose(0, 2, 1))


def _world_bits(words: np.ndarray, r: int) -> np.ndarray:
    """Node-major ``(n, b, words)`` bitsets -> ``(b, n, r)`` uint8 0/1 bits."""
    words = np.ascontiguousarray(words.transpose(1, 0, 2))
    return np.unpackbits(words.view(np.uint8), axis=2, count=r, bitorder="little")
