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

Component labeling runs the vectorized union-find of
:mod:`repro.sampling.backends.unionfind` over the edge masks; it
never builds the block-diagonal matrix.

Every hop-distance query (expected distances, depth-limited
connection, harmonic centrality) runs the packed multi-source BFS of
:func:`packed_bfs_counts` / :func:`packed_bfs_distances`: it walks the
packed columns directly, so one word operation advances a frontier in
64 worlds, and a whole batch of sources moves one level per handful of
numpy calls.  The block-CSR BFS (:func:`block_bfs_distances`,
:func:`block_bfs_reached`) is kept as the reference the packed kernel
is pinned against, bit for bit.  This substitutes for the OpenMP
parallel sampler in the authors' C++ implementation.

The packed BFS works in the *position space* of
:attr:`UncertainGraph.degree_layout` (cached per graph): nodes sorted
by descending degree, arcs sorted by head, so the arcs into all nodes
of one degree form one contiguous ``(heads x degree)`` block.  Its
state is node-major ``(n, sources, words)``.  Each level takes one of
two steps, chosen from the frontier alone:

* the **compacted step**, when the frontier's arcs are at most half of
  all arcs: gather the rows of those arcs, AND their presence, and
  OR-reduce them per head with ``reduceat``;
* the **dense step**, for broader levels: gather the dense frontier
  over every arc with one ``take``, AND the presence, and OR-reduce
  each degree's arc block with one ``bitwise_or.reduce``.  The frontier
  stays dense across consecutive dense levels, and consumers add the
  level into their accumulators with contiguous slices.

Per-world distances are decoded from bit-sliced *level codes*
(``level + 1``, ``0`` for unreached and for the source), in the
narrowest unsigned dtype that holds them: ``uint8`` below 255 levels.
Harmonic closeness indexes its ``1/d`` table with them directly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.backends.unionfind import validate_masks
from repro.sampling.store import WORD_BITS, packed_words

#: Words (2 MiB) that bound one source batch: its ``((arcs + n) x
#: sources x words)`` slab covers the dense step's gather and the
#: per-source presence (the arcs part) plus each ``(n x sources x
#: words)`` state buffer (the nodes part).  It also sizes the per-world
#: level codes yielded per block.  Sources are walked in batches sized
#: to it, which bounds the working set whatever the source count.
_BATCH_WORDS = 1 << 18


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

    ``levels`` iterates ``(level, rows, reached)`` for ``level = 1, 2,
    ...`` in the position space of :attr:`UncertainGraph.degree_layout`:
    ``reached`` is a ``(k, hi - lo, words)`` ``uint64`` array whose bit
    ``i`` of word ``w`` at ``[p, j]`` says world ``64*w + i`` first
    reaches position ``rows[p]`` from ``sources[lo + j]`` at this level.
    ``rows`` is an index array (positions reached in no world are left
    out) or ``slice(None)`` (all ``n`` positions) after a dense step.
    ``reached`` is overwritten by the next level.  Level 0 (each source
    reaches itself in every world) is not yielded.
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
    layout = graph.degree_layout
    position, *_, edges = layout
    n = graph.n_nodes
    presence = packed_cols[edges][:, None, :]
    # The initial frontier holds only real worlds, so the pad bits of
    # the last presence word are never read.
    all_worlds = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)
    if r % WORD_BITS:
        all_worlds[-1] = np.uint64((1 << (r % WORD_BITS)) - 1)
    batch = max(1, _BATCH_WORDS // max(1, (len(edges) + n) * words))
    if min(batch, len(sources)) > 1:
        # Repeated per source: ANDing a broadcast over short word rows
        # is several times slower than a contiguous AND.
        presence = np.repeat(presence, min(batch, len(sources)), axis=1)
    for lo in range(0, len(sources), batch):
        hi = min(lo + batch, len(sources))
        starts = position[sources[lo:hi]]
        nodes = np.flatnonzero(np.bincount(starts, minlength=n))
        frontier = np.zeros((len(nodes), hi - lo, words), dtype=np.uint64)
        frontier[np.searchsorted(nodes, starts), np.arange(hi - lo)] = all_worlds
        yield lo, hi, _levels(layout, presence[:, :hi - lo], nodes, frontier, max_depth)


def _levels(layout, presence, nodes, frontier, max_depth):
    """The level loop of :func:`_packed_bfs`.

    A level whose frontier ``nodes`` sends out at most half of all arcs
    walks only those arcs: their tail rows are gathered, ANDed with the
    arc's presence and OR-reduced per head with ``reduceat``.  A broader
    level takes the dense step over a dense ``(n, sources, words)``
    frontier: one gather over every arc, then one ``bitwise_or.reduce``
    per degree over its ``(heads x degree)`` arc block.  Either way the
    already visited are stripped.
    """
    _, indptr, heads, tails, _ = layout
    n, shape = len(indptr) - 1, frontier.shape[1:]
    degrees = indptr[1:] - indptr[:-1]
    # Positions are degree-sorted, so len(nodes) * degrees[0] bounds the
    # frontier's arcs and settles most narrow levels without a sum.
    widest, half = int(degrees[0]), len(tails) // 2
    unvisited = np.full((n,) + shape, np.iinfo(np.uint64).max, dtype=np.uint64)
    unvisited[nodes] = ~frontier
    row_of = np.full(n, -1, dtype=np.intp)
    gathered = None
    dense = False
    level = 0
    while max_depth is None or level < max_depth:
        if len(nodes) * widest > half and int(degrees[nodes].sum()) > half:
            if gathered is None:
                gathered = np.empty((len(tails),) + shape, dtype=np.uint64)
                # Runs of equal degree: positions [p0, p1) of degree d own
                # the arcs indptr[p0]:indptr[p1] (none for d = 0, which
                # the OR-reduce over an empty axis fills with zeros).
                bounds = np.flatnonzero(np.diff(degrees, prepend=-1, append=-1)).tolist()
                groups = [(p0, p1, int(degrees[p0])) for p0, p1 in zip(bounds, bounds[1:])]
            if not dense:
                compact, frontier = frontier, np.zeros((n,) + shape, dtype=np.uint64)
                frontier[nodes] = compact
                dense = True
            # Tails are valid positions; mode="raise" would buffer out=.
            np.take(frontier, tails, axis=0, out=gathered, mode="clip")
            gathered &= presence
            # The frontier is spent: the next one is reduced into it.
            reached = frontier
            for p0, p1, d in groups:
                block = gathered[indptr[p0]:indptr[p1]].reshape((p1 - p0, d) + shape)
                np.bitwise_or.reduce(block, axis=1, out=reached[p0:p1])
            reached &= unvisited
            unvisited ^= reached
            nodes = np.flatnonzero(reached.any(axis=(1, 2)))
            if len(nodes) == 0:
                return
            rows = slice(None)
        else:
            if dense:
                frontier, dense = frontier[nodes], False
            row_of[nodes] = np.arange(len(nodes))
            tail_rows = row_of[tails]
            row_of[nodes] = -1
            arcs = np.flatnonzero(tail_rows >= 0)
            if len(arcs) == 0:
                return
            arc_gathered = frontier[tail_rows[arcs]]
            arc_gathered &= presence[arcs]
            arc_heads = heads[arcs]
            first = np.empty(len(arcs), dtype=bool)
            first[0] = True
            np.not_equal(arc_heads[1:], arc_heads[:-1], out=first[1:])
            firsts = np.flatnonzero(first)
            nodes = arc_heads[firsts]
            reached = np.bitwise_or.reduceat(arc_gathered, firsts, axis=0)
            reached &= unvisited[nodes]
            fresh = reached.any(axis=(1, 2))
            if not fresh.all():
                nodes, reached = nodes[fresh], reached[fresh]
                if len(nodes) == 0:
                    return
            unvisited[nodes] ^= reached
            rows = nodes
        level += 1
        frontier = reached
        yield level, rows, reached


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
    n = graph.n_nodes
    position, words = graph.degree_layout[0], packed_words(r)
    reached = np.zeros((len(sources), n), dtype=np.int64)
    hops = np.zeros((len(sources), n), dtype=np.int64)
    for lo, hi, levels in _packed_bfs(graph, packed_cols, r, sources, max_depth):
        # Per-word popcounts, node-major in position space; words are
        # summed and nodes mapped back once per batch (a sum over a few
        # words per level is a slow short-axis reduction).  The hop sum
        # needs no multiply: sum(level * count) is last_level * reach
        # minus the sum over levels of the reach before that level.
        acc = np.zeros((2, n, hi - lo, words), dtype=np.int64)
        reach, before = acc
        level = 0
        for level, rows, bits in levels:
            before += reach
            reach[rows] += np.bitwise_count(bits)
        np.subtract(level * reach, before, out=before)
        acc = np.einsum("...w->...", acc)[:, position]
        reached[lo:hi] = acc[0].T
        hops[lo:hi] = acc[1].T
    reached[np.arange(len(sources)), sources] = r
    return reached, hops


def _packed_bfs_codes(
    graph: UncertainGraph,
    packed_cols: np.ndarray,
    r: int,
    sources,
    max_depth: int | None = None,
):
    """Per-world level codes from ``sources``, one source batch at a time.

    Yields ``(lo, hi, codes)`` where ``codes`` is a C-contiguous
    ``(hi - lo, r, n)`` array holding ``level + 1`` where world ``i``
    reaches ``v`` from ``sources[lo + j]`` at ``level >= 1``, and ``0``
    for unreached nodes and for the source itself.  The dtype is the
    narrowest unsigned one that holds the deepest code: ``uint8`` below
    255 levels.
    """
    sources = graph.node_indices(sources)
    n = graph.n_nodes
    position = graph.degree_layout[0]
    words = packed_words(r)
    # Sources per yielded block: ~4 words per (world, node) code with
    # the caller's temporaries.
    step = max(1, _BATCH_WORDS // max(1, 4 * n * r))
    for lo, hi, levels in _packed_bfs(graph, packed_cols, r, sources, max_depth):
        # Bit-sliced codes: bit k of a world's level + 1 at a node is
        # kept in planes[k], so log2(depth + 1) + 1 planes are unpacked
        # at the end instead of one per level.
        planes: list[np.ndarray] = []
        for level, rows, bits in levels:
            code = level + 1
            while len(planes) < code.bit_length():
                planes.append(np.zeros((n, hi - lo, words), dtype=np.uint64))
            for k in range(code.bit_length()):
                if code >> k & 1:
                    planes[k][rows] |= bits
        dtype = np.min_scalar_type((1 << len(planes)) - 1)
        planes = [plane[position] for plane in planes]
        for block_lo in range(lo, hi, step):
            block_hi = min(block_lo + step, hi)
            cols = slice(block_lo - lo, block_hi - lo)
            codes = np.zeros((block_hi - block_lo, n, r), dtype=dtype)
            for plane in reversed(planes):
                codes += codes
                codes += _world_bits(plane[:, cols], r)
            yield block_lo, block_hi, np.ascontiguousarray(codes.transpose(0, 2, 1))


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
    for lo, hi, codes in _packed_bfs_codes(graph, packed_cols, r, sources, max_depth):
        dist = codes.astype(np.int32)
        dist -= 1
        dist[np.arange(hi - lo), :, sources[lo:hi]] = 0
        yield lo, hi, dist


def _world_bits(words: np.ndarray, r: int) -> np.ndarray:
    """Node-major ``(n, b, words)`` bitsets -> ``(b, n, r)`` uint8 0/1 bits."""
    words = np.ascontiguousarray(words.transpose(1, 0, 2))
    return np.unpackbits(words.view(np.uint8), axis=2, count=r, bitorder="little")
