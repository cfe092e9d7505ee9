"""World-sampling engine with per-edge random streams.

The Monte Carlo pipelines spend nearly all their time drawing and
labeling possible worlds (paper Section 4).  This module supplies the
one path from a graph to labeled worlds: draw a chunk's edge masks
from per-edge streams (:func:`sample_mask_rows`), label them with one
:class:`~repro.sampling.backends.UnionFindWorldBackend`
``component_labels`` call, and pack the masks
for the store (:func:`~repro.sampling.store.pack_mask_columns`).  It
keeps reproducibility and *incremental resampling* at once.

Per-edge random streams
-----------------------
Every edge ``(u, v)`` (canonical ``u < v``) owns its own ``numpy``
stream, constructed by explicit spawn key::

    SeedSequence(entropy, spawn_key=root.spawn_key + (EDGE_STREAM_TAG, u, v))

World ``i``'s presence bit for the edge consumes exactly one uniform
double — one 64-bit PCG64 output — at stream position ``i``, reached
with a single O(1) ``BitGenerator.advance`` jump.  Consequences:

* mask bit ``(i, e)`` depends only on the root seed, the edge's
  endpoints and ``i`` — never on the chunking pattern of
  ``ensure_samples`` calls, never on the edge's *column position*, and
  never on any other edge (pinned by ``tests/test_parallel.py``);
* mutating one edge's probability (or adding/removing an edge) changes
  only that edge's column: :mod:`repro.sampling.deltas` regenerates the
  touched columns from the same streams and gets bits identical to
  cold-sampling the mutated graph — the determinism contract behind
  delta-aware world invalidation (pinned by ``tests/test_deltas.py``).

:class:`ParallelSampler` memoizes the per-edge stream states, so the
SeedSequence hashing cost is paid once per edge, not once per chunk.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.backends import UnionFindWorldBackend
from repro.sampling.store import pack_mask_columns
from repro.utils.rng import ensure_seed_sequence

_SAMPLER_CHUNKS = telemetry.get_registry().counter(
    "repro_sampler_chunks_total", "World chunks produced."
)
_SAMPLER_WORLDS = telemetry.get_registry().counter(
    "repro_sampler_worlds_total", "Worlds drawn and labeled."
)
_SAMPLER_SAMPLE_SECONDS = telemetry.get_registry().counter(
    "repro_sampler_sample_seconds_total", "Wall seconds drawing edge masks."
)
_SAMPLER_LABEL_SECONDS = telemetry.get_registry().counter(
    "repro_sampler_label_seconds_total", "Wall seconds labeling components."
)
_SAMPLER_CHUNK_SECONDS = telemetry.get_registry().histogram(
    "repro_sampler_chunk_seconds", "Per-chunk wall time (sample + label)."
)

__all__ = [
    "EDGE_STREAM_TAG",
    "ParallelSampler",
    "edge_seed_sequence",
    "edge_stream_state",
    "ensure_seed_sequence",
    "sample_edge_column",
    "sample_mask_rows",
]

#: Spawn-key tag separating per-edge mask streams from any other
#: SeedSequence children a caller might derive from the same root.
EDGE_STREAM_TAG = 0x65646765  # ascii "edge", fits a uint32 spawn-key word


def edge_seed_sequence(root: np.random.SeedSequence, u: int, v: int) -> np.random.SeedSequence:
    """The mask stream of edge ``(u, v)`` under root seed ``root``.

    Streams are keyed by the edge's canonical endpoints (``u < v`` is
    enforced here), so an edge keeps its stream across mutations of
    *other* edges, across column reorderings, and across graphs that
    merely share the edge.  Position ``i`` of the stream is world
    ``i``'s uniform draw for the edge.

    Examples
    --------
    >>> root = np.random.SeedSequence(7)
    >>> edge_seed_sequence(root, 2, 5).spawn_key == (EDGE_STREAM_TAG, 2, 5)
    True
    >>> edge_seed_sequence(root, 5, 2).spawn_key == (EDGE_STREAM_TAG, 2, 5)
    True
    """
    u, v = int(u), int(v)
    if u > v:
        u, v = v, u
    return np.random.SeedSequence(
        entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (EDGE_STREAM_TAG, u, v)
    )


def sample_edge_column(
    root: np.random.SeedSequence,
    u: int,
    v: int,
    probability: float,
    start: int,
    count: int,
    *,
    state=None,
) -> np.ndarray:
    """Presence bits of edge ``(u, v)`` in worlds ``[start, start + count)``.

    Each world consumes exactly one uniform double from the edge's
    stream, so ``start`` is a single O(1) ``advance`` jump and split
    draws equal whole draws.  ``state`` optionally supplies the cached
    position-0 PCG64 state of the edge's stream (see
    :func:`edge_stream_state`), skipping the SeedSequence hashing.

    The result is a pure function of ``(root, u, v, probability, start,
    count)`` — in particular it is *independent of the rest of the
    graph*, which is what lets a graph delta resample only the touched
    edges' columns, bit-identically to a cold run.

    Examples
    --------
    >>> root = np.random.SeedSequence(3)
    >>> whole = sample_edge_column(root, 0, 1, 0.5, 0, 20)
    >>> parts = [sample_edge_column(root, 0, 1, 0.5, 0, 8),
    ...          sample_edge_column(root, 0, 1, 0.5, 8, 12)]
    >>> bool(np.array_equal(whole, np.concatenate(parts)))
    True
    """
    if start < 0 or count < 0:
        raise ValueError(f"start and count must be non-negative, got {start}, {count}")
    bit_generator = np.random.PCG64(0)
    bit_generator.state = state if state is not None else edge_stream_state(root, u, v)
    if start:
        bit_generator.advance(start)
    return np.random.Generator(bit_generator).random(count) < float(probability)


def edge_stream_state(root: np.random.SeedSequence, u: int, v: int):
    """Position-0 PCG64 state of edge ``(u, v)``'s stream (cacheable)."""
    return np.random.PCG64(edge_seed_sequence(root, u, v)).state


def sample_mask_rows(
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    edge_prob: np.ndarray,
    root: np.random.SeedSequence,
    start: int,
    rows: int,
    state_cache: dict | None = None,
) -> np.ndarray:
    """Edge masks of pool worlds ``[start, start + rows)``.

    Returns a ``(rows, m)`` boolean matrix assembled column by column
    from the per-edge streams.  ``state_cache`` (an ``{(u, v): state}``
    dict) memoizes each edge's stream state across calls, so repeated
    chunks pay the SeedSequence hashing once per edge.

    Examples
    --------
    >>> src, dst = np.array([0, 1]), np.array([1, 2])
    >>> masks = sample_mask_rows(src, dst, np.array([0.5, 0.5]),
    ...                          np.random.SeedSequence(1), 0, 10)
    >>> masks.shape
    (10, 2)
    """
    if start < 0 or rows < 0:
        raise ValueError(f"start and rows must be non-negative, got {start}, {rows}")
    edge_prob = np.asarray(edge_prob, dtype=np.float64)
    m = len(edge_prob)
    masks = np.empty((rows, m), dtype=bool)
    bit_generator = np.random.PCG64(0)
    for j in range(m):
        key = (int(edge_src[j]), int(edge_dst[j]))
        state = state_cache.get(key) if state_cache is not None else None
        if state is None:
            state = edge_stream_state(root, *key)
            if state_cache is not None:
                state_cache[key] = state
        bit_generator.state = state
        if start:
            bit_generator.advance(start)
        masks[:, j] = np.random.Generator(bit_generator).random(rows) < edge_prob[j]
    return masks


class ParallelSampler:
    """Draws and labels chunks of worlds.

    Parameters
    ----------
    graph:
        The uncertain graph being sampled.

    Examples
    --------
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    >>> sampler = ParallelSampler(g)
    >>> masks, labels = sampler.sample_chunk(np.random.SeedSequence(3), 0, 10)
    >>> masks.shape, labels.shape
    ((10, 2), (10, 3))
    """

    def __init__(self, graph: UncertainGraph):
        self._graph = graph
        self._labeler = UnionFindWorldBackend()
        self._edge_states: dict = {}
        self._edge_states_root: tuple | None = None
        #: Cumulative phase wall time of this sampler instance, the
        #: source of the per-job ``timings`` breakdown (the global
        #: telemetry counters aggregate the same numbers fleet-wide).
        self.sample_seconds = 0.0
        self.label_seconds = 0.0
        self.chunks_produced = 0

    def sample_chunk(
        self, root: np.random.SeedSequence, start: int, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Masks and labels of pool worlds ``[start, start + count)``.

        Returns ``(masks, labels)`` of shapes ``(count, m)`` and
        ``(count, n)``.  The result is a pure function of
        ``(graph, root, start, count)`` — identical under any chunking
        pattern.
        """
        root_key = (root.entropy, tuple(root.spawn_key))
        if root_key != self._edge_states_root:
            self._edge_states = {}
            self._edge_states_root = root_key
        started = time.perf_counter()
        masks = sample_mask_rows(
            self._graph.edge_src,
            self._graph.edge_dst,
            self._graph.edge_prob,
            root,
            start,
            count,
            state_cache=self._edge_states,
        )
        sampled_at = time.perf_counter()
        # One labeling call per chunk (through the instance, so an
        # instrumented labeler class observes exactly the
        # progressive-sampling growth steps).
        labels = self._labeler.component_labels(self._graph, masks)
        sample_s = sampled_at - started
        label_s = time.perf_counter() - sampled_at
        self.sample_seconds += sample_s
        self.label_seconds += label_s
        self.chunks_produced += 1
        _SAMPLER_CHUNKS.inc()
        _SAMPLER_WORLDS.inc(count)
        _SAMPLER_SAMPLE_SECONDS.inc(sample_s)
        _SAMPLER_LABEL_SECONDS.inc(label_s)
        _SAMPLER_CHUNK_SECONDS.observe(sample_s + label_s)
        return masks, labels

    def sample_chunk_packed(
        self, root: np.random.SeedSequence, start: int, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Packed columns and labels of pool worlds ``[start, start + count)``.

        :meth:`sample_chunk` plus one pack: ``packed_cols`` is the
        store's edge-major ``(m, packed_words(count))`` ``uint64`` form
        (:func:`repro.sampling.store.pack_mask_columns`).
        """
        masks, labels = self.sample_chunk(root, start, count)
        return pack_mask_columns(masks), labels

    def __repr__(self) -> str:
        return f"ParallelSampler(n_nodes={self._graph.n_nodes}, n_edges={self._graph.n_edges})"
