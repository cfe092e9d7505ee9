"""Monte Carlo connection-probability oracle with progressive sampling.

:class:`MonteCarloOracle` is the sampling engine behind every clustering
algorithm in ``repro.core``.  It maintains a pool of sampled possible
worlds that *grows monotonically* ("progressive sampling", Section 4 of
the paper): when a guessing schedule lowers the probability threshold
``q`` and therefore needs more samples (Eq. 9/10), previously sampled
worlds are reused and only the difference is drawn.

Storage is chunked.  Each chunk keeps

* the component labels of its worlds — an ``(c, n)`` matrix of node
  indices, uint16 when the graph has at most 65536 nodes (int32
  otherwise, :func:`~repro.sampling.store.label_dtype`) so that
  connection queries compare half the bytes — for unbounded connection
  queries; the store keeps the same dtype, so served chunks are not
  converted,
* the edge masks, bit-packed into edge-major ``uint64`` columns (1/8 of
  the boolean bytes; see :mod:`repro.sampling.store`), which the
  hop-distance kernels walk directly and :meth:`chunk_masks` unpacks
  on demand.

With ``store=`` / ``cache_dir=``, chunks are additionally served from a
content-addressed :class:`~repro.sampling.store.WorldStore` before any
sampling happens: a pool drawn once for ``(graph, seed)`` is reused
across oracles — and, with a cache directory, across process runs —
bit-identically, at any chunk size, because world ``i`` is a pure
function of ``(seed, i)``.

Queries are answered against the whole pool:

``connection_to_all(u)``
    one vectorized equality pass per chunk, ``O(r * n)``;
``connection_to_all(u, depth=d)``, ``expected_distances(sources)``
    the packed multi-source BFS of :mod:`repro.sampling.worlds` per
    chunk, 64 worlds per word operation;
``pairwise_matrix(nodes)``
    one sparse product per pool (or, with ``depth``, one batched packed
    BFS from every node), used by the theoretical ACP variant
    (``alpha = n``) and by the AVPR quality metrics.

Thread-safety: an oracle instance is single-threaded (its pool lists
mutate without locks).  To share sampled worlds across threads —
the pattern :mod:`repro.service` uses for its job executor — give each
thread its own oracle attached to one shared
:class:`~repro.sampling.store.WorldStore`, whose operations are
thread-safe; the worlds are then drawn once and served to every
oracle bit-identically.
"""

from __future__ import annotations

import bisect
import time

import numpy as np
import scipy.sparse as sp

from repro import telemetry
from repro.exceptions import OracleError
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.parallel import ParallelSampler, ensure_seed_sequence, sample_mask_rows
from repro.sampling.store import (
    WorldStore,
    label_dtype,
    pack_mask_columns,
    unpack_mask_columns,
)
from repro.sampling.worlds import packed_bfs_counts


class MonteCarloOracle:
    """Progressive Monte Carlo estimator of connection probabilities.

    Parameters
    ----------
    graph:
        The uncertain graph to sample.
    seed:
        Seed for world sampling: ``None``, an ``int``, a
        :class:`numpy.random.SeedSequence`, or a generator (one integer
        is drawn from it to derive the root sequence).  World ``i``'s
        edge mask is a pure function of the seed and ``i`` (per-edge
        streams, :mod:`repro.sampling.parallel`), so the pool content
        is independent of the chunking pattern.
    chunk_size:
        Worlds sampled per growth step (amortizes the labelling cost).
        A batching choice only: it never changes the worlds, so pools
        are shared across chunk sizes.
    max_samples:
        Hard budget; :meth:`ensure_samples` raises :class:`OracleError`
        beyond it *before* drawing anything.  Guards against schedules
        running away on graphs whose optimum is genuinely tiny.
    store:
        Optional :class:`~repro.sampling.store.WorldStore`.  The oracle
        registers its ``(graph, seed)`` pool in the store, serves :meth:`ensure_samples` from already-stored
        worlds before drawing anything, and appends freshly drawn
        chunks back.  Cached and fresh worlds are bit-identical, so a
        warm oracle resumes progressive sampling mid-schedule.
    cache_dir:
        Convenience for ``store=WorldStore(cache_dir)``: a directory
        the pool is persisted to across process runs.  Mutually
        exclusive with ``store``.

    Examples
    --------
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5)])
    >>> oracle = MonteCarloOracle(g, seed=7)
    >>> oracle.ensure_samples(2000)
    >>> abs(oracle.connection(0, 1) - 0.5) < 0.05
    True
    """

    def __init__(
        self,
        graph: UncertainGraph,
        *,
        seed=None,
        chunk_size: int = 512,
        max_samples: int = 1_000_000,
        store: WorldStore | None = None,
        cache_dir=None,
    ):
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        if store is not None and cache_dir is not None:
            raise ValueError("pass either store= or cache_dir=, not both")
        self._graph = graph
        self._seed_seq = ensure_seed_sequence(seed)
        self._chunk_size = int(chunk_size)
        self._max_samples = int(max_samples)
        self._sampler = ParallelSampler(graph)
        if cache_dir is not None:
            store = WorldStore(cache_dir)
        self._store = store
        self._pool_digest = (
            store.register(graph, self._seed_seq) if store is not None else None
        )
        #: Columnar packed-mask blocks; ``None`` marks a chunk served
        #: from the store whose masks have not been needed yet (labels
        #: load eagerly, masks lazily — unbounded queries never touch
        #: them).  ``_chunk_starts`` remembers where such a chunk lives.
        self._packed_chunks: list[np.ndarray | None] = []
        self._chunk_starts: list[int] = []
        #: Label blocks covering the pool in world order; queries merge
        #: them into one (``_pool_labels``), so chunk boundaries are
        #: kept by ``_chunk_starts`` alone.
        self._label_chunks: list[np.ndarray] = []
        self._label_dtype = label_dtype(graph.n_nodes)
        self._n_samples = 0
        self._worlds_cached = 0
        self._worlds_sampled = 0
        self._store_read_s = 0.0
        self._store_write_s = 0.0
        self._distance_s = 0.0

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------

    @property
    def graph(self) -> UncertainGraph:
        return self._graph

    @property
    def n_nodes(self) -> int:
        return self._graph.n_nodes

    @property
    def num_samples(self) -> int:
        """Worlds currently in the pool."""
        return self._n_samples

    @property
    def max_samples(self) -> int:
        return self._max_samples

    @property
    def chunk_size(self) -> int:
        """Worlds per growth step of :meth:`ensure_samples`."""
        return self._chunk_size

    @property
    def stored_worlds(self) -> int:
        """Worlds the attached store holds for this pool (0 without a
        store, or when the store cannot be read: the cache is best
        effort).  :meth:`ensure_samples` serves the pool from them
        before it samples anything."""
        if self._store is None:
            return 0
        try:
            return self._store.count(self._pool_digest)
        except (OSError, ValueError, OracleError):
            return 0

    @property
    def store(self) -> WorldStore | None:
        """The attached world store, if any."""
        return self._store

    @property
    def pool_digest(self) -> str | None:
        """Content digest of this oracle's pool in the store (or ``None``)."""
        return self._pool_digest

    @property
    def cache_stats(self) -> dict:
        """Worlds served from the store vs freshly sampled, so far."""
        return {
            "worlds_cached": self._worlds_cached,
            "worlds_sampled": self._worlds_sampled,
        }

    @property
    def phase_timings(self) -> dict:
        """Cumulative wall seconds per sampling phase, so far.

        ``sample_s`` is mask drawing, ``label_s`` component labeling
        (both from the attached :class:`ParallelSampler`),
        ``store_read_s`` the time spent serving worlds from the store
        instead of sampling (labels up front, packed masks on a
        chunk's first depth or distance query), ``store_write_s`` the
        time spent appending freshly sampled chunks to the store, and
        ``distance_s`` the packed BFS kernel behind
        :meth:`expected_distances`, the depth-limited queries and
        :meth:`timed_distance` (harmonic closeness).  The service's
        per-job ``timings`` breakdown is the delta of this dict across
        one job.
        """
        return {
            "sample_s": self._sampler.sample_seconds,
            "label_s": self._sampler.label_seconds,
            "store_read_s": self._store_read_s,
            "store_write_s": self._store_write_s,
            "distance_s": self._distance_s,
            "chunks": self._sampler.chunks_produced,
        }

    @property
    def packed_mask_nbytes(self) -> int:
        """Bytes of the *materialized* bit-packed mask chunks (1/8 of
        boolean).  Store-served chunks whose masks were never needed
        (the unbounded-query warm path) count as 0 until a depth query
        materializes them."""
        return sum(chunk.nbytes for chunk in self._packed_chunks if chunk is not None)

    def ensure_samples(self, r: int) -> None:
        """Grow the pool to at least ``r`` worlds (never shrinks).

        Progressive-sampling invariant: chunks already in the pool are
        never re-sampled or re-labeled — only the difference between
        ``r`` and the current pool size is drawn.  With a store
        attached, that difference is first covered from stored worlds
        (bit-identical to freshly drawn ones); only the remainder is
        sampled, and sampled chunks are appended back to the store
        (best effort: an append that fails with :class:`OSError`, say
        on a full disk, keeps the chunk and loses only the cache).

        Raises
        ------
        OracleError
            If ``r`` exceeds ``max_samples``.  The check runs before
            any chunk is drawn, so a rejected request leaves the pool
            exactly as it was.
        """
        if r < 0:
            raise ValueError(f"r must be non-negative, got {r}")
        if r > self._max_samples:
            raise OracleError(
                f"requested {r} samples exceeds max_samples={self._max_samples}; "
                "raise the budget or use a clamping sample schedule"
            )
        tracer = telemetry.get_tracer()
        while self._n_samples < r:
            start = self._n_samples
            count = min(self._chunk_size, r - start)
            with tracer.span("oracle.chunk", start=start, count=count) as span:
                labels = self._load_cached_labels(start, count)
                if labels is not None:
                    packed = None  # masks stay in the store until a depth query
                    self._worlds_cached += labels.shape[0]
                    span.set("source", "store")
                else:
                    # The sampler packs the chunk columnar for the store
                    # and the pool.
                    packed, labels = self._sampler.sample_chunk_packed(
                        self._seed_seq, start, count
                    )
                    labels = labels.astype(self._label_dtype, copy=False)
                    self._worlds_sampled += count
                    span.set("source", "sampled")
                    if self._store is not None:
                        started = time.perf_counter()
                        try:
                            self._store.append(self._pool_digest, start, packed, labels)
                        except OSError:
                            pass  # a full or failing disk costs the cache, not the chunk
                        self._store_write_s += time.perf_counter() - started
            self._packed_chunks.append(packed)
            self._chunk_starts.append(start)
            self._label_chunks.append(labels)
            self._n_samples += labels.shape[0]

    def _load_cached_labels(self, start: int, want: int):
        """Labels of up to ``want`` stored worlds from ``start`` (miss: ``None``).

        Only the labels are read here; the packed mask columns stay in
        the store and are materialized by :meth:`_packed_chunk` if a
        depth-limited query ever needs them.  A pool cleared or
        truncated by another process between the count and the read is
        treated as a miss (we fall back to sampling), never as an
        error — the cache is best effort.
        """
        if self._store is None:
            return None
        started = time.perf_counter()
        try:
            available = self._store.count(self._pool_digest)
            if available <= start:
                return None
            take = min(want, available - start)
            return self._store.read_labels(self._pool_digest, start, start + take)
        except (OSError, ValueError, OracleError):
            return None
        finally:
            self._store_read_s += time.perf_counter() - started

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass  # the oracle holds no external resources

    @property
    def component_labels(self) -> np.ndarray:
        """Component labels of every sampled world, shape ``(r, n)``.

        Labels are canonical — entry ``(i, v)`` is the smallest node
        index in ``v``'s component of world ``i`` (see
        :mod:`repro.sampling.backends.unionfind`).  Used by the AVPR
        metrics, which count same-component pairs per world.
        """
        if not self._label_chunks:
            return np.empty((0, self._graph.n_nodes), dtype=np.int32)
        return self._pool_labels().astype(np.int32)

    def _pool_labels(self) -> np.ndarray:
        """Labels of every pooled world as one ``(r, n)`` array.

        Label chunks appended since the last call are merged here, so a
        query runs a few whole-pool numpy calls rather than a few per
        chunk, and the merged copy replaces the chunks (no second copy
        is kept).
        """
        if len(self._label_chunks) > 1:
            self._label_chunks = [np.concatenate(self._label_chunks)]
        return self._label_chunks[0]

    def _packed_chunk(self, index: int) -> np.ndarray:
        """Packed ``(m, words)`` mask columns of chunk ``index``.

        A chunk served from the store loads its packed columns here on
        first touch (timed as ``store_read_s``).  Should the stored pool
        have been cleared in the meantime, the chunk's masks are redrawn
        instead — masks are pure functions of ``(seed, start, count)``,
        so the result is bit-identical either way.  Only the masks are
        drawn: the chunk's labels are already held, so nothing is
        relabeled.
        """
        packed = self._packed_chunks[index]
        if packed is None:
            start = self._chunk_starts[index]
            stop = start + self.chunk_worlds(index)
            started = time.perf_counter()
            try:
                packed, _ = self._store.read(self._pool_digest, start, stop, labels=False)
            except (OSError, ValueError, OracleError):
                packed = None
            self._store_read_s += time.perf_counter() - started
            if packed is None:
                graph = self._graph
                packed = pack_mask_columns(sample_mask_rows(
                    graph.edge_src, graph.edge_dst, graph.edge_prob,
                    self._seed_seq, start, stop - start,
                ))
            self._packed_chunks[index] = packed
        return packed

    def timed_distance(self, kernel, *args):
        """``kernel(*args)``, its wall time booked as ``distance_s``.

        For packed-BFS kernels run on this oracle's worlds outside its
        own queries, e.g. harmonic closeness on :meth:`packed_worlds`.
        """
        started = time.perf_counter()
        try:
            return kernel(*args)
        finally:
            self._distance_s += time.perf_counter() - started

    def _chunk_bfs_counts(self, sources: np.ndarray, depth: int | None):
        """Yield :func:`packed_bfs_counts` ``(reached, hops)`` per chunk,
        timing the kernel as ``distance_s``."""
        for index in range(self.n_chunks):
            packed = self._packed_chunk(index)
            yield self.timed_distance(
                packed_bfs_counts, self._graph, packed, self.chunk_worlds(index), sources, depth
            )

    def _reach_counts(self, sources: np.ndarray, depth: int) -> np.ndarray:
        """Worlds of the pool where each node is within ``depth`` hops of
        each source, shape ``(s, n)``."""
        if depth < 0:
            raise ValueError(f"depth must be non-negative, got {depth}")
        return sum(reached for reached, _ in self._chunk_bfs_counts(sources, depth))

    def _require_samples(self) -> None:
        if self._n_samples == 0:
            raise OracleError("the oracle has no samples; call ensure_samples() first")

    # ------------------------------------------------------------------
    # Chunked pool access (the workload surface)
    # ------------------------------------------------------------------
    #
    # ``repro.workloads`` consumers read the pool by chunk or by world
    # range so every query family (clustering, k-median/k-center,
    # centrality) shares one set of sampled worlds: a pool warmed by any
    # workload is warm for all of them, and a store-served chunk loads
    # its masks from the store — never from the sampler.

    @property
    def n_chunks(self) -> int:
        """Number of chunks currently in the pool."""
        return len(self._chunk_starts)

    def chunk_worlds(self, index: int) -> int:
        """Worlds held by chunk ``index``."""
        starts = self._chunk_starts
        stop = starts[index + 1] if index + 1 < len(starts) else self._n_samples
        return stop - starts[index]

    def chunk_masks(self, index: int) -> np.ndarray:
        """Boolean ``(worlds, m)`` edge masks of chunk ``index``.

        Store-served chunks materialize their packed columns from the
        store on first touch (a read, not a resample).
        """
        return unpack_mask_columns(self._packed_chunk(index), self.chunk_worlds(index))

    def packed_worlds(self, start: int, stop: int) -> np.ndarray:
        """Packed ``(m, packed_words(stop - start))`` mask columns of the
        pooled worlds ``[start, stop)``.

        A range that is exactly one chunk is that chunk's columns (read
        from the store on first touch, like :meth:`chunk_masks`); any
        other range is cut from the chunks it spans and packed anew.
        """
        if not 0 <= start < stop <= self._n_samples:
            raise ValueError(
                f"world range [{start}, {stop}) outside the pool of {self._n_samples} worlds"
            )
        index = bisect.bisect_right(self._chunk_starts, start) - 1
        if self._chunk_starts[index] == start and self.chunk_worlds(index) == stop - start:
            return self._packed_chunk(index)
        parts = []
        while index < self.n_chunks and self._chunk_starts[index] < stop:
            offset = self._chunk_starts[index]
            parts.append(self.chunk_masks(index)[max(start - offset, 0):stop - offset])
            index += 1
        return pack_mask_columns(np.concatenate(parts))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def connection_to_all(self, node: int, depth: int | None = None) -> np.ndarray:
        """Estimated connection probability of ``node`` to every node.

        With ``depth=d`` the estimate is of the *d-connection*
        probability ``Pr(node ~d v)`` (paths of length at most ``d``).
        Entry ``node`` is exactly 1.
        """
        self._require_samples()
        sources = self._graph.node_indices([node])
        if depth is None:
            counts = np.zeros(self._graph.n_nodes, dtype=np.int64)
            labels = self._pool_labels()
            same = (labels == labels[:, sources]).view(np.uint8)
            # uint8 sums need no per-element cast and cannot overflow
            # over 255 worlds.
            for top in range(0, len(same), 255):
                counts += np.add.reduce(same[top:top + 255], axis=0, dtype=np.uint8)
        else:
            counts = self._reach_counts(sources, depth)[0]
        return counts / self._n_samples

    def connection(self, u: int, v: int, depth: int | None = None) -> float:
        """Estimated (d-)connection probability between ``u`` and ``v``."""
        self._require_samples()
        u, v = (int(node) for node in self._graph.node_indices([u, v]))
        if u == v:
            return 1.0
        if depth is None:
            hits = 0
            for labels in self._label_chunks:
                hits += int(np.sum(labels[:, u] == labels[:, v]))
            return hits / self._n_samples
        return float(self.connection_to_all(u, depth=depth)[v])

    def pairwise_matrix(self, nodes=None, depth: int | None = None) -> np.ndarray:
        """Estimated pairwise (d-)connection matrix over ``nodes``.

        Returns a dense symmetric ``(s, s)`` matrix with unit diagonal.
        For the unbounded case this runs one sparse indicator product
        over the pool (cost ~ sum of squared component sizes), not
        ``s^2`` individual queries; with ``depth`` it is one batched
        packed BFS from all of ``nodes`` per chunk.
        """
        self._require_samples()
        nodes = self._graph.node_indices(nodes)
        s = len(nodes)
        if s == 0:
            return np.zeros((0, 0))
        if depth is not None:
            matrix = self._reach_counts(nodes, depth)[:, nodes] / self._n_samples
            matrix = 0.5 * (matrix + matrix.T)  # symmetrize Monte Carlo noise
            np.fill_diagonal(matrix, 1.0)
            return matrix
        labels = self.component_labels[:, nodes]  # (r, s)
        r = labels.shape[0]
        # Compact the (world, label) pairs into group ids, then count
        # group co-membership with one sparse product Z Z^T.
        keys = labels.astype(np.int64) + np.arange(r, dtype=np.int64)[:, None] * (labels.max() + 1 if labels.size else 1)
        _, group = np.unique(keys.ravel(), return_inverse=True)
        node_pos = np.tile(np.arange(s, dtype=np.int64), r)
        data = np.ones(r * s, dtype=np.float64)
        z = sp.coo_matrix((data, (node_pos, group)), shape=(s, group.max() + 1 if len(group) else 1))
        z = z.tocsr()
        matrix = np.asarray((z @ z.T).todense()) / r
        np.fill_diagonal(matrix, 1.0)
        return matrix

    def expected_distances(self, sources=None) -> np.ndarray:
        """Estimated expected hop distance from each source to every node.

        Returns an ``(s, n)`` float64 matrix over the whole pool.  In a
        world where a pair is *disconnected* its distance is taken to be
        ``n_nodes`` — one more than any achievable hop count — so
        expected distances are finite, well defined on disconnected
        worlds, and each per-world distance (hence the expectation)
        remains a metric.  This "disconnection penalty" convention is
        shared by the exact-enumeration reference
        (:mod:`repro.workloads.exact`), making the estimate directly
        checkable against ground truth.

        Cost: one packed multi-source BFS per chunk
        (:func:`~repro.sampling.worlds.packed_bfs_counts`), which walks
        the chunk's mask columns 64 worlds per word and a bounded batch
        of sources at a time.  Per-pair hop sums are exact integers, so
        the result does not depend on chunking or batching.

        Examples
        --------
        >>> from repro.graph.uncertain_graph import UncertainGraph
        >>> g = UncertainGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        >>> oracle = MonteCarloOracle(g, seed=0)
        >>> oracle.ensure_samples(10)
        >>> oracle.expected_distances()[0].tolist()  # certain path 0-1-2
        [0.0, 1.0, 2.0]
        """
        self._require_samples()
        sources = self._graph.node_indices(sources)
        n = self._graph.n_nodes
        # Exact integer hop sums, with n for every unreached (world, pair).
        totals = np.full((len(sources), n), n * self._n_samples, dtype=np.int64)
        for reached, hops in self._chunk_bfs_counts(sources, None):
            reached *= n
            totals -= reached
            totals += hops
        return totals / self._n_samples

    def __repr__(self) -> str:
        return (
            f"MonteCarloOracle(n_nodes={self._graph.n_nodes}, "
            f"num_samples={self._n_samples}, max_samples={self._max_samples})"
        )
