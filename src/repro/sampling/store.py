"""Bit-packed, content-addressed persistent store of sampled worlds.

Monte Carlo world sampling dominates the running time of both MCP and
ACP (paper Section 4), yet the sampled pool is a pure function of
``(graph, seed)``: mask bit ``(i, e)`` depends only on the root seed,
edge ``e``'s endpoints and ``i`` (per-edge streams,
:mod:`repro.sampling.parallel`), and the canonical labels depend only
on the masks — not on the chunk size the worlds were drawn in.  This module exploits that purity three ways:

Bit packing, edge-major
    A block of ``(r, m)`` boolean edge masks is stored *columnar*: an
    ``(m, w)`` ``uint64`` matrix with ``w = packed_words(r)`` — row
    ``e`` is edge ``e``'s presence bitset over the block's worlds.
    That is still the 8x memory cut over numpy's byte-per-bool layout,
    but now one edge's bits are one contiguous row: a graph delta that
    touches ``t`` edges rewrites ``t`` rows and leaves the other
    ``m - t`` untouched (:mod:`repro.sampling.deltas`), and the packed
    BFS of :mod:`repro.sampling.worlds` walks the rows directly, 64
    worlds per word.  Masks are unpacked on demand, only where a
    consumer genuinely needs booleans (e.g. the per-world centrality
    kernels).
    Padding is per edge per *block* (≤ 7 bytes each), so pools grown in
    many small progressive steps carry more padding than pools written
    in whole chunks — a deliberate trade for append-only blocks.

Content addressing
    Pools are keyed by a SHA-256 digest of the store format version,
    the graph's edge endpoints and probabilities, and the root seed
    (:func:`pool_fingerprint`).  Any change to any input yields a
    different digest, so a cache can never serve stale worlds — the
    *invalidation contract*, pinned by ``tests/test_store.py`` and
    documented in ``docs/ARCHITECTURE.md``.

Delta derivation
    Because a mutated graph's fingerprint equals the fingerprint of
    cold-building its final edge set, a pool for the mutated graph can
    be *derived* from the parent pool — resampling only the touched
    columns, repairing only the affected labels — and registered under
    the digest the cold path would use (:func:`repro.sampling.deltas
    .derive_pool`).  Derived and cold pools are bit-identical.

:class:`WorldStore` holds one growing pool per digest, either purely in
memory or spilled to a disk directory (one subdirectory per digest with
raw ``numpy`` files read back through :class:`numpy.memmap`).  Pools
grow in *blocks* (one per append; ``meta.json`` records the block world
counts, since columnar packing makes block boundaries part of the
layout).  Because cached and freshly drawn worlds are bit-identical, a
:class:`~repro.sampling.oracle.MonteCarloOracle` can resume progressive
sampling from a cached pool mid-schedule and extend it in place.

Concurrency: reads are safe from any number of processes.  Disk
appends take an advisory ``flock`` on the pool directory and re-read
the on-disk world count first, so concurrent writers of the *same*
pool trim each other's overlap instead of misaligning file rows (safe
because any two writers produce identical rows — worlds are pure
functions of their position).  A pool cleared externally while a
writer is running simply stops being extended (the write is dropped,
never misplaced).  Within one process, every count/read/append (and
the size snapshots behind :meth:`WorldStore.info`) runs under a
per-store thread lock, so a single :class:`WorldStore` can back many
oracles across executor threads — the clustering service's hot path
(:mod:`repro.service`) relies on exactly this.  Individual
:class:`~repro.sampling.oracle.MonteCarloOracle` instances are *not*
thread-safe; share worlds by giving each thread its own oracle
attached to the shared store.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.exceptions import WorldStoreError
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.rng import ensure_seed_sequence

_STORE_POOLS = telemetry.get_registry().counter(
    "repro_store_pools_registered_total",
    "World pools attached to a store (new pool objects, not lookups).",
)
_STORE_WORLDS_READ = telemetry.get_registry().counter(
    "repro_store_worlds_read_total",
    "Worlds served from the store instead of being re-sampled.",
)
_STORE_BYTES_READ = telemetry.get_registry().counter(
    "repro_store_bytes_read_total",
    "Bytes of masks and labels served from the store.",
)
_STORE_WORLDS_APPENDED = telemetry.get_registry().counter(
    "repro_store_worlds_appended_total",
    "Freshly sampled worlds appended to the store.",
)
_STORE_BYTES_APPENDED = telemetry.get_registry().counter(
    "repro_store_bytes_appended_total",
    "Bytes of masks and labels appended to the store.",
)
_STORE_FLOCK_WAIT = telemetry.get_registry().histogram(
    "repro_store_flock_wait_seconds",
    "Time spent waiting for the advisory pool write lock (contention "
    "between concurrent appenders).",
    buckets=(0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
)

__all__ = [
    "WorldStore",
    "pack_mask_columns",
    "pack_masks",
    "packed_words",
    "pool_fingerprint",
    "unpack_mask_columns",
    "unpack_masks",
]

#: Bits per packed word; masks are stored as ``uint64`` bitsets.
WORD_BITS = 64

#: On-disk format version; bumped on any layout or keying change so old
#: cache directories are treated as misses rather than misread.  Version
#: 2 introduced the edge-major columnar layout; version 3 keys pools on
#: ``(graph, seed)`` alone (v2 keys also hashed a labeler name and a
#: chunk size).
FORMAT_VERSION = 3

_META_NAME = "meta.json"
_MASKS_NAME = "masks.u64"
_LABELS_NAME = "labels.i32"
_LOCK_NAME = ".lock"

#: Pool directories are named by their SHA-256 hex digest.
_DIGEST_RE = re.compile(r"[0-9a-f]{64}")


@contextmanager
def _pool_write_lock(directory: Path):
    """Advisory cross-process write lock on one pool directory."""
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX platforms
        yield
        return
    with open(directory / _LOCK_NAME, "a+b") as handle:
        waited = time.perf_counter()
        fcntl.flock(handle, fcntl.LOCK_EX)
        _STORE_FLOCK_WAIT.observe(time.perf_counter() - waited)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def packed_words(n_bits: int) -> int:
    """Number of ``uint64`` words needed to hold ``n_bits`` mask bits.

    Examples
    --------
    >>> packed_words(0), packed_words(1), packed_words(64), packed_words(65)
    (0, 1, 1, 2)
    """
    if n_bits < 0:
        raise ValueError(f"n_bits must be non-negative, got {n_bits}")
    return (int(n_bits) + WORD_BITS - 1) // WORD_BITS


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 2-D boolean matrix along axis 1 into whole uint64 words."""
    rows, n = bits.shape
    words = packed_words(n)
    packed_bytes = np.packbits(bits, axis=1, bitorder="little")
    row_bytes = words * (WORD_BITS // 8)
    if packed_bytes.shape[1] != row_bytes:
        padded = np.zeros((rows, row_bytes), dtype=np.uint8)
        padded[:, : packed_bytes.shape[1]] = packed_bytes
        packed_bytes = padded
    return np.ascontiguousarray(packed_bytes).view(np.uint64)


def _unpack_bits(packed: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits` (drops the pad bits)."""
    if packed.shape[1] != packed_words(n_bits):
        raise ValueError(
            f"packed rows hold {packed.shape[1]} words but {n_bits} bits "
            f"need {packed_words(n_bits)}"
        )
    if n_bits == 0:
        return np.zeros((packed.shape[0], 0), dtype=bool)
    bits = np.unpackbits(packed.view(np.uint8), axis=1, count=n_bits, bitorder="little")
    return bits.view(np.bool_)


def pack_masks(masks: np.ndarray) -> np.ndarray:
    """Pack boolean edge masks into world-major ``uint64`` bitset rows.

    The result has shape ``(r, packed_words(m))``: row ``i`` is world
    ``i``'s edge bitset.  Bit ``j`` of row ``i`` — little-endian within
    each word — is ``masks[i, j]``.  The store itself keeps the
    *columnar* layout (:func:`pack_mask_columns`); this row-major
    variant remains for world-at-a-time consumers.

    Examples
    --------
    >>> masks = np.array([[True, False, True], [False, True, False]])
    >>> packed = pack_masks(masks)
    >>> packed.shape, packed.dtype.name
    ((2, 1), 'uint64')
    >>> bool(np.array_equal(unpack_masks(packed, 3), masks))
    True
    """
    masks = np.ascontiguousarray(masks, dtype=bool)
    if masks.ndim != 2:
        raise ValueError(f"masks must be 2-D (worlds, edges), got shape {masks.shape}")
    return _pack_bits(masks)


def unpack_masks(packed: np.ndarray, n_edges: int) -> np.ndarray:
    """Unpack world-major ``uint64`` bitset rows back into boolean masks.

    Inverse of :func:`pack_masks`: returns a ``(r, n_edges)`` boolean
    array.  ``packed`` may be any array-like (including a
    :class:`numpy.memmap` slice read back from disk).
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    if packed.ndim != 2:
        raise ValueError(f"packed masks must be 2-D, got shape {packed.shape}")
    return _unpack_bits(packed, n_edges)


def pack_mask_columns(masks: np.ndarray) -> np.ndarray:
    """Pack boolean edge masks into the store's edge-major columnar form.

    The result has shape ``(m, packed_words(r))``: row ``e`` is edge
    ``e``'s presence bitset over the ``r`` worlds (bit ``i`` of row
    ``e`` is ``masks[i, e]``, little-endian within each word).  Same 8x
    memory cut as :func:`pack_masks`, but one edge's bits are one
    contiguous row — the property delta application relies on.

    Examples
    --------
    >>> masks = np.array([[True, False, True], [False, True, False]])
    >>> cols = pack_mask_columns(masks)
    >>> cols.shape, cols.dtype.name
    ((3, 1), 'uint64')
    >>> bool(np.array_equal(unpack_mask_columns(cols, 2), masks))
    True
    """
    masks = np.ascontiguousarray(masks, dtype=bool)
    if masks.ndim != 2:
        raise ValueError(f"masks must be 2-D (worlds, edges), got shape {masks.shape}")
    return _pack_bits(np.ascontiguousarray(masks.T))


def unpack_mask_columns(packed_cols: np.ndarray, n_worlds: int) -> np.ndarray:
    """Unpack columnar masks back into a world-major boolean matrix.

    Inverse of :func:`pack_mask_columns`: returns ``(n_worlds, m)``
    booleans from an ``(m, packed_words(n_worlds))`` word matrix.
    """
    packed_cols = np.ascontiguousarray(packed_cols, dtype=np.uint64)
    if packed_cols.ndim != 2:
        raise ValueError(f"packed columns must be 2-D, got shape {packed_cols.shape}")
    if packed_cols.shape[0] == 0:
        if packed_cols.shape[1] != packed_words(n_worlds):
            raise ValueError(
                f"packed columns hold {packed_cols.shape[1]} words but "
                f"{n_worlds} worlds need {packed_words(n_worlds)}"
            )
        return np.zeros((n_worlds, 0), dtype=bool)
    return np.ascontiguousarray(_unpack_bits(packed_cols, n_worlds).T)


def pool_fingerprint(graph: UncertainGraph, seed) -> str:
    """Content digest addressing one pool of sampled worlds.

    The SHA-256 digest covers everything the pool content depends on:
    the store format version, the graph's node count, edge endpoints
    and probabilities, and the root seed (entropy + spawn key of the
    resolved :class:`numpy.random.SeedSequence`).  Mutating *any* of
    these yields a different digest, so a cached pool can never be
    served for changed inputs.  The chunk size an oracle samples in is
    not part of the key: it never changes the worlds, so oracles of any
    chunk size share one pool.

    Because :meth:`UncertainGraph.mutate` stores edges in the canonical
    sorted order ``from_edges`` produces, a mutated graph fingerprints
    identically to cold-building its final edge set — which is what
    lets :func:`repro.sampling.deltas.derive_pool` register a derived
    pool under the digest the cold path would look up.

    Examples
    --------
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5)])
    >>> a = pool_fingerprint(g, 7)
    >>> a == pool_fingerprint(g, 7)
    True
    >>> a == pool_fingerprint(g, 8)
    False
    """
    seed_seq = ensure_seed_sequence(seed)
    digest = hashlib.sha256()
    digest.update(b"repro-world-pool-v%d" % FORMAT_VERSION)
    digest.update(str(graph.n_nodes).encode())
    digest.update(np.ascontiguousarray(graph.edge_src, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(graph.edge_dst, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(graph.edge_prob, dtype=np.float64).tobytes())
    digest.update(str(seed_seq.entropy).encode())
    digest.update(repr(tuple(int(k) for k in seed_seq.spawn_key)).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class PoolInfo:
    """Summary of one stored pool (for ``repro cache info`` and tests)."""

    digest: str
    n_worlds: int
    n_nodes: int
    n_edges: int
    n_blocks: int
    mask_bytes: int
    label_bytes: int
    persistent: bool


def _mask_block_bytes(n_edges: int, block_counts) -> int:
    return sum(int(n_edges) * packed_words(int(c)) * 8 for c in block_counts)


def _coerce_block_counts(value, n_worlds: int):
    """Validate a meta ``block_counts`` list against ``n_worlds``."""
    counts = [int(c) for c in value]
    if any(c <= 0 for c in counts) or sum(counts) != int(n_worlds):
        raise ValueError(f"block_counts {counts} do not sum to {n_worlds}")
    return counts


class _MemoryPool:
    """In-memory pool: growing lists of columnar-mask and label blocks."""

    def __init__(self, meta: dict):
        self.meta = meta
        self.packed_parts: list[np.ndarray] = []
        self.label_parts: list[np.ndarray] = []
        self.count = 0

    @property
    def block_counts(self) -> list[int]:
        return [part.shape[0] for part in self.label_parts]

    def read_masks(self, start: int, stop: int) -> np.ndarray:
        # Serve block-aligned ranges (the oracle's warm path reads the
        # pool back chunk by chunk) as stored views — parts are
        # append-only and treated as immutable, so no copy is needed.
        if start == stop:
            return _empty_cols(self.meta)
        offset = 0
        bool_slices = []
        for packed_cols, labels in zip(self.packed_parts, self.label_parts, strict=True):
            rows = labels.shape[0]
            lo = max(start - offset, 0)
            hi = min(stop - offset, rows)
            if lo < hi:
                if lo == 0 and hi == rows and start == offset and stop == offset + rows:
                    return packed_cols
                bool_slices.append(unpack_mask_columns(packed_cols, rows)[lo:hi])
            offset += rows
            if offset >= stop:
                break
        return pack_mask_columns(np.concatenate(bool_slices, axis=0))

    def read_labels(self, start: int, stop: int) -> np.ndarray:
        label_slices = []
        offset = 0
        for labels in self.label_parts:
            rows = labels.shape[0]
            lo = max(start - offset, 0)
            hi = min(stop - offset, rows)
            if lo < hi:
                if lo == 0 and hi == rows and start == offset and stop == offset + rows:
                    return labels
                label_slices.append(labels[lo:hi])
            offset += rows
            if offset >= stop:
                break
        if not label_slices:
            return _empty_labels(self.meta)
        if len(label_slices) == 1:
            return label_slices[0]  # a view, like the block-aligned read above
        return np.concatenate(label_slices, axis=0)

    def append(self, packed_cols: np.ndarray, labels: np.ndarray) -> None:
        self.packed_parts.append(np.ascontiguousarray(packed_cols, dtype=np.uint64))
        self.label_parts.append(np.ascontiguousarray(labels, dtype=np.int32))
        self.count += labels.shape[0]
        self.meta["n_worlds"] = self.count
        self.meta["block_counts"] = self.block_counts

    def nbytes(self) -> tuple[int, int]:
        return (
            sum(part.nbytes for part in self.packed_parts),
            sum(part.nbytes for part in self.label_parts),
        )


class _DiskPool:
    """Disk-backed pool: append-only block files + an atomic meta record.

    ``masks.u64`` holds the columnar blocks back to back (block ``b``
    occupies ``n_edges * packed_words(block_counts[b])`` words);
    ``labels.i32`` holds world-major label rows.  Data is appended
    first and the block list in ``meta.json`` updated (atomically, via
    ``os.replace``) last, so a torn append leaves trailing garbage that
    no reader ever addresses.
    """

    def __init__(self, directory: Path, meta: dict):
        self.directory = directory
        self.meta = meta
        self.count = int(meta.get("n_worlds", 0))
        self.block_counts = list(meta.get("block_counts", []))

    @property
    def masks_path(self) -> Path:
        return self.directory / _MASKS_NAME

    @property
    def labels_path(self) -> Path:
        return self.directory / _LABELS_NAME

    def _implied_bytes(self, count: int, block_counts) -> tuple[int, int]:
        return (
            _mask_block_bytes(int(self.meta["n_edges"]), block_counts),
            count * int(self.meta["n_nodes"]) * 4,
        )

    def refresh(self, truncate: bool = False) -> None:
        """Adopt the on-disk world count (another process may have grown
        or cleared the pool since we registered).  With ``truncate=True``
        — callers must hold the pool write lock — also restore the
        file-bytes == block-layout invariant by truncating any trailing
        bytes a torn append left behind (never safe from the read path:
        a concurrent writer's fresh rows look like trailing garbage
        until its meta lands).  Unsound state resets the count to 0 —
        re-sampling, never wrong worlds."""
        count = 0
        block_counts: list[int] = []
        try:
            with open(self.directory / _META_NAME, encoding="utf-8") as handle:
                disk = json.load(handle)
            if (
                disk.get("format") == FORMAT_VERSION
                and disk.get("digest") == self.meta["digest"]
                and int(disk["n_worlds"]) >= 0
            ):
                count = int(disk["n_worlds"])
                block_counts = _coerce_block_counts(disk.get("block_counts", []), count)
        except (OSError, ValueError, KeyError, TypeError):
            count, block_counts = 0, []
        mask_bytes, label_bytes = self._implied_bytes(count, block_counts)
        for path, implied in ((self.masks_path, mask_bytes), (self.labels_path, label_bytes)):
            size = path.stat().st_size if path.exists() else 0
            if size < implied:
                count, block_counts = 0, []  # data cannot back the meta: reset
                mask_bytes, label_bytes = self._implied_bytes(0, [])
                break
        if truncate:
            for path, implied in ((self.masks_path, mask_bytes), (self.labels_path, label_bytes)):
                if path.exists() and path.stat().st_size > implied:
                    os.truncate(path, implied)
        self.count = count
        self.block_counts = block_counts
        self.meta["n_worlds"] = count
        self.meta["block_counts"] = block_counts

    def read_labels(self, start: int, stop: int) -> np.ndarray:
        n = int(self.meta["n_nodes"])
        labels_map = np.memmap(
            self.labels_path, dtype=np.int32, mode="r", shape=(self.count, n)
        )
        labels = np.array(labels_map[start:stop])
        del labels_map
        return labels

    def read_masks(self, start: int, stop: int) -> np.ndarray:
        n_edges = int(self.meta["n_edges"])
        if start == stop:
            return _empty_cols(self.meta)
        if n_edges == 0:
            return np.zeros((0, packed_words(stop - start)), dtype=np.uint64)
        masks_map = np.memmap(self.masks_path, dtype=np.uint64, mode="r")
        try:
            offset_words = 0
            bool_slices = []
            block_start = 0
            for rows in self.block_counts:
                words = packed_words(rows)
                lo = max(start - block_start, 0)
                hi = min(stop - block_start, rows)
                if lo < hi:
                    block = np.array(
                        masks_map[offset_words: offset_words + n_edges * words]
                    ).reshape(n_edges, words)
                    if lo == 0 and hi == rows and start == block_start and stop == block_start + rows:
                        return block
                    bool_slices.append(unpack_mask_columns(block, rows)[lo:hi])
                offset_words += n_edges * words
                block_start += rows
                if block_start >= stop:
                    break
            return pack_mask_columns(np.concatenate(bool_slices, axis=0))
        finally:
            del masks_map

    def append(self, packed_cols: np.ndarray, labels: np.ndarray) -> None:
        packed_cols = np.ascontiguousarray(packed_cols, dtype=np.uint64)
        labels = np.ascontiguousarray(labels, dtype=np.int32)
        if packed_cols.shape[0]:
            with open(self.masks_path, "ab") as handle:
                handle.write(packed_cols.tobytes())
        with open(self.labels_path, "ab") as handle:
            handle.write(labels.tobytes())
        self.count += labels.shape[0]
        self.block_counts.append(int(labels.shape[0]))
        self.meta["n_worlds"] = self.count
        self.meta["block_counts"] = list(self.block_counts)
        _write_meta(self.directory, self.meta)

    def nbytes(self) -> tuple[int, int]:
        return self._implied_bytes(self.count, self.block_counts)


def _empty_cols(meta: dict) -> np.ndarray:
    return np.zeros((int(meta["n_edges"]), 0), dtype=np.uint64)


def _empty_labels(meta: dict) -> np.ndarray:
    return np.zeros((0, int(meta["n_nodes"])), dtype=np.int32)


def _slice_block_worlds(packed_cols: np.ndarray, rows: int, lo: int, hi: int) -> np.ndarray:
    """Columnar re-slice of worlds ``[lo, hi)`` out of a packed block."""
    if lo == 0 and hi == rows:
        return packed_cols
    return pack_mask_columns(unpack_mask_columns(packed_cols, rows)[lo:hi])


def _write_meta(directory: Path, meta: dict) -> None:
    tmp = directory / (_META_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, directory / _META_NAME)


class WorldStore:
    """Content-addressed store of bit-packed world pools.

    Parameters
    ----------
    cache_dir:
        ``None`` keeps every pool in memory (useful for sharing pools
        between oracles inside one process).  A directory path spills
        pools to disk — one subdirectory per digest, raw binary data
        files read back through :class:`numpy.memmap` — so pools
        persist across process runs.  The directory is created lazily
        on the first append.

    Examples
    --------
    >>> from repro.sampling.oracle import MonteCarloOracle
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    >>> store = WorldStore()                     # in-memory
    >>> with MonteCarloOracle(g, seed=7, store=store) as oracle:
    ...     oracle.ensure_samples(100)
    >>> [pool.n_worlds for pool in store.info()]
    [100]
    >>> with MonteCarloOracle(g, seed=7, store=store) as warm:
    ...     warm.ensure_samples(100)             # served from the store
    ...     warm.cache_stats["worlds_cached"]
    100
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._pools: dict[str, _MemoryPool | _DiskPool] = {}
        self._lock = threading.Lock()

    @property
    def cache_dir(self) -> Path | None:
        """Spill directory, or ``None`` for a purely in-memory store."""
        return self._cache_dir

    @property
    def persistent(self) -> bool:
        return self._cache_dir is not None

    # ------------------------------------------------------------------
    # Pool registry
    # ------------------------------------------------------------------

    def register(self, graph: UncertainGraph, seed) -> str:
        """Resolve (and, on disk, validate) the pool for these inputs.

        Returns the pool digest used by :meth:`count` / :meth:`read` /
        :meth:`append`.  A disk pool whose metadata or data files are
        missing, truncated, or inconsistent is discarded and treated as
        empty — corruption can cost re-sampling, never wrong worlds.
        """
        digest = pool_fingerprint(graph, seed)
        meta = {
            "format": FORMAT_VERSION,
            "digest": digest,
            "n_worlds": 0,
            "block_counts": [],
            "n_nodes": int(graph.n_nodes),
            "n_edges": int(graph.n_edges),
        }
        with self._lock:
            pool = self._pools.get(digest)
            if pool is not None and not isinstance(pool, _DiskPool):
                return digest
            if self._cache_dir is None:
                self._pools[digest] = _MemoryPool(meta)
                _STORE_POOLS.inc()
            else:
                # Disk pools are (re-)validated on every register, even
                # when _scan_disk already listed them: scanning only
                # reads metadata, and the corruption-recovery contract
                # (reset, never crash) must hold for oracle attachment.
                directory = self._cache_dir / digest
                disk_meta = self._load_valid_meta(directory, meta)
                if digest not in self._pools:
                    _STORE_POOLS.inc()
                self._pools[digest] = _DiskPool(directory, disk_meta)
        return digest

    def _load_valid_meta(self, directory: Path, fresh_meta: dict) -> dict:
        """Validate an existing pool directory; reset it when unsound."""
        meta_path = directory / _META_NAME
        if not meta_path.exists():
            return dict(fresh_meta)
        try:
            with open(meta_path, encoding="utf-8") as handle:
                meta = json.load(handle)
            count = int(meta["n_worlds"])
            ok = (
                meta.get("format") == FORMAT_VERSION
                and meta.get("digest") == fresh_meta["digest"]
                and int(meta["n_nodes"]) == fresh_meta["n_nodes"]
                and int(meta["n_edges"]) == fresh_meta["n_edges"]
                and count >= 0
            )
            block_counts: list[int] = []
            if ok:
                block_counts = _coerce_block_counts(meta.get("block_counts", []), count)
            if ok and count:
                mask_bytes = _mask_block_bytes(fresh_meta["n_edges"], block_counts)
                if mask_bytes:
                    ok = (directory / _MASKS_NAME).stat().st_size >= mask_bytes
                ok = ok and (
                    (directory / _LABELS_NAME).stat().st_size
                    >= count * fresh_meta["n_nodes"] * 4
                )
            if ok:
                merged = dict(fresh_meta)
                merged["n_worlds"] = count
                merged["block_counts"] = block_counts
                return merged
        except (OSError, ValueError, KeyError, TypeError):
            pass
        shutil.rmtree(directory, ignore_errors=True)
        return dict(fresh_meta)

    def _pool(self, digest: str):
        try:
            return self._pools[digest]
        except KeyError:
            raise WorldStoreError(
                f"unknown pool digest {digest[:12]}...; call register() first"
            ) from None

    # ------------------------------------------------------------------
    # Pool access
    # ------------------------------------------------------------------

    def count(self, digest: str) -> int:
        """Worlds currently stored for ``digest``.

        Disk pools re-read the on-disk count, so growth (or clearing)
        by another process is observed before the next read or append.
        """
        pool = self._pool(digest)
        with self._lock:
            if isinstance(pool, _DiskPool):
                pool.refresh()
            return pool.count

    def read(
        self, digest: str, start: int, stop: int, *, labels: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Columnar masks and labels of stored worlds ``[start, stop)``.

        Returns ``(packed_cols, labels)`` of shapes
        ``(m, packed_words(rows))`` uint64 and ``(rows, n)`` int32.
        With ``labels=False`` no label bytes are touched and ``None``
        stands in for them: the masks-only read of an oracle chunk
        whose labels are already held.
        Block-aligned ranges (the oracle's warm path) are served as
        stored views/copies directly; misaligned ranges are re-packed.
        Disk pools are copied out of their memmap so no file handle
        outlives the call; in-memory pools may return *views* of the
        stored parts (parts are append-only and treated as immutable),
        so callers must not mutate the result.

        The range check and the copy-out run under the store lock, so a
        concurrent :meth:`append` or disk :meth:`refresh` from another
        thread (the service's job executor shares one store across all
        worker threads) can never shift ``pool.count`` between the
        validation and the slice.  Readers in *other processes* are
        lock-free as before: data files are append-only and the meta
        block list lands atomically after the rows it describes.
        """
        with self._lock:
            pool = self._pool(digest)
            if not 0 <= start <= stop <= pool.count:
                raise WorldStoreError(
                    f"read range [{start}, {stop}) outside stored pool of {pool.count} worlds"
                )
            packed_cols = pool.read_masks(start, stop)
            label_rows = pool.read_labels(start, stop) if labels else None
        # A masks-only read follows a labels read of the same worlds,
        # which already counted them; bytes count on every read.
        if label_rows is not None:
            _STORE_WORLDS_READ.inc(stop - start)
        _STORE_BYTES_READ.inc(
            packed_cols.nbytes + (0 if label_rows is None else label_rows.nbytes)
        )
        return packed_cols, label_rows

    def read_labels(self, digest: str, start: int, stop: int) -> np.ndarray:
        """Labels only, worlds ``[start, stop)`` — no mask bytes touched.

        The warm clustering fast path: unbounded connection queries
        never look at the masks, so a warm oracle loads labels eagerly
        and defers the (possibly repack-heavy) columnar mask read until
        a depth-limited query actually needs it.  Same locking and
        view/copy contract as :meth:`read`.
        """
        with self._lock:
            pool = self._pool(digest)
            if not 0 <= start <= stop <= pool.count:
                raise WorldStoreError(
                    f"read range [{start}, {stop}) outside stored pool of {pool.count} worlds"
                )
            labels = pool.read_labels(start, stop)
        _STORE_WORLDS_READ.inc(stop - start)
        _STORE_BYTES_READ.inc(labels.nbytes)
        return labels

    def append(self, digest: str, start: int, packed_cols: np.ndarray, labels: np.ndarray) -> int:
        """Append worlds ``[start, start + rows)``; returns the new count.

        ``packed_cols`` is the columnar block (``(m, packed_words(rows))``
        uint64, see :func:`pack_mask_columns`); ``labels`` its ``(rows,
        n)`` world labels; ``start`` the absolute pool position of the
        first appended world.  Worlds the store already holds are
        silently dropped (safe: worlds are pure functions of their
        position, so any two writers produce identical rows).  A gap
        beyond the current end raises
        :class:`~repro.exceptions.WorldStoreError` for in-memory pools
        (a same-process logic error); for disk pools — where a gap
        means another process cleared the pool out from under us — the
        write is dropped and the current count returned, keeping the
        cache best-effort instead of failing the sampling run.

        Disk appends hold an advisory ``flock`` on the pool directory
        and re-read the on-disk count first, so concurrent writers of
        the same pool interleave safely (each extends whatever the
        other already persisted).
        """
        packed_cols = np.ascontiguousarray(packed_cols, dtype=np.uint64)
        labels = np.ascontiguousarray(labels, dtype=np.int32)
        rows = labels.shape[0]
        if packed_cols.shape[1] != packed_words(rows):
            raise WorldStoreError(
                f"columnar block holds {packed_cols.shape[1]} words per edge "
                f"but {rows} label rows need {packed_words(rows)}"
            )
        with self._lock:
            pool = self._pool(digest)
            if packed_cols.shape[0] != int(pool.meta["n_edges"]):
                raise WorldStoreError(
                    f"columnar block has {packed_cols.shape[0]} edge rows, "
                    f"pool expects {pool.meta['n_edges']}"
                )
            if isinstance(pool, _DiskPool):
                pool.directory.mkdir(parents=True, exist_ok=True)
                with _pool_write_lock(pool.directory):
                    pool.refresh(truncate=True)
                    if start > pool.count:
                        return pool.count  # pool was cleared underneath us
                    skip = pool.count - start
                    if skip < rows:
                        if not (pool.directory / _META_NAME).exists():
                            _write_meta(pool.directory, pool.meta)
                        block = _slice_block_worlds(packed_cols, rows, skip, rows)
                        pool.append(block, labels[skip:])
                        _STORE_WORLDS_APPENDED.inc(rows - skip)
                        _STORE_BYTES_APPENDED.inc(block.nbytes + labels[skip:].nbytes)
                return pool.count
            if start > pool.count:
                raise WorldStoreError(
                    f"append at {start} would leave a gap (pool has {pool.count} worlds)"
                )
            skip = pool.count - start
            if skip < rows:
                block = _slice_block_worlds(packed_cols, rows, skip, rows)
                pool.append(block, labels[skip:])
                _STORE_WORLDS_APPENDED.inc(rows - skip)
                _STORE_BYTES_APPENDED.inc(block.nbytes + labels[skip:].nbytes)
            return pool.count

    # ------------------------------------------------------------------
    # Maintenance (CLI `repro cache {info,clear}`)
    # ------------------------------------------------------------------

    def _scan_disk(self) -> None:
        """Register every pool directory found under ``cache_dir``."""
        if self._cache_dir is None or not self._cache_dir.is_dir():
            return
        for entry in sorted(self._cache_dir.iterdir()):
            meta_path = entry / _META_NAME
            if entry.name in self._pools or not meta_path.is_file():
                continue
            try:
                with open(meta_path, encoding="utf-8") as handle:
                    meta = json.load(handle)
                if meta.get("format") != FORMAT_VERSION or meta.get("digest") != entry.name:
                    continue
                # Coerce the required keys now so a meta.json missing any
                # of them is skipped here instead of crashing info() later.
                for key in ("n_worlds", "n_nodes", "n_edges"):
                    meta[key] = int(meta[key])
                meta["block_counts"] = _coerce_block_counts(
                    meta.get("block_counts", []), meta["n_worlds"]
                )
                with self._lock:
                    self._pools.setdefault(entry.name, _DiskPool(entry, meta))
            except (OSError, ValueError, KeyError, TypeError):
                continue

    def info(self) -> list[PoolInfo]:
        """One :class:`PoolInfo` per stored pool (disk pools included).

        Thread-safe: sizes are snapshotted under the store lock, so a
        pool growing in another thread is reported at a consistent
        count rather than mid-append.
        """
        self._scan_disk()
        rows = []
        with self._lock:
            pools = sorted(self._pools.items())
        for digest, pool in pools:
            with self._lock:
                if self._pools.get(digest) is not pool:
                    continue  # cleared between the snapshot and this row
                mask_bytes, label_bytes = pool.nbytes()
                n_worlds = pool.count
                n_blocks = len(pool.block_counts)
            rows.append(
                PoolInfo(
                    digest=digest,
                    n_worlds=n_worlds,
                    n_nodes=int(pool.meta["n_nodes"]),
                    n_edges=int(pool.meta["n_edges"]),
                    n_blocks=n_blocks,
                    mask_bytes=mask_bytes,
                    label_bytes=label_bytes,
                    persistent=isinstance(pool, _DiskPool),
                )
            )
        return rows

    def clear(self, digest: str | None = None) -> int:
        """Drop one pool (or all of them); returns how many were removed.

        On a disk store this removes the named directories themselves,
        including pool directories whose metadata is corrupt or from an
        older format version — ``clear`` is the recovery tool, so it
        must not skip exactly the pools that failed to register.
        """
        self._scan_disk()
        with self._lock:
            digests = [digest] if digest is not None else list(self._pools)
            removed = 0
            for key in digests:
                pool = self._pools.pop(key, None)
                if isinstance(pool, _DiskPool):
                    shutil.rmtree(pool.directory, ignore_errors=True)
                if pool is not None:
                    removed += 1
            if self._cache_dir is not None and self._cache_dir.is_dir():
                # Sweep unregistered leftovers (corrupt meta, old format)
                # — but only directories that look like pools (64-hex
                # digest name + meta file), so clearing a mistyped path
                # can never destroy unrelated user data.
                leftovers = (
                    [self._cache_dir / digest] if digest is not None
                    else list(self._cache_dir.iterdir())
                )
                for entry in leftovers:
                    if (
                        entry.is_dir()
                        and _DIGEST_RE.fullmatch(entry.name)
                        and (entry / _META_NAME).exists()
                    ):
                        shutil.rmtree(entry, ignore_errors=True)
                        removed += 1
        return removed

    def __repr__(self) -> str:
        where = str(self._cache_dir) if self._cache_dir is not None else "memory"
        return f"WorldStore(pools={len(self._pools)}, cache_dir={where!r})"
