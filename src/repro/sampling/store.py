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
raw ``numpy`` files, read back with :func:`numpy.fromfile`).  Pools
grow in *blocks* (one per append; columnar packing makes block
boundaries part of the layout).  A disk pool's block world counts live
in an append-only ledger, ``blocks.ledger``: a header line written once
when the pool is created, then one fixed-width record per block, so an
append publishes its block with one small ``O_APPEND`` write after the
block's data.  Labels are node indices stored as ``uint16`` up to 65536
nodes (``labels.u16``) and ``int32`` beyond (``labels.i32``), the one
rule :func:`label_dtype` the oracle keeps too.  Memory and disk pools
are one type, :class:`_Pool`: one block walk serves every read, one
byte ledger sizes the pool, and the two differ only in where a block's
bytes live.  One validator (:meth:`_Pool.load`) decides whether a pool
directory is sound; an unsound one is never served.  Its parse is
memoized by the exact ledger bytes: every count, register and append
still reads the whole ledger and checks the data file sizes, and
parses only the records past the bytes it parsed before.  Because
cached and freshly drawn worlds are bit-identical, a
:class:`~repro.sampling.oracle.MonteCarloOracle` can resume progressive
sampling from a cached pool mid-schedule and extend it in place.

Concurrency: reads are safe from any number of processes.  Disk
appends take an advisory ``flock`` on the pool directory and re-read
the on-disk world count first, so concurrent writers of the *same*
pool trim each other's overlap instead of misaligning file rows (safe
because any two writers produce identical rows — worlds are pure
functions of their position).  A pool cleared externally while a
writer is running simply stops being extended (the write is dropped,
never misplaced).  No mtime or inode is trusted: a pool is re-checked
by its ledger content and its data file sizes.  Within one process,
every count/read/append (and the size snapshots behind
:meth:`WorldStore.info`) runs under a per-store thread lock, so a
single :class:`WorldStore` can back many oracles across executor
threads — the clustering service's hot path (:mod:`repro.service`)
relies on exactly this.  Individual
:class:`~repro.sampling.oracle.MonteCarloOracle` instances are *not*
thread-safe; share worlds by giving each thread its own oracle
attached to the shared store.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import struct
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
    "label_dtype",
    "pack_mask_columns",
    "packed_words",
    "pool_fingerprint",
    "unpack_mask_columns",
]

#: Bits per packed word; masks are stored as ``uint64`` bitsets.
WORD_BITS = 64

#: On-disk format version; bumped on any layout or keying change so old
#: cache directories are treated as misses rather than misread.  Version
#: 2 introduced the edge-major columnar layout; version 3 keys pools on
#: ``(graph, seed)`` alone (v2 keys also hashed a labeler name and a
#: chunk size); version 4 stores labels as ``uint16`` up to 65536 nodes
#: (:func:`label_dtype`); version 5 records the block layout in an
#: append-only ledger instead of a ``meta.json`` rewritten per append.
FORMAT_VERSION = 5

#: A pool's block ledger: one header line, then one record per block.
_LEDGER_NAME = "blocks.ledger"
#: The per-pool JSON file of formats 1-4, which held the whole layout.
_LEGACY_META_NAME = "meta.json"
_LOCK_NAME = ".lock"

#: One ledger record: a block's world count, little-endian ``uint64``.
_RECORD = struct.Struct("<Q")

#: The two kinds of bytes a pool holds, one data file each.
_MASKS, _LABELS = "masks", "labels"
_MASK_DTYPE = np.dtype(np.uint64)

#: Data file of each element type.
_FILE_NAMES = {
    _MASK_DTYPE: "masks.u64",
    np.dtype(np.uint16): "labels.u16",
    np.dtype(np.int32): "labels.i32",
}

#: Pool directories are named by their SHA-256 hex digest.
_DIGEST_RE = re.compile(r"[0-9a-f]{64}")


def label_dtype(n_nodes: int) -> np.dtype:
    """The label layout of an ``n_nodes`` graph, in memory and on disk.

    Labels are node indices, so ``uint16`` holds them up to 65536 nodes
    and ``int32`` beyond.  The store writes and reads this dtype and
    the oracle keeps it, so a store-served chunk needs no conversion.

    Examples
    --------
    >>> label_dtype(65536).name, label_dtype(65537).name
    ('uint16', 'int32')
    """
    return np.dtype(np.uint16 if n_nodes <= 1 << 16 else np.int32)


@contextmanager
def _pool_write_lock(directory: str):
    """Advisory cross-process write lock on one pool directory."""
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX platforms
        yield
        return
    with open(os.path.join(directory, _LOCK_NAME), "a+b") as handle:
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


def pack_mask_columns(masks: np.ndarray) -> np.ndarray:
    """Pack boolean edge masks into the store's edge-major columnar form.

    The result has shape ``(m, packed_words(r))``: row ``e`` is edge
    ``e``'s presence bitset over the ``r`` worlds (bit ``i`` of row
    ``e`` is ``masks[i, e]``, little-endian within each word).  That is
    an 8x memory cut over the boolean bytes, and one edge's bits are
    one contiguous row — the property delta application relies on.

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
    n_worlds, n_edges = masks.shape
    packed_bytes = np.packbits(np.ascontiguousarray(masks.T), axis=1, bitorder="little")
    row_bytes = packed_words(n_worlds) * (WORD_BITS // 8)
    if packed_bytes.shape[1] != row_bytes:
        padded = np.zeros((n_edges, row_bytes), dtype=np.uint8)
        padded[:, : packed_bytes.shape[1]] = packed_bytes
        packed_bytes = padded
    return np.ascontiguousarray(packed_bytes).view(np.uint64)


def unpack_mask_columns(packed_cols: np.ndarray, n_worlds: int) -> np.ndarray:
    """Unpack columnar masks back into a world-major boolean matrix.

    Inverse of :func:`pack_mask_columns`: returns ``(n_worlds, m)``
    booleans from an ``(m, packed_words(n_worlds))`` word matrix (pad
    bits dropped).  ``packed_cols`` may be any array-like, including a
    :class:`numpy.memmap` view.
    """
    packed_cols = np.ascontiguousarray(packed_cols, dtype=np.uint64)
    if packed_cols.ndim != 2:
        raise ValueError(f"packed columns must be 2-D, got shape {packed_cols.shape}")
    if packed_cols.shape[1] != packed_words(n_worlds):
        raise ValueError(
            f"packed columns hold {packed_cols.shape[1]} words but "
            f"{n_worlds} worlds need {packed_words(n_worlds)}"
        )
    if packed_cols.shape[0] == 0 or n_worlds == 0:
        return np.zeros((n_worlds, packed_cols.shape[0]), dtype=bool)
    bits = np.unpackbits(
        packed_cols.view(np.uint8), axis=1, count=n_worlds, bitorder="little"
    )
    return np.ascontiguousarray(bits.view(np.bool_).T)


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
    # The graph part is hashed once per graph object and copied per seed.
    digest = graph.content_hash(b"repro-world-pool-v%d" % FORMAT_VERSION)
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


def _file_size(path: str) -> int:
    try:
        return os.stat(path).st_size
    except FileNotFoundError:
        return 0


def _read_bytes(path: str, size_hint: int = 0) -> bytes | None:
    """All bytes of the file at ``path``, or ``None`` if it cannot be read.

    The buffer is sized from ``size_hint`` (the bytes last seen there),
    so a file that has not grown much is read with one ``os.read``: a
    short read of a regular file is its end.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    try:
        size = max(4096, 2 * size_hint)
        chunks = [os.read(fd, size)]
        while len(chunks[-1]) == size:
            chunks.append(os.read(fd, size))
        return b"".join(chunks)
    except OSError:
        return None
    finally:
        os.close(fd)


def _append_bytes(path: str, data, create: bool = True) -> None:
    """Append the bytes of ``data`` (a contiguous array or bytes) to ``path``.

    One ``O_APPEND`` write per call unless the kernel writes short.
    With ``create=False`` a missing file raises instead of being made.
    """
    flags = os.O_WRONLY | os.O_APPEND | (os.O_CREAT if create else 0)
    fd = os.open(path, flags, 0o666)
    try:
        view = memoryview(data.reshape(-1) if isinstance(data, np.ndarray) else data).cast("B")
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _read_file(path: str, dtype: np.dtype, offset: int, shape: tuple[int, int]) -> np.ndarray:
    """``shape`` items of ``dtype`` from ``offset`` (in items) of the data file ``path``.

    A file too short to hold them raises
    :class:`~repro.exceptions.WorldStoreError`: a read never returns
    fewer worlds than its range names.
    """
    count = shape[0] * shape[1]
    if not count:
        return np.zeros(shape, dtype=dtype)  # nothing to read; the file may not exist
    data = np.fromfile(path, dtype=dtype, count=count, offset=offset * dtype.itemsize)
    if data.size != count:
        raise WorldStoreError(f"{path} ends before the block layout its ledger records")
    return data.reshape(shape)


class _Pool:
    """One pool of worlds: its byte ledger and where its blocks live.

    Worlds arrive in *blocks*, one per append: block ``b`` holds
    ``block_counts[b]`` worlds as ``(n_edges, packed_words(rows))``
    ``uint64`` mask columns plus ``(rows, n_nodes)`` label rows of
    :func:`label_dtype`.  An in-memory pool keeps each block's two
    arrays in ``parts``; a disk pool (``directory`` set) keeps them back
    to back in ``masks.u64`` and ``labels.u16`` (``labels.i32`` above
    65536 nodes), each block at the offset the blocks before it imply.

    A disk pool's layout lives in ``blocks.ledger``: a one-line JSON
    header (format, digest, ``n_nodes``, ``n_edges``) written once, via
    ``os.replace``, before the pool's first data, then one fixed-width
    record (:data:`_RECORD`) per block.  An append writes the block's
    data first and its record last, with one ``O_APPEND`` write, so a
    torn append leaves trailing data bytes, or a partial record, that no
    reader ever counts.

    The ledger — ``block_counts``, ``count``, ``mask_bytes`` and
    ``label_bytes`` — is kept current by every append and refresh, so
    a size query is two attribute reads.  A disk pool also keeps the
    exact ledger bytes (header and whole records) it was parsed from
    (``ledger``, ``None`` while no sound ledger backs it): a refresh
    whose read starts with those bytes parses only the records past
    them, and checks the data file sizes every time.
    """

    def __init__(self, digest: str, n_nodes: int, n_edges: int,
                 directory: str | None = None, ledger: bytes | None = None):
        self.digest = digest
        self.n_nodes = n_nodes
        self.n_edges = n_edges
        self.directory = directory
        self.ledger = ledger
        if directory is None:
            self.parts: dict[str, list[np.ndarray]] = {_MASKS: [], _LABELS: []}
        self._set_layout([])

    @classmethod
    def load(cls, directory: str, digest: str, shape: tuple[int, int] | None = None,
             raw: bytes | None = None):
        """The one pool validator: ``directory``'s pool if sound, else ``None``.

        Sound means the ledger (``raw`` when the caller has already read
        it) opens with a header line that parses and names this format
        version, ``digest`` and — when ``shape`` gives them — the
        expected ``(n_nodes, n_edges)``; every whole record after it
        counts a positive number of worlds; and both data files hold at
        least the bytes that layout implies.  A trailing partial record,
        and data bytes past the layout, are a torn append's: never
        counted, never addressed.
        """
        if raw is None:
            raw = _read_bytes(os.path.join(directory, _LEDGER_NAME))
            if raw is None:
                return None
        try:
            end = raw.index(b"\n") + 1
            header = json.loads(raw[:end])
            n_nodes, n_edges = int(header["n_nodes"]), int(header["n_edges"])
            if not (
                header["format"] == FORMAT_VERSION
                and header["digest"] == digest
                and shape in (None, (n_nodes, n_edges))
                and min(n_nodes, n_edges) >= 0
            ):
                return None
            pool = cls(digest, n_nodes, n_edges, directory, raw[:end])
            return pool if pool._take(raw) else None
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def _set_layout(self, block_counts: list[int]) -> None:
        self.block_counts = block_counts
        self.count = sum(block_counts)
        self.mask_bytes = _mask_block_bytes(self.n_edges, block_counts)
        self.label_bytes = self.count * self.n_nodes * label_dtype(self.n_nodes).itemsize

    def _add_block(self, rows: int) -> None:
        self.block_counts.append(rows)
        self.count += rows
        self.mask_bytes += self.n_edges * packed_words(rows) * 8
        self.label_bytes += rows * self.n_nodes * label_dtype(self.n_nodes).itemsize

    def _take(self, raw: bytes) -> bool:
        """Adopt the whole records of ``raw`` past ``self.ledger`` (a
        prefix of ``raw``); whether they are positive and both data
        files hold the layout they imply."""
        start = len(self.ledger)
        stop = start + (len(raw) - start) // _RECORD.size * _RECORD.size
        if stop > start:
            for (rows,) in _RECORD.iter_unpack(raw[start:stop]):
                if rows <= 0:
                    return False
                self._add_block(rows)
            self.ledger = raw[:stop]
        return self._holds_layout()

    def dtype(self, kind: str) -> np.dtype:
        return _MASK_DTYPE if kind == _MASKS else label_dtype(self.n_nodes)

    def path(self, kind: str) -> str:
        """The data file of ``kind`` (``masks`` or ``labels``)."""
        return os.path.join(self.directory, _FILE_NAMES[self.dtype(kind)])

    def _holds_layout(self) -> bool:
        """Whether both data files hold at least the ledger's bytes."""
        return (
            _file_size(self.path(_MASKS)) >= self.mask_bytes
            and _file_size(self.path(_LABELS)) >= self.label_bytes
        )

    def _write_header(self) -> None:
        """Start a fresh ledger: the header alone, swapped in whole."""
        header = {"format": FORMAT_VERSION, "digest": self.digest,
                  "n_nodes": self.n_nodes, "n_edges": self.n_edges}
        raw = json.dumps(header, sort_keys=True).encode() + b"\n"
        path = os.path.join(self.directory, _LEDGER_NAME)
        with open(path + ".tmp", "wb") as handle:
            handle.write(raw)
        os.replace(path + ".tmp", path)
        self.ledger = raw

    def refresh(self, truncate: bool = False) -> bool:
        """Adopt the on-disk layout (another process may have grown or
        cleared the pool since we registered).  An unsound pool resets
        to 0 worlds — re-sampling, never wrong worlds.  With
        ``truncate=True`` — callers must hold the pool write lock — also
        cut the ledger and data files back to that layout, dropping what
        a torn append left behind (never safe from the read path: a
        concurrent writer's fresh rows look like trailing garbage until
        its record lands).

        Every call reads the whole ledger and checks both data file
        sizes.  When the read starts with the exact bytes the pool was
        parsed from, only the records past them are parsed; any other
        read re-runs the validator (:meth:`load`).  Returns ``False``
        when a ledger is there but the pool it describes is unsound, or
        when only an older format's ``meta.json`` is there.
        """
        path = os.path.join(self.directory, _LEDGER_NAME)
        raw = _read_bytes(path, len(self.ledger or b""))
        if raw is None or not (
            self.ledger is not None and raw.startswith(self.ledger) and self._take(raw)
        ):
            sound = None if raw is None else _Pool.load(
                self.directory, self.digest, (self.n_nodes, self.n_edges), raw
            )
            self._set_layout(sound.block_counts if sound else [])
            self.ledger = sound.ledger if sound else None
        if truncate:
            if self.ledger is not None and len(raw) > len(self.ledger):
                os.truncate(path, len(self.ledger))
            for kind, size in ((_MASKS, self.mask_bytes), (_LABELS, self.label_bytes)):
                if _file_size(self.path(kind)) > size:
                    os.truncate(self.path(kind), size)
        if raw is None:
            return not os.path.exists(os.path.join(self.directory, _LEGACY_META_NAME))
        return self.ledger is not None

    def read(self, kind: str, start: int, stop: int) -> np.ndarray:
        """Worlds ``[start, stop)`` of ``kind`` (``masks`` or ``labels``)
        — the one block walk.

        A range that is exactly one block comes back as stored: a view
        of an in-memory part, a fresh read of a disk block.  Any other
        range is cut from the blocks it overlaps: label rows are read
        and joined, mask blocks read whole, cut and packed anew.
        """
        if start == stop:
            shape = (self.n_edges, 0) if kind == _MASKS else (0, self.n_nodes)
            return np.zeros(shape, dtype=self.dtype(kind))
        pieces = []
        first = word = 0
        for index, rows in enumerate(self.block_counts):
            lo, hi = max(start - first, 0), min(stop - first, rows)
            if lo < hi:
                block = self._block(kind, index, first, word, rows, lo, hi)
                if (first, first + rows) == (start, stop):
                    return block
                pieces.append(
                    unpack_mask_columns(block, rows)[lo:hi] if kind == _MASKS else block
                )
            first += rows
            word += self.n_edges * packed_words(rows)
            if first >= stop:
                break
        if kind == _MASKS:
            return pack_mask_columns(np.concatenate(pieces, axis=0))
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)

    def _block(self, kind, index, first, word, rows, lo, hi) -> np.ndarray:
        """Block ``index`` as stored.  Label rows are stored one world
        after another, so only the block's worlds ``[lo, hi)`` are read;
        a columnar mask block is always read whole."""
        if self.directory is None:
            part = self.parts[kind][index]
            return part if kind == _MASKS else part[lo:hi]
        if kind == _MASKS:
            offset, shape = word, (self.n_edges, packed_words(rows))
        else:
            offset, shape = (first + lo) * self.n_nodes, (hi - lo, self.n_nodes)
        return _read_file(self.path(kind), self.dtype(kind), offset, shape)

    @contextmanager
    def appending(self):
        """Hold the pool for one append.  A disk pool takes its write
        lock and re-reads (and truncates to) the on-disk layout first,
        so concurrent writers of one pool trim each other's overlap."""
        if self.directory is None:
            yield
            return
        os.makedirs(self.directory, exist_ok=True)
        with _pool_write_lock(self.directory):
            self.refresh(truncate=True)
            yield

    def append(self, packed_cols: np.ndarray, labels: np.ndarray) -> None:
        """Add one block at the end of the pool (inside :meth:`appending`)."""
        rows = int(labels.shape[0])
        if self.directory is None:
            self.parts[_MASKS].append(packed_cols)
            self.parts[_LABELS].append(labels)
        else:
            if self.ledger is None:
                self._write_header()  # before any data, so clear() sweeps it
            _append_bytes(self.path(_MASKS), packed_cols)
            _append_bytes(self.path(_LABELS), labels)
            record = _RECORD.pack(rows)
            _append_bytes(os.path.join(self.directory, _LEDGER_NAME), record, create=False)
            self.ledger += record
        self._add_block(rows)


class WorldStore:
    """Content-addressed store of bit-packed world pools.

    Parameters
    ----------
    cache_dir:
        ``None`` keeps every pool in memory (useful for sharing pools
        between oracles inside one process).  A directory path spills
        pools to disk — one subdirectory per digest, raw binary data
        files read back with :func:`numpy.fromfile` — so pools persist
        across process runs.  The directory is created lazily on the
        first append.

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
        self._pools: dict[str, _Pool] = {}
        #: Known disk pools whose directory the last :meth:`pool_sizes`
        #: listing did not show (another process removed them); their
        #: ledger is re-read from disk if the directory comes back.
        self._vanished: set[str] = set()
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
        shape = (int(graph.n_nodes), int(graph.n_edges))
        with self._lock:
            pool = self._pools.get(digest)
            if pool is None:
                _STORE_POOLS.inc()
            elif self._cache_dir is None:
                return digest
            if self._cache_dir is None:
                self._pools[digest] = _Pool(digest, *shape)
                return digest
            # Disk pools are (re-)validated on every register, even when
            # known: another process may have corrupted the pool since,
            # and the corruption-recovery contract (reset, never crash)
            # must hold for oracle attachment.
            if pool is None or (pool.n_nodes, pool.n_edges) != shape:
                pool = _Pool(digest, *shape, os.path.join(self._cache_dir, digest))
            if not pool.refresh():
                shutil.rmtree(pool.directory, ignore_errors=True)  # unsound: discard
            self._pools[digest] = pool
        return digest

    def _pool(self, digest: str) -> _Pool:
        try:
            return self._pools[digest]
        except KeyError:
            raise WorldStoreError(
                f"unknown pool digest {digest[:12]}...; call register() first"
            ) from None

    def _readable(self, digest: str, start: int, stop: int) -> _Pool:
        pool = self._pool(digest)
        if not 0 <= start <= stop <= pool.count:
            raise WorldStoreError(
                f"read range [{start}, {stop}) outside stored pool of {pool.count} worlds"
            )
        return pool

    # ------------------------------------------------------------------
    # Pool access
    # ------------------------------------------------------------------

    def count(self, digest: str) -> int:
        """Worlds currently stored for ``digest``.

        Disk pools re-read their ledger and re-check their data file
        sizes, so growth (or clearing) by another process is observed
        before the next read or append; of the ledger, only records past
        the bytes already parsed are parsed.
        """
        with self._lock:
            pool = self._pool(digest)
            if pool.directory is not None:
                pool.refresh()
            return pool.count

    def read(
        self, digest: str, start: int, stop: int, *, labels: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Columnar masks and labels of stored worlds ``[start, stop)``.

        Returns ``(packed_cols, labels)`` of shapes
        ``(m, packed_words(rows))`` uint64 and ``(rows, n)``
        :func:`label_dtype` (``uint16`` up to 65536 nodes).
        With ``labels=False`` no label bytes are touched and ``None``
        stands in for them: the masks-only read of an oracle chunk
        whose labels are already held.
        Block-aligned ranges (the oracle's warm path) are served as
        stored blocks directly; misaligned ranges are re-packed.  Disk
        reads return fresh arrays (no file handle outlives the call),
        and a data file shorter than the ledger says raises rather than
        returning fewer worlds.  In-memory pools may return *views* of
        the stored parts (parts are append-only and treated as
        immutable), so callers must not mutate the result.

        The range check and the read run under the store lock, so a
        concurrent :meth:`append` or disk refresh from another thread
        (the service's job executor shares one store across all worker
        threads) can never shift the pool's count between the
        validation and the slice.  Readers in *other processes* are
        lock-free as before: data files are append-only and a block's
        ledger record lands after the rows it describes.
        """
        with self._lock:
            pool = self._readable(digest, start, stop)
            packed_cols = pool.read(_MASKS, start, stop)
            label_rows = pool.read(_LABELS, start, stop) if labels else None
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
            labels = self._readable(digest, start, stop).read(_LABELS, start, stop)
        _STORE_WORLDS_READ.inc(stop - start)
        _STORE_BYTES_READ.inc(labels.nbytes)
        return labels

    def append(self, digest: str, start: int, packed_cols: np.ndarray, labels: np.ndarray) -> int:
        """Append worlds ``[start, start + rows)``; returns the new count.

        ``packed_cols`` is the columnar block (``(m, packed_words(rows))``
        uint64, see :func:`pack_mask_columns`); ``labels`` its ``(rows,
        n)`` world labels (stored as :func:`label_dtype`); ``start`` the
        absolute pool position of the first appended world.  Worlds the
        store already holds are silently dropped (safe: worlds are pure
        functions of their position, so any two writers produce
        identical rows).  A gap
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
        labels = np.ascontiguousarray(labels, dtype=label_dtype(np.shape(labels)[1]))
        rows = labels.shape[0]
        if packed_cols.shape[1] != packed_words(rows):
            raise WorldStoreError(
                f"columnar block holds {packed_cols.shape[1]} words per edge "
                f"but {rows} label rows need {packed_words(rows)}"
            )
        with self._lock:
            pool = self._pool(digest)
            if (packed_cols.shape[0], labels.shape[1]) != (pool.n_edges, pool.n_nodes):
                raise WorldStoreError(
                    f"block of {packed_cols.shape[0]} edge rows and {labels.shape[1]} "
                    f"label columns; pool expects {pool.n_edges} and {pool.n_nodes}"
                )
            with pool.appending():
                if start > pool.count:
                    if pool.directory is None:
                        raise WorldStoreError(
                            f"append at {start} would leave a gap (pool has {pool.count} worlds)"
                        )
                    return pool.count  # pool was cleared underneath us
                skip = pool.count - start
                if skip < rows:
                    if skip:
                        packed_cols = pack_mask_columns(
                            unpack_mask_columns(packed_cols, rows)[skip:]
                        )
                        labels = labels[skip:]
                    pool.append(packed_cols, labels)
                    _STORE_WORLDS_APPENDED.inc(rows - skip)
                    _STORE_BYTES_APPENDED.inc(packed_cols.nbytes + labels.nbytes)
                return pool.count

    # ------------------------------------------------------------------
    # Maintenance (CLI `repro cache {info,clear}`)
    # ------------------------------------------------------------------

    def pool_sizes(self) -> dict[str, int]:
        """Bytes (packed masks + labels) of every stored pool, by digest.

        The oracle cache's budget check: it reads each pool's byte
        ledger, so its cost does not grow with what the pools hold.  A
        disk store lists ``cache_dir`` once and validates only pool
        directories it has not seen before (pools other processes
        wrote), leaving out the unsound ones; known disk pools whose
        directory is gone — another process cleared them — are left out
        too.  A known pool whose directory reappears is re-read from
        disk once.  Sizes of known pools that another process grew are
        as of this store's last look at them (``register``, ``count``,
        ``append``).

        Examples
        --------
        >>> from repro.sampling.oracle import MonteCarloOracle
        >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
        >>> store = WorldStore()
        >>> with MonteCarloOracle(g, seed=7, store=store) as oracle:
        ...     oracle.ensure_samples(64)
        >>> list(store.pool_sizes().values())   # 16 mask + 384 uint16 label bytes
        [400]
        """
        with self._lock:
            if self._cache_dir is None:
                return {
                    digest: pool.mask_bytes + pool.label_bytes
                    for digest, pool in self._pools.items()
                }
            try:
                names = os.listdir(self._cache_dir)
            except OSError:  # not created yet
                names = []
            sizes = {}
            for name in names:
                pool = self._pools.get(name)
                if pool is None:
                    if not _DIGEST_RE.fullmatch(name):
                        continue
                    pool = _Pool.load(os.path.join(self._cache_dir, name), name)
                    if pool is None:
                        continue  # unsound, or its ledger is not written yet
                    self._pools[name] = pool
                elif name in self._vanished:
                    pool.refresh()
                sizes[name] = pool.mask_bytes + pool.label_bytes
            self._vanished = self._pools.keys() - sizes.keys()
            return sizes

    def info(self) -> list[PoolInfo]:
        """One :class:`PoolInfo` per stored pool (disk pools included).

        Thread-safe: sizes are snapshotted under the store lock, so a
        pool growing in another thread is reported at a consistent
        count rather than mid-append.
        """
        self.pool_sizes()  # registers pool directories other processes wrote
        rows = []
        with self._lock:
            pools = sorted(self._pools.items())
        for digest, pool in pools:
            with self._lock:
                if self._pools.get(digest) is not pool:
                    continue  # cleared between the snapshot and this row
                rows.append(
                    PoolInfo(
                        digest=digest,
                        n_worlds=pool.count,
                        n_nodes=pool.n_nodes,
                        n_edges=pool.n_edges,
                        n_blocks=len(pool.block_counts),
                        mask_bytes=pool.mask_bytes,
                        label_bytes=pool.label_bytes,
                        persistent=pool.directory is not None,
                    )
                )
        return rows

    def clear(self, digest: str | None = None) -> int:
        """Drop one pool (or all of them); returns how many were removed.

        On a disk store this removes the named directories themselves,
        including pool directories that are unsound or from an older
        format version — ``clear`` is the recovery tool, so it must not
        skip exactly the pools that failed to register.  Only clearing
        every pool scans ``cache_dir``; clearing one digest touches that
        pool's directory alone.
        """
        if digest is None:
            self.pool_sizes()  # registers every sound pool directory
        with self._lock:
            digests = [digest] if digest is not None else list(self._pools)
            removed = 0
            for key in digests:
                pool = self._pools.pop(key, None)
                if pool is not None:
                    removed += 1
                    if pool.directory is not None:
                        shutil.rmtree(pool.directory, ignore_errors=True)
            if self._cache_dir is not None and self._cache_dir.is_dir():
                # Sweep unregistered leftovers (unsound pools, old
                # format) — but only directories that look like pools
                # (64-hex digest name + ledger or older-format meta
                # file), so clearing a mistyped path can never destroy
                # unrelated user data.
                leftovers = (
                    [self._cache_dir / digest] if digest is not None
                    else list(self._cache_dir.iterdir())
                )
                for entry in leftovers:
                    if (
                        entry.is_dir()
                        and _DIGEST_RE.fullmatch(entry.name)
                        and any((entry / name).exists()
                                for name in (_LEDGER_NAME, _LEGACY_META_NAME))
                    ):
                        shutil.rmtree(entry, ignore_errors=True)
                        removed += 1
        return removed

    def __repr__(self) -> str:
        where = str(self._cache_dir) if self._cache_dir is not None else "memory"
        return f"WorldStore(pools={len(self._pools)}, cache_dir={where!r})"
