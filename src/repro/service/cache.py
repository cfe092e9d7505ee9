"""In-process oracle cache: LRU byte-budget over a shared world store.

The service's hot path.  Every clustering job and reliability estimate
builds a short-lived :class:`~repro.sampling.oracle.MonteCarloOracle`
attached to one shared :class:`~repro.sampling.store.WorldStore`, so
the expensive part — the sampled world pool — is drawn once per
``pool_fingerprint(graph, seed)`` and reused by every later request
with the same key at any chunk size, bit-identically (worlds are pure
functions of ``(seed, i)``).  A warm repeated request therefore
performs **zero** new world sampling and returns labels identical to
the equivalent direct library call, which is pinned by
``tests/test_service.py``'s sampler-spy test.

Pools are evicted least-recently-used once their packed masks + labels
exceed a byte budget.  Pools leased by an in-flight request are pinned
and never evicted mid-computation; eviction of a disk-backed pool
removes its directory (it will be re-sampled on the next miss — the
cache is best-effort by construction, see the PR-3 invalidation
contract in ``docs/ARCHITECTURE.md``).

The budget check runs after every lease that sampled or touched a pool
for the first time, so its cost must not grow with the store: it reads
the store's per-pool byte ledger (:meth:`WorldStore.pool_sizes
<repro.sampling.store.WorldStore.pool_sizes>` — one directory listing
and a ledger parse only for pools never seen before) instead of
building a :class:`~repro.sampling.store.PoolInfo` per pool.  Recency
is one order per process: pools already in the store when the cache is
built come first (in digest order), a pool first seen later — e.g.
written by another worker process over the same ``--world-cache`` —
enters at the most-recent end, and a lease moves its pool there.  So
no process evicts another's fresh pools ahead of its own stale ones.

Graph mutations *derive* instead of evicting: when a lease misses but
the caller supplies ancestor revisions of the graph (the registry's
lineage after ``PATCH /graphs/{name}/edges``), the cache pins the
nearest ancestor's pool and runs
:func:`~repro.sampling.deltas.derive_pool` — resampling only the
touched edge columns and repairing only the affected labels — so the
first request after a mutation is warm-ish instead of cold.  The pin
makes derive-vs-evict race-free: eviction either skips the pinned
parent or completes first, in which case derivation falls back to
cold sampling (never a crash, never wrong worlds).
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter, OrderedDict
from contextlib import contextmanager

from repro import telemetry
from repro.exceptions import WorldStoreError
from repro.sampling.deltas import derive_pool
from repro.sampling.oracle import MonteCarloOracle
from repro.sampling.store import WorldStore, pool_fingerprint
from repro.utils.rng import ensure_seed_sequence

# One code path for the two observability views: ``GET /v1/cache``
# serves ``OracleCache.stats()`` directly, and these series are set
# *from the same stats() snapshot* by a scrape-time collector (see
# :meth:`OracleCache.attach_metrics`) — the endpoint and the metrics
# cannot drift.
_CACHE_COUNTER_KEYS = (
    "leases", "warm_leases", "evictions", "worlds_cached",
    "worlds_sampled", "pools_derived", "worlds_derived",
)
_CACHE_COUNTERS = {
    # local_only: mirrored from stats() per process — fleet-summing
    # them would break the pinned equality with GET /v1/cache.
    key: telemetry.get_registry().counter(
        f"repro_cache_{key}_total",
        f"Oracle-cache ``{key}`` (mirrors GET /v1/cache stats()).",
        local_only=True,
    )
    for key in _CACHE_COUNTER_KEYS
}
_CACHE_POOLS = telemetry.get_registry().gauge(
    "repro_cache_pools", "World pools currently held by the oracle cache.")
_CACHE_BYTES = telemetry.get_registry().gauge(
    "repro_cache_bytes", "Current pool footprint in bytes (masks + labels).")
_CACHE_MAX_BYTES = telemetry.get_registry().gauge(
    "repro_cache_max_bytes", "Configured oracle-cache byte budget.")


class OracleCache:
    """LRU byte-budget cache of sampled world pools.

    Parameters
    ----------
    store:
        The shared :class:`WorldStore` (in-memory by default; pass a
        disk-backed store to persist pools across service restarts).
    max_bytes:
        Eviction threshold over the summed packed-mask + label bytes of
        all pools.  The budget is enforced when a lease is released,
        never mid-lease, so a single pool larger than the budget still
        serves its own request (and is evicted afterwards).

    Examples
    --------
    >>> from repro.graph.uncertain_graph import UncertainGraph
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    >>> cache = OracleCache(max_bytes=1 << 20)
    >>> with cache.lease(g, seed=7) as oracle:
    ...     oracle.ensure_samples(64)
    >>> with cache.lease(g, seed=7) as oracle:   # warm: zero sampling
    ...     oracle.ensure_samples(64)
    ...     oracle.cache_stats["worlds_sampled"]
    0
    >>> cache.stats()["pools"]
    1
    """

    def __init__(self, store: WorldStore | None = None, *, max_bytes: int = 256 << 20):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self._store = store if store is not None else WorldStore()
        self._max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        # Least recently used first.  Pools the store already holds
        # (e.g. left in a disk cache dir by earlier runs) are the
        # oldest, in digest order; see _enforce_budget for the rest.
        self._recency: OrderedDict[str, None] = OrderedDict.fromkeys(
            sorted(self._store.pool_sizes())
        )
        self._pinned: Counter[str] = Counter()
        self._leases = 0
        self._warm_leases = 0
        self._evictions = 0
        self._worlds_cached = 0
        self._worlds_sampled = 0
        self._pools_derived = 0
        self._worlds_derived = 0

    def attach_metrics(self, registry=None) -> None:
        """Mirror this cache's :meth:`stats` into the metrics registry.

        Registers a scrape-time collector that copies one ``stats()``
        snapshot into the ``repro_cache_*`` series, so ``GET
        /v1/metrics`` and ``GET /v1/cache`` report identical totals by
        construction.  The collector holds only a weak reference; a
        dropped cache stops updating the series without pinning memory.
        """
        if registry is None:
            registry = telemetry.get_registry()
        ref = weakref.ref(self)

        def collect() -> None:
            cache = ref()
            if cache is None:
                return
            stats = cache.stats()
            for key in _CACHE_COUNTER_KEYS:
                _CACHE_COUNTERS[key].set_total(stats[key])
            _CACHE_POOLS.set(stats["pools"])
            _CACHE_BYTES.set(stats["bytes"])
            _CACHE_MAX_BYTES.set(stats["max_bytes"])

        registry.register_collector(collect)

    @property
    def store(self) -> WorldStore:
        """The shared world store behind the cache."""
        return self._store

    @property
    def max_bytes(self) -> int:
        """The configured byte budget."""
        return self._max_bytes

    @contextmanager
    def lease(self, graph, *, seed, chunk_size: int = 512,
              max_samples: int = 1_000_000, ancestors=()):
        """Yield a store-attached oracle, pinning its pool for the lease.

        The oracle is built fresh (oracles are single-threaded; the
        shared state is the store).  While the lease is open the pool
        cannot be evicted; on release the pool is marked
        most-recently-used, the lease's cache statistics are folded into
        the cache totals, and the byte budget is enforced.

        ``ancestors`` (nearest first) are earlier revisions of
        ``graph``; when the graph's own pool is empty but an ancestor's
        is not, the ancestor pool is pinned and *derived* into the
        graph's pool before the oracle attaches — the post-mutation
        warm path.  Derivation failures of any kind fall through to
        cold sampling.

        The pin is taken *before* the oracle registers the pool in the
        store, and eviction clears victims while holding the cache
        lock, so pin-vs-evict is race-free: an eviction either sees the
        pin and skips the pool, or completes first — in which case this
        lease's registration re-creates the pool and simply re-samples.
        """
        seed_seq = ensure_seed_sequence(seed)
        digest = pool_fingerprint(graph, seed_seq)
        oracle = None
        with self._lock:
            self._pinned[digest] += 1
        try:
            if ancestors:
                self._derive_from_ancestors(graph, ancestors, seed_seq, digest)
            oracle = MonteCarloOracle(
                graph, seed=seed_seq, chunk_size=chunk_size, max_samples=max_samples,
                store=self._store,
            )
            yield oracle
        finally:
            stats = (
                oracle.cache_stats if oracle is not None
                else {"worlds_cached": 0, "worlds_sampled": 0}
            )
            with self._lock:
                self._pinned[digest] -= 1
                if self._pinned[digest] <= 0:
                    del self._pinned[digest]
                self._leases += 1
                # A lease whose oracle never attached (construction
                # raised before the pool was registered) must not enter
                # the LRU: recording it would accumulate junk digests
                # from bad requests until a budget trip, and its
                # ``first_touch`` would trigger a pointless budget
                # check.
                first_touch = False
                if oracle is not None:
                    first_touch = digest not in self._recency
                    self._recency[digest] = None
                    self._recency.move_to_end(digest)
                self._worlds_cached += stats["worlds_cached"]
                self._worlds_sampled += stats["worlds_sampled"]
                if stats["worlds_sampled"] == 0 and stats["worlds_cached"] > 0:
                    self._warm_leases += 1
            # The pool footprint can only grow when this lease sampled
            # new worlds or touched a pool we have not accounted yet —
            # warm repeats (the hot path) skip the budget check.
            if stats["worlds_sampled"] > 0 or first_touch:
                self._enforce_budget()

    def _derive_from_ancestors(self, graph, ancestors, seed_seq, digest) -> None:
        """Try to derive ``graph``'s pool from the nearest warm ancestor.

        Best-effort by construction: every store interaction is allowed
        to fail (the parent may be evicted or cleared concurrently by
        another worker thread or process), in which case the lease
        simply proceeds cold.  The parent pool is pinned for the
        duration of its derivation so eviction cannot pull it out from
        under the block reads; see ``tests/test_deltas.py`` for the
        eviction-interplay pins.
        """
        try:
            if self._store.count(self._store.register(graph, seed_seq)) > 0:
                return  # already warm — nothing to derive
        except (WorldStoreError, OSError, ValueError):
            return
        for parent in ancestors:
            if parent.n_nodes != graph.n_nodes:
                continue  # lineage crossed an upload; not derivable
            parent_digest = pool_fingerprint(parent, seed_seq)
            if parent_digest == digest:
                continue
            with self._lock:
                self._pinned[parent_digest] += 1
            try:
                result = derive_pool(self._store, parent, graph, seed=seed_seq)
            except (WorldStoreError, OSError, ValueError):
                result = None
            finally:
                with self._lock:
                    self._pinned[parent_digest] -= 1
                    if self._pinned[parent_digest] <= 0:
                        del self._pinned[parent_digest]
            if result is not None and result.worlds_derived > 0:
                with self._lock:
                    self._pools_derived += 1
                    self._worlds_derived += result.worlds_derived
                return

    def _pool_bytes(self) -> dict[str, int]:
        """Per-pool byte sizes from the store's ledger.

        Lock ordering: callers hold the cache lock, and
        ``store.pool_sizes()`` takes the store's own lock — so the
        ordering is always *cache lock → store lock*.  The store never
        calls back into the cache, which keeps the ordering acyclic (no
        deadlock); never take the cache lock from code the store can
        invoke.
        """
        return self._store.pool_sizes()

    def _enforce_budget(self) -> None:
        """Evict LRU unpinned pools until the byte budget is met.

        The size snapshot, victim selection *and* the store clears all
        happen under the cache lock.  Snapshotting outside it (the old
        behavior) let a lease register and grow a pool between snapshot
        and eviction: the new pool escaped the total, and eviction
        mis-subtracted the stale size of any concurrently-grown pool,
        leaving the budget silently overshot.

        One check costs one ledger read (:meth:`_pool_bytes`) plus set
        arithmetic over the digests: no per-pool metadata parse, no
        per-pool summary.  It also keeps the recency order in step with
        the store: pools first seen now (another process wrote them)
        enter at the most-recent end, in digest order, and pools gone
        from the store (another process cleared them) leave it.
        Eviction walks from the least-recent end and skips pinned pools.
        """
        with self._lock:
            sizes = self._pool_bytes()
            for digest in self._recency.keys() - sizes.keys():
                del self._recency[digest]
            for digest in sorted(sizes.keys() - self._recency.keys()):
                self._recency[digest] = None
            total = sum(sizes.values())
            if total <= self._max_bytes:
                return
            for digest in list(self._recency):
                if total <= self._max_bytes:
                    break
                if self._pinned.get(digest):
                    continue
                total -= sizes[digest]
                del self._recency[digest]
                self._evictions += 1
                self._store.clear(digest)

    def stats(self) -> dict:
        """Cache counters for the service's ``GET /cache`` endpoint.

        ``leases`` counts completed leases, ``warm_leases`` the subset
        that sampled nothing new; ``bytes`` is the current pool
        footprint (packed masks + labels) against ``max_bytes``.  The
        snapshot is taken under the cache lock so the byte total and
        the counters describe one consistent instant.
        """
        with self._lock:
            sizes = self._pool_bytes()
            return {
                "pools": len(sizes),
                "bytes": sum(sizes.values()),
                "max_bytes": self._max_bytes,
                "leases": self._leases,
                "warm_leases": self._warm_leases,
                "evictions": self._evictions,
                "worlds_cached": self._worlds_cached,
                "worlds_sampled": self._worlds_sampled,
                "pools_derived": self._pools_derived,
                "worlds_derived": self._worlds_derived,
            }
