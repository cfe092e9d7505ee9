"""Tests for the bit-packed, content-addressed world store.

Pins the PR-3 invariants:

* packed masks roundtrip bit-exactly and use ~1/8 of the boolean bytes;
* a warm run of the same ``(graph, seed)`` pool — at any chunk size —
  performs **zero** new mask sampling and returns bit-identical labels
  (the cross-run oracle-reuse acceptance criterion);
* the cache-invalidation contract: mutating edge probabilities or the
  seed misses the cache, and so does a pool of an older format version;
* disk pools persist across store instances, resume progressive
  sampling mid-schedule, and treat corruption as a miss;
* the block ledger protocol: a block counts once its record is whole,
  and an append after the first publishes with one record write.
"""

import hashlib
import json
import os
import pickle
import struct
import types

import numpy as np
import pytest

from repro.exceptions import WorldStoreError
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.oracle import MonteCarloOracle
from repro.sampling.parallel import ParallelSampler
from repro.sampling.store import (
    FORMAT_VERSION,
    WorldStore,
    pack_mask_columns,
    packed_words,
    label_dtype,
    pool_fingerprint,
    unpack_mask_columns,
)
from repro.utils.rng import ensure_seed_sequence


@pytest.fixture
def graph():
    rng = np.random.default_rng(0)
    edges = []
    for _ in range(200):
        u, v = rng.choice(60, size=2, replace=False)
        edges.append((int(u), int(v), float(rng.uniform(0.05, 0.95))))
    return UncertainGraph.from_edges(edges, nodes=range(60), merge="first")


LEDGER = "blocks.ledger"


def read_ledger(pool_dir):
    """A pool ledger's header (a dict) and the world counts of its whole
    records; a trailing partial record is left out."""
    raw = (pool_dir / LEDGER).read_bytes()
    end = raw.index(b"\n") + 1
    whole = end + (len(raw) - end) // 8 * 8
    return json.loads(raw[:end]), [rows for (rows,) in struct.iter_unpack("<Q", raw[end:whole])]


def write_ledger(pool_dir, header, blocks):
    """Replace a pool's ledger with ``header`` and one record per block."""
    raw = json.dumps(header, sort_keys=True).encode() + b"\n"
    (pool_dir / LEDGER).write_bytes(raw + b"".join(struct.pack("<Q", rows) for rows in blocks))


class SamplerSpy:
    """Counts ParallelSampler calls of ``method`` and the worlds they draw."""

    def __init__(self, monkeypatch, method="sample_chunk"):
        self.calls = 0
        self.worlds = 0
        original = getattr(ParallelSampler, method)

        def spy(sampler, root, start, count):
            self.calls += 1
            self.worlds += count
            return original(sampler, root, start, count)

        monkeypatch.setattr(ParallelSampler, method, spy)


class TestColumnarPacking:
    """The store's edge-major layout: one row per edge."""

    @pytest.mark.parametrize("r,m", [(0, 5), (1, 1), (63, 3), (64, 4), (65, 5), (200, 7), (2, 0)])
    def test_roundtrip(self, r, m):
        rng = np.random.default_rng(r * 100 + m)
        masks = rng.random((r, m)) < 0.5
        cols = pack_mask_columns(masks)
        assert cols.dtype == np.uint64
        assert cols.shape == (m, packed_words(r))
        assert np.array_equal(unpack_mask_columns(cols, r), masks)

    def test_columns_are_contiguous_rows(self):
        """Edge e's bits are row e — the delta-update access pattern."""
        masks = np.random.default_rng(1).random((128, 5)) < 0.5
        cols = pack_mask_columns(masks)
        for e in range(5):
            row = unpack_mask_columns(cols[e:e + 1], 128)[:, 0]
            assert np.array_equal(row, masks[:, e])

    def test_eight_fold_memory_cut(self):
        masks = np.random.default_rng(2).random((640, 50)) < 0.3
        cols = pack_mask_columns(masks)
        assert cols.nbytes * 8 == masks.nbytes  # 640 worlds = 10 words exactly
        # Padding never costs more than 7 bytes per edge row.
        ragged = np.random.default_rng(3).random((129, 64)) < 0.3
        assert pack_mask_columns(ragged).nbytes <= ragged.nbytes / 8 + 8 * 64

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            pack_mask_columns(np.zeros(4, dtype=bool))
        with pytest.raises(ValueError):
            unpack_mask_columns(np.zeros((2, 2), dtype=np.uint64), 200)
        with pytest.raises(ValueError):
            unpack_mask_columns(np.zeros((0, 2), dtype=np.uint64), 200)

    def test_memmap_roundtrip(self, tmp_path):
        masks = np.random.default_rng(4).random((100, 10)) < 0.4
        cols = pack_mask_columns(masks)
        path = tmp_path / "masks.u64"
        path.write_bytes(cols.tobytes())
        view = np.memmap(path, dtype=np.uint64, mode="r", shape=cols.shape)
        assert np.array_equal(unpack_mask_columns(view[3:7], 100), masks[:, 3:7])


class TestFingerprint:
    def test_deterministic(self, graph):
        a = pool_fingerprint(graph, 7)
        b = pool_fingerprint(graph, 7)
        assert a == b and len(a) == 64

    def test_seed_sequence_equivalent_to_int(self, graph):
        assert pool_fingerprint(graph, 7) == pool_fingerprint(
            graph, np.random.SeedSequence(7)
        )

    def test_every_input_invalidates(self, graph):
        base = pool_fingerprint(graph, 7)
        assert pool_fingerprint(graph, 8) != base
        assert pool_fingerprint(graph, np.random.SeedSequence(7, spawn_key=(1,))) != base

    def test_probability_mutation_invalidates(self, graph):
        base = pool_fingerprint(graph, 7)
        prob = graph.edge_prob.copy()
        prob[0] = min(1.0, prob[0] + 1e-9)
        mutated = UncertainGraph(
            graph.n_nodes, graph.edge_src, graph.edge_dst, prob, validate=False
        )
        assert pool_fingerprint(mutated, 7) != base

    def test_edge_mutation_invalidates(self, graph):
        base = pool_fingerprint(graph, 7)
        sub = graph.subgraph(np.arange(graph.n_nodes - 1))
        assert pool_fingerprint(sub, 7) != base


    @pytest.mark.parametrize("seed", [7, np.random.SeedSequence(3, spawn_key=(1, 2))])
    def test_memoized_graph_hash_matches_the_unmemoized_construction(self, graph, seed):
        """The graph part of the digest is hashed once per graph object and
        copied per seed; the digest is exactly what hashing every input
        afresh gives, also for a pickled copy (which drops the memo)."""
        seed_seq = ensure_seed_sequence(seed)
        reference = hashlib.sha256()
        reference.update(b"repro-world-pool-v%d" % FORMAT_VERSION)
        reference.update(str(graph.n_nodes).encode())
        reference.update(np.ascontiguousarray(graph.edge_src, dtype=np.int64).tobytes())
        reference.update(np.ascontiguousarray(graph.edge_dst, dtype=np.int64).tobytes())
        reference.update(np.ascontiguousarray(graph.edge_prob, dtype=np.float64).tobytes())
        reference.update(str(seed_seq.entropy).encode())
        reference.update(repr(tuple(int(k) for k in seed_seq.spawn_key)).encode())
        assert pool_fingerprint(graph, seed) == reference.hexdigest()
        assert pool_fingerprint(graph, seed) == reference.hexdigest()  # from the memo
        copy = pickle.loads(pickle.dumps(graph))
        assert pool_fingerprint(copy, seed) == reference.hexdigest()

    def test_lease_hashes_each_graph_once(self, graph, monkeypatch):
        """A lease, its register and the ancestor derivation hash the
        edge arrays once per graph object."""
        import repro.graph.uncertain_graph as graph_module
        from repro.service.cache import OracleCache

        builds = []

        def sha256(prefix):
            builds.append(prefix)
            return hashlib.sha256(prefix)

        monkeypatch.setattr(graph_module, "hashlib", types.SimpleNamespace(sha256=sha256))
        cache = OracleCache(WorldStore(), max_bytes=1 << 30)
        with cache.lease(graph, seed=5) as oracle:
            oracle.ensure_samples(64)
        assert len(builds) == 1
        child, _ = graph.update_edge(int(graph.edge_src[0]), int(graph.edge_dst[0]), 0.5)
        with cache.lease(child, seed=5, ancestors=(graph,)) as oracle:
            oracle.ensure_samples(64)
            assert oracle.cache_stats == {"worlds_cached": 64, "worlds_sampled": 0}
        assert cache.stats()["pools_derived"] == 1
        assert len(builds) == 2


class TestWorldStoreUnit:
    def test_register_read_append(self, graph):
        store = WorldStore()
        digest = store.register(graph, 7)
        assert store.count(digest) == 0
        masks = np.random.default_rng(0).random((10, graph.n_edges)) < 0.5
        labels = np.zeros((10, graph.n_nodes), dtype=np.int32)
        assert store.append(digest, 0, pack_mask_columns(masks), labels) == 10
        got_packed, got_labels = store.read(digest, 2, 9)
        assert np.array_equal(unpack_mask_columns(got_packed, 7), masks[2:9])
        assert got_labels.shape == (7, graph.n_nodes)

    def test_overlapping_append_trimmed(self, graph):
        store = WorldStore()
        digest = store.register(graph, 7)
        masks = np.random.default_rng(0).random((12, graph.n_edges)) < 0.5
        labels = np.arange(12 * graph.n_nodes, dtype=np.int32).reshape(12, -1)
        store.append(digest, 0, pack_mask_columns(masks[:10]), labels[:10])
        # Re-appending worlds 5..11 (5 overlapping + 2 new) keeps 12 total.
        assert store.append(digest, 5, pack_mask_columns(masks[5:]), labels[5:]) == 12
        assert store.count(digest) == 12
        got_packed, got_labels = store.read(digest, 0, 12)
        assert np.array_equal(unpack_mask_columns(got_packed, 12), masks)
        assert np.array_equal(got_labels, labels)

    def test_gap_append_rejected(self, graph):
        store = WorldStore()
        digest = store.register(graph, 7)
        packed = pack_mask_columns(np.zeros((1, graph.n_edges), dtype=bool))
        with pytest.raises(WorldStoreError):
            store.append(digest, 5, packed, np.zeros((1, graph.n_nodes), dtype=np.int32))

    def test_read_out_of_range(self, graph):
        store = WorldStore()
        digest = store.register(graph, 7)
        with pytest.raises(WorldStoreError):
            store.read(digest, 0, 1)

    def test_unknown_digest(self):
        with pytest.raises(WorldStoreError):
            WorldStore().count("deadbeef")

    def test_info_and_clear(self, graph, tmp_path):
        store = WorldStore(tmp_path / "cache")
        with MonteCarloOracle(graph, seed=3, chunk_size=32, store=store) as oracle:
            oracle.ensure_samples(64)
        (pool,) = store.info()
        assert pool.n_worlds == 64
        assert pool.persistent
        # 64 worlds drawn in two 32-world blocks: each block packs every
        # edge's column into packed_words(32) = 1 word.
        assert pool.n_blocks == 2
        assert pool.mask_bytes == 2 * graph.n_edges * packed_words(32) * 8
        assert pool.label_bytes == 64 * graph.n_nodes * 2  # uint16 labels
        assert store.clear() == 1
        assert store.info() == []


    @pytest.mark.parametrize("persistent", [False, True], ids=["memory", "disk"])
    def test_byte_ledger_matches_the_block_layout(self, graph, tmp_path, persistent):
        store = WorldStore(tmp_path / "cache" if persistent else None)
        for seed, (chunk, samples) in enumerate([(32, 64), (48, 100), (512, 7)]):
            with MonteCarloOracle(graph, seed=seed, chunk_size=chunk, store=store) as oracle:
                oracle.ensure_samples(samples)
        sizes = store.pool_sizes()
        assert sizes == {pool.digest: pool.mask_bytes + pool.label_bytes
                         for pool in store.info()}
        assert sorted(sizes.values()) == sorted(
            graph.n_edges * 8 * sum(packed_words(c) for c in blocks)
            + samples * graph.n_nodes * 2
            for samples, blocks in [(64, [32, 32]), (100, [48, 48, 4]), (7, [7])]
        )

    def test_clear_one_pool_lists_no_directory(self, graph, tmp_path, monkeypatch):
        import repro.sampling.store as store_module

        store = WorldStore(tmp_path / "cache")
        for seed in range(3):
            with MonteCarloOracle(graph, seed=seed, store=store) as oracle:
                oracle.ensure_samples(16)
        listings = []
        listdir = store_module.os.listdir
        monkeypatch.setattr(
            store_module.os, "listdir", lambda path: listings.append(path) or listdir(path)
        )
        assert store.clear(pool_fingerprint(graph, 1)) == 1
        assert listings == []
        assert len(store.pool_sizes()) == 2

    def test_pool_sizes_skip_pools_removed_elsewhere(self, graph, tmp_path):
        store = WorldStore(tmp_path / "cache")
        other = WorldStore(tmp_path / "cache")
        with MonteCarloOracle(graph, seed=1, store=store) as oracle:
            oracle.ensure_samples(64)
        digest = pool_fingerprint(graph, 1)
        assert list(store.pool_sizes()) == [digest]
        other.clear(digest)
        assert store.pool_sizes() == {}
        with MonteCarloOracle(graph, seed=1, store=other) as oracle:
            oracle.ensure_samples(32)  # re-created elsewhere at another size
        assert store.pool_sizes() == other.pool_sizes()


class TestOracleReuse:
    def test_warm_run_zero_sampling_bit_identical(self, graph, monkeypatch):
        """The acceptance criterion: a cached second run samples nothing."""
        store = WorldStore()
        with MonteCarloOracle(graph, seed=11, chunk_size=64, store=store) as cold:
            cold.ensure_samples(200)
            cold_labels = cold.component_labels
            assert cold.cache_stats == {"worlds_cached": 0, "worlds_sampled": 200}

        spy = SamplerSpy(monkeypatch)
        with MonteCarloOracle(graph, seed=11, chunk_size=64, store=store) as warm:
            warm.ensure_samples(200)
            assert spy.calls == 0
            assert spy.worlds == 0
            assert warm.cache_stats == {"worlds_cached": 200, "worlds_sampled": 0}
            assert np.array_equal(warm.component_labels, cold_labels)

    def test_mid_schedule_resume(self, graph, monkeypatch):
        """A warm oracle resumes progressive sampling where the cache ends."""
        store = WorldStore()
        with MonteCarloOracle(graph, seed=5, chunk_size=64, store=store) as cold:
            cold.ensure_samples(100)

        spy = SamplerSpy(monkeypatch)
        with MonteCarloOracle(graph, seed=5, chunk_size=64, store=store) as warm:
            warm.ensure_samples(300)
            assert spy.worlds == 200  # only the uncached tail is drawn
        with MonteCarloOracle(graph, seed=5, chunk_size=64) as fresh:
            fresh.ensure_samples(300)
            with MonteCarloOracle(graph, seed=5, chunk_size=64, store=store) as check:
                check.ensure_samples(300)
                assert np.array_equal(check.component_labels, fresh.component_labels)

    def test_queries_identical_with_and_without_store(self, graph):
        store = WorldStore()
        with MonteCarloOracle(graph, seed=2, chunk_size=32, store=store) as a:
            a.ensure_samples(96)
        with MonteCarloOracle(graph, seed=2, chunk_size=32, store=store) as warm, \
                MonteCarloOracle(graph, seed=2, chunk_size=32) as plain:
            warm.ensure_samples(96)
            plain.ensure_samples(96)
            assert warm.connection(0, 1) == plain.connection(0, 1)
            assert np.array_equal(
                warm.connection_to_all(3, depth=2), plain.connection_to_all(3, depth=2)
            )
            assert np.array_equal(
                warm.pairwise_matrix([0, 1, 2]), plain.pairwise_matrix([0, 1, 2])
            )

    def test_cache_misses_on_changed_inputs(self, graph, monkeypatch):
        """Invalidation contract end to end: any input change resamples."""
        store = WorldStore()
        with MonteCarloOracle(graph, seed=1, chunk_size=64, store=store) as cold:
            cold.ensure_samples(64)

        prob = graph.edge_prob.copy()
        prob[0] = prob[0] * 0.5
        mutated = UncertainGraph(
            graph.n_nodes, graph.edge_src, graph.edge_dst, prob, validate=False
        )
        for variant in (
            dict(graph=mutated, seed=1, chunk_size=64),        # edge prob changed
            dict(graph=graph, seed=2, chunk_size=64),          # seed changed
        ):
            spy = SamplerSpy(monkeypatch)
            kwargs = dict(variant)
            target = kwargs.pop("graph")
            with MonteCarloOracle(target, store=store, **kwargs) as oracle:
                oracle.ensure_samples(64)
                assert spy.worlds == 64, f"variant {variant} should miss the cache"

    def test_pool_warmed_at_one_chunk_size_serves_others(self, graph, monkeypatch):
        """Pools are keyed on (graph, seed): chunk size only batches."""
        store = WorldStore()
        with MonteCarloOracle(graph, seed=1, chunk_size=512, store=store) as cold:
            cold.ensure_samples(300)
            cold_labels = cold.component_labels
            cold_depth = cold.connection_to_all(4, depth=2)
        spy = SamplerSpy(monkeypatch, "sample_chunk_packed")
        for chunk_size in (256, 64):
            with MonteCarloOracle(graph, seed=1, chunk_size=chunk_size, store=store) as warm:
                warm.ensure_samples(300)
                assert warm.cache_stats == {"worlds_cached": 300, "worlds_sampled": 0}
                assert np.array_equal(warm.component_labels, cold_labels)
                assert np.array_equal(warm.connection_to_all(4, depth=2), cold_depth)
        assert spy.calls == 0
        assert [pool.n_worlds for pool in store.info()] == [300]

    def test_store_and_cache_dir_mutually_exclusive(self, graph, tmp_path):
        with pytest.raises(ValueError):
            MonteCarloOracle(graph, store=WorldStore(), cache_dir=tmp_path)

    def test_packed_pool_memory(self, graph):
        with MonteCarloOracle(graph, seed=0, chunk_size=64) as oracle:
            oracle.ensure_samples(256)
            boolean_bytes = 256 * graph.n_edges  # the pre-PR-3 representation
            assert oracle.packed_mask_nbytes <= boolean_bytes / 8 + 8 * 256


class TestDiskPersistence:
    def test_cross_instance_reuse(self, graph, tmp_path, monkeypatch):
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=9, chunk_size=64, cache_dir=cache) as cold:
            cold.ensure_samples(128)
            cold_labels = cold.component_labels

        # A brand-new store instance over the same directory (as a new
        # process would build) serves the pool without sampling.
        spy = SamplerSpy(monkeypatch)
        with MonteCarloOracle(graph, seed=9, chunk_size=64, cache_dir=cache) as warm:
            warm.ensure_samples(128)
            assert spy.calls == 0
            assert np.array_equal(warm.component_labels, cold_labels)

    def test_disk_layout(self, graph, tmp_path):
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=9, chunk_size=64, cache_dir=cache) as oracle:
            oracle.ensure_samples(100)
            digest = oracle.pool_digest
        pool_dir = cache / digest
        header, blocks = read_ledger(pool_dir)
        assert header == {"format": FORMAT_VERSION, "digest": digest,
                          "n_nodes": graph.n_nodes, "n_edges": graph.n_edges}
        assert blocks == [64, 36]  # two ensure_samples chunks
        assert sum(blocks) == 100
        header_bytes = len(json.dumps(header, sort_keys=True)) + 1
        assert (pool_dir / LEDGER).stat().st_size == header_bytes + 2 * 8
        assert sorted(p.name for p in pool_dir.iterdir()) == [
            ".lock", LEDGER, "labels.u16", "masks.u64"
        ]  # no meta.json, no leftover tmp file
        mask_bytes = graph.n_edges * (packed_words(64) + packed_words(36)) * 8
        assert (pool_dir / "masks.u64").stat().st_size == mask_bytes
        assert (pool_dir / "labels.u16").stat().st_size == 100 * graph.n_nodes * 2
        assert not (pool_dir / "labels.i32").exists()

    def test_truncated_data_treated_as_miss(self, graph, tmp_path, monkeypatch):
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as cold:
            cold.ensure_samples(64)
            cold_labels = cold.component_labels
            digest = cold.pool_digest
        masks_path = cache / digest / "masks.u64"
        masks_path.write_bytes(masks_path.read_bytes()[:-8])

        spy = SamplerSpy(monkeypatch)
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as redo:
            redo.ensure_samples(64)
            assert spy.worlds == 64  # corruption cost re-sampling, not wrong data
            assert np.array_equal(redo.component_labels, cold_labels)

    def test_corruption_after_scan_still_treated_as_miss(self, graph, tmp_path, monkeypatch):
        """register() re-validates pools that a directory scan pre-registered."""
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as cold:
            cold.ensure_samples(64)
            digest = cold.pool_digest
        store = WorldStore(cache)
        assert len(store.info()) == 1  # scans (and registers) the sound pool
        labels_path = cache / digest / "labels.u16"
        labels_path.write_bytes(labels_path.read_bytes()[:-2])
        spy = SamplerSpy(monkeypatch)
        with MonteCarloOracle(graph, seed=4, chunk_size=32, store=store) as redo:
            redo.ensure_samples(64)  # must reset and resample, not crash
            assert spy.worlds == 64

    @pytest.mark.parametrize("name", ["masks.u64", "labels.u16"])
    def test_short_data_pool_is_unlisted_and_swept(self, graph, tmp_path, name):
        """A pool whose data files are shorter than its meta says is not
        listed (nor sized for the cache budget), but clear() removes it."""
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as cold:
            cold.ensure_samples(64)
            digest = cold.pool_digest
        path = cache / digest / name
        path.write_bytes(path.read_bytes()[:-4])

        store = WorldStore(cache)
        assert store.pool_sizes() == {}
        assert store.info() == []
        assert store.clear() == 1
        assert not (cache / digest).exists()

    @pytest.mark.parametrize("start,stop", [(0, 64), (32, 64), (0, 40), (20, 50)])
    def test_short_data_files_raise_on_read(self, graph, tmp_path, start, stop):
        """Data files cut short after the pool was counted: reads raise,
        they never return fewer worlds than asked for."""
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as cold:
            cold.ensure_samples(64)
        store = WorldStore(cache)
        digest = store.register(graph, 4)
        assert store.count(digest) == 64
        for name in ("masks.u64", "labels.u16"):
            path = cache / digest / name
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises((ValueError, WorldStoreError)):
            store.read_labels(digest, start, stop)
        with pytest.raises((ValueError, WorldStoreError)):
            store.read(digest, start, stop, labels=False)

    def test_torn_append_garbage_is_never_served(self, graph, tmp_path, monkeypatch):
        """A crash between the data write and the meta.json update leaves
        bytes past the recorded layout: readers serve exactly the worlds
        the meta records, and the next append truncates the rest."""
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as torn:
            torn.ensure_samples(64)
            digest = torn.pool_digest
        pool_dir = cache / digest
        for name, garbage in (("masks.u64", 24), ("labels.u16", 40)):
            with open(pool_dir / name, "ab") as handle:
                handle.write(b"\xab" * garbage)

        spy = SamplerSpy(monkeypatch, "sample_chunk_packed")
        store = WorldStore(cache)
        with MonteCarloOracle(graph, seed=4, chunk_size=32, store=store) as warm:
            assert warm.stored_worlds == 64
            warm.ensure_samples(64)
            assert spy.worlds == 0
            warm.ensure_samples(96)  # appends worlds 64..95 after the garbage
            assert spy.worlds == 32
            warm_labels = warm.component_labels
            warm_masks = warm.packed_worlds(0, 96)
            warm_distances = warm.expected_distances()
        assert (pool_dir / "masks.u64").stat().st_size == 3 * graph.n_edges * 8
        assert (pool_dir / "labels.u16").stat().st_size == 96 * graph.n_nodes * 2

        with MonteCarloOracle(graph, seed=4, chunk_size=32) as cold:
            cold.ensure_samples(96)
            assert np.array_equal(warm_labels, cold.component_labels)
            assert np.array_equal(warm_masks, cold.packed_worlds(0, 96))
            assert np.array_equal(warm_distances, cold.expected_distances())
        fresh = WorldStore(cache)
        packed, labels = fresh.read(fresh.register(graph, 4), 0, 96)
        assert np.array_equal(labels, warm_labels)
        assert np.array_equal(packed, warm_masks)

    def test_full_disk_keeps_the_sampled_chunk(self, graph, tmp_path):
        """An append that fails with ENOSPC costs the cache, not the run."""
        if not os.path.exists("/dev/full"):
            pytest.skip("needs a device whose writes fail with ENOSPC")
        cache = tmp_path / "worlds"
        pool_dir = cache / pool_fingerprint(graph, 4)
        pool_dir.mkdir(parents=True)
        (pool_dir / "masks.u64").symlink_to("/dev/full")
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as full:
            full.ensure_samples(100)
            assert full.cache_stats == {"worlds_cached": 0, "worlds_sampled": 100}
            assert full.phase_timings["store_write_s"] > 0
            assert full.stored_worlds == 0
            with MonteCarloOracle(graph, seed=4, chunk_size=32) as plain:
                plain.ensure_samples(100)
                assert np.array_equal(full.component_labels, plain.component_labels)
                assert np.array_equal(full.connection_to_all(0), plain.connection_to_all(0))
                assert np.array_equal(full.expected_distances(), plain.expected_distances())

    def test_clear_removes_unrecognized_pool_dirs(self, graph, tmp_path):
        """clear() is the recovery tool: it sweeps corrupt/old-format pools."""
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as cold:
            cold.ensure_samples(32)
            digest = cold.pool_digest
        header, blocks = read_ledger(cache / digest)
        header["format"] = 0  # an old format version the directory scan rejects
        write_ledger(cache / digest, header, blocks)

        store = WorldStore(cache)
        assert store.info() == []  # unrecognized, not listed
        assert store.clear() == 1  # ... but still removed
        assert not (cache / digest).exists()

    @pytest.mark.parametrize("where", ["meta.json", "ledger header"])
    @pytest.mark.parametrize("old_format", [2, 3, 4])
    def test_previous_format_pool_is_a_clean_miss(
        self, graph, tmp_path, monkeypatch, old_format, where
    ):
        """A pool directory written by an older format version is never
        served, not even when it sits under the digest the current key
        names.  Formats 2-4 kept their whole layout in a ``meta.json``
        rewritten per append, and format 3 kept int32 labels in
        ``labels.i32``; a ledger whose header names an old format is
        rejected the same way."""
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as cold:
            cold.ensure_samples(64)
            cold_labels = cold.component_labels
            digest = cold.pool_digest
        assert FORMAT_VERSION == 5
        pool_dir = cache / digest
        header, blocks = read_ledger(pool_dir)
        header["format"] = old_format
        if where == "meta.json":
            meta = dict(header, n_worlds=sum(blocks), block_counts=blocks)
            if old_format == 2:
                meta.update(backend="scipy", chunk_size=32)
            (pool_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
            (pool_dir / LEDGER).unlink()
        else:
            write_ledger(pool_dir, header, blocks)
        # Poison the data in both label layouts: serving either would
        # show as wrong labels.
        (pool_dir / "labels.u16").write_bytes(b"\xff" * 64 * graph.n_nodes * 2)
        (pool_dir / "labels.i32").write_bytes(b"\xff" * 64 * graph.n_nodes * 4)

        store = WorldStore(cache)
        assert store.info() == []  # not listed
        spy = SamplerSpy(monkeypatch)
        with MonteCarloOracle(graph, seed=4, chunk_size=32, store=store) as redo:
            redo.ensure_samples(64)
            assert spy.worlds == 64
            assert redo.cache_stats == {"worlds_cached": 0, "worlds_sampled": 64}
            assert np.array_equal(redo.component_labels, cold_labels)
        assert read_ledger(pool_dir)[0]["format"] == FORMAT_VERSION
        assert not (pool_dir / "labels.i32").exists()  # the old pool was discarded
        assert not (pool_dir / "meta.json").exists()

    def test_stale_writer_append_does_not_misalign(self, graph, tmp_path):
        """A writer that registered a cold pool must trim against the
        on-disk count at append time: two processes racing on a cold
        cache used to double-append rows 0..n at file rows n..2n,
        silently serving wrong worlds to every later reader."""
        cache = tmp_path / "worlds"
        stale = WorldStore(cache)
        digest = stale.register(graph, 13)  # sees count=0

        with MonteCarloOracle(graph, seed=13, chunk_size=64, cache_dir=cache) as a:
            a.ensure_samples(64)  # "process A" persists worlds 0..63

        # The stale writer now appends worlds 0..127 from its own view.
        with MonteCarloOracle(graph, seed=13, chunk_size=128) as b:
            b.ensure_samples(128)
            masks = np.concatenate(
                [
                    unpack_mask_columns(cols, lab.shape[0])
                    for cols, lab in zip(b._packed_chunks, b._label_chunks, strict=True)
                ]
            )
            labels = b.component_labels
        assert stale.append(digest, 0, pack_mask_columns(masks), labels) == 128

        with MonteCarloOracle(graph, seed=13, chunk_size=64, cache_dir=cache) as warm:
            warm.ensure_samples(128)
            assert warm.cache_stats["worlds_sampled"] == 0
            assert np.array_equal(warm.component_labels, labels)

    def test_disk_append_after_external_clear_is_dropped(self, graph, tmp_path):
        """Clearing a pool under a live writer drops its writes (best
        effort) instead of raising or leaving a gap on disk."""
        cache = tmp_path / "worlds"
        store = WorldStore(cache)
        digest = store.register(graph, 6)
        packed = pack_mask_columns(np.zeros((32, graph.n_edges), dtype=bool))
        labels = np.zeros((32, graph.n_nodes), dtype=np.int32)
        store.append(digest, 0, packed, labels)
        WorldStore(cache).clear()  # "another process" clears the pool
        assert store.append(digest, 32, packed, labels) == 0
        assert store.count(digest) == 0

    def test_clear_never_touches_non_pool_dirs(self, graph, tmp_path):
        """clear() must not delete directories that merely contain a
        file named like a pool ledger or an older format's meta.json —
        only 64-hex digest-named pool dirs."""
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as cold:
            cold.ensure_samples(32)
        bystander = cache / "my-dataset"
        bystander.mkdir()
        (bystander / "meta.json").write_text('{"unrelated": true}')
        (bystander / LEDGER).write_text('{"unrelated": true}\n')
        (bystander / "precious.txt").write_text("do not delete")
        assert WorldStore(cache).clear() == 1  # the pool, not the bystander
        assert (bystander / "precious.txt").exists()

    def test_read_failure_mid_warm_load_falls_back_to_sampling(
        self, graph, tmp_path, monkeypatch
    ):
        """A pool vanishing between count() and read() (cross-process
        clear) must cost re-sampling, not abort the run."""
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as cold:
            cold.ensure_samples(64)
            cold_labels = cold.component_labels

        def raising(self, digest, start, stop):
            raise FileNotFoundError()

        monkeypatch.setattr(WorldStore, "read", raising)
        monkeypatch.setattr(WorldStore, "read_labels", raising)
        spy = SamplerSpy(monkeypatch)
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as redo:
            redo.ensure_samples(64)
            assert spy.worlds == 64
            assert np.array_equal(redo.component_labels, cold_labels)

    def test_garbage_meta_treated_as_miss(self, graph, tmp_path, monkeypatch):
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as cold:
            cold.ensure_samples(32)
            digest = cold.pool_digest
        (cache / digest / LEDGER).write_bytes(b"{not json\n" + struct.pack("<Q", 32))

        spy = SamplerSpy(monkeypatch)
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as redo:
            redo.ensure_samples(32)
            assert spy.worlds == 32


class TestMemoizedValidator:
    """Disk ``count``/``register``/``append`` read the whole ledger and
    check both data file sizes on every call; the header is parsed only
    when the ledger no longer starts with the bytes the pool's layout
    came from, and otherwise only the records past them are parsed."""

    @pytest.fixture
    def parses(self, monkeypatch):
        import repro.sampling.store as store_module

        calls = []
        loads = store_module.json.loads

        def spy(raw, *args, **kwargs):
            calls.append(raw)
            return loads(raw, *args, **kwargs)

        monkeypatch.setattr(store_module.json, "loads", spy)
        return calls

    @pytest.fixture
    def records(self, monkeypatch):
        """Ledger records each incremental parse looked at (whole ones)."""
        import repro.sampling.store as store_module

        seen = []
        take = store_module._Pool._take

        def spy(pool, raw):
            seen.append((len(raw) - len(pool.ledger)) // 8)
            return take(pool, raw)

        monkeypatch.setattr(store_module._Pool, "_take", spy)
        return seen

    @pytest.fixture
    def cache(self, graph, tmp_path):
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as cold:
            cold.ensure_samples(64)
        return cache

    def test_warm_calls_parse_no_json(self, graph, cache, parses):
        store = WorldStore(cache)
        digest = store.register(graph, 4)
        assert len(parses) == 1  # the first look at the pool
        for _ in range(3):
            assert store.register(graph, 4) == digest
            assert store.count(digest) == 64
        assert len(parses) == 1
        # This store's own appends extend the ledger bytes it reads back next.
        with MonteCarloOracle(graph, seed=4, chunk_size=32, store=store) as warm:
            warm.ensure_samples(128)
            assert warm.cache_stats == {"worlds_cached": 64, "worlds_sampled": 64}
        assert store.count(digest) == 128
        assert len(parses) == 1

    def test_pool_grown_by_another_store_is_seen(self, graph, cache, parses, records):
        """Growth by another store is parsed incrementally: the new
        records once, the header and the old records never again."""
        store = WorldStore(cache)
        digest = store.register(graph, 4)
        assert store.count(digest) == 64
        with MonteCarloOracle(graph, seed=4, chunk_size=32, store=WorldStore(cache)) as other:
            other.ensure_samples(128)
            grown = other.component_labels
        _, blocks = read_ledger(cache / digest)
        assert sum(blocks) == 128 and len(blocks) > 2
        parses.clear()
        records.clear()
        assert store.count(digest) == 128
        assert store.count(digest) == 128
        assert parses == []  # no header parse
        assert records == [len(blocks) - 2, 0]  # the new records, once
        _, labels = store.read(digest, 0, 128)
        assert np.array_equal(labels, grown)

    @staticmethod
    def _rewrite_in_place(path, offset, new):
        """Overwrite bytes of ``path`` at ``offset`` in place (same file,
        same length)."""
        old = path.read_bytes()[offset:offset + len(new)]
        assert len(old) == len(new) and old != new
        with open(path, "r+b") as handle:
            handle.seek(offset)
            handle.write(new)

    def test_same_length_rewrite_is_reparsed(self, graph, cache, parses):
        store = WorldStore(cache)
        digest = store.register(graph, 4)
        assert store.count(digest) == 64
        ledger = cache / digest / LEDGER
        _, blocks = read_ledger(cache / digest)
        assert blocks == [32, 32]
        last = ledger.stat().st_size - 8
        # A sound layout of other content: the first 48 worlds.
        self._rewrite_in_place(ledger, last, struct.pack("<Q", 16))
        parses.clear()
        assert store.count(digest) == 48
        assert store.count(digest) == 48
        assert len(parses) == 1
        # An unsound one: a block of no worlds.
        self._rewrite_in_place(ledger, last, struct.pack("<Q", 0))
        assert store.count(digest) == 0
        assert len(parses) == 2
        store.register(graph, 4)
        assert not (cache / digest).exists()  # discarded, never served

    @pytest.mark.parametrize("field", ["digest", "n_nodes", "n_edges", "format"])
    def test_same_length_header_rewrite_is_caught(self, graph, cache, field):
        """A header value rewritten in place (same length, other value)
        is caught by the next count, which resets the pool."""
        store = WorldStore(cache)
        digest = store.register(graph, 4)
        assert store.count(digest) == 64
        ledger = cache / digest / LEDGER
        header, _ = read_ledger(cache / digest)
        raw = ledger.read_bytes()
        key = b'"%s": ' % field.encode()
        end = raw.index(key) + len(key) + len(json.dumps(header[field]))
        digit = end - 1 - (field == "digest")  # the value's last digit, inside any quotes
        self._rewrite_in_place(ledger, digit, b"1" if raw[digit:digit + 1] != b"1" else b"2")
        assert store.count(digest) == 0
        with pytest.raises(WorldStoreError):
            store.read_labels(digest, 0, 1)
        store.register(graph, 4)
        assert not (cache / digest).exists()  # discarded, never served

    @pytest.mark.parametrize("name", ["masks.u64", "labels.u16"])
    def test_truncated_data_under_unchanged_meta_resets(self, graph, cache, parses, name):
        store = WorldStore(cache)
        digest = store.register(graph, 4)
        assert store.count(digest) == 64
        path = cache / digest / name
        os.truncate(path, path.stat().st_size - 2)
        assert store.count(digest) == 0
        with pytest.raises(WorldStoreError):
            store.read_labels(digest, 0, 1)

    @pytest.mark.parametrize("n_nodes", [60, (1 << 16) + 5])
    def test_label_files_follow_the_label_dtype(self, tmp_path, n_nodes):
        """uint16 labels up to 65536 nodes, int32 beyond; the store serves
        them in the dtype the oracle keeps."""
        dtype = label_dtype(n_nodes)
        name = "labels.u16" if n_nodes <= 1 << 16 else "labels.i32"
        assert dtype == (np.uint16 if name == "labels.u16" else np.int32)
        graph = UncertainGraph.from_edges(
            [(i, i + 1, 0.5) for i in range(0, 40, 2)] + [(0, n_nodes - 1, 0.5)],
            nodes=range(n_nodes),
        )
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=1, chunk_size=8, cache_dir=cache) as cold:
            cold.ensure_samples(8)
            cold_labels = cold.component_labels
        pool_dir = cache / pool_fingerprint(graph, 1)
        assert sorted(p.name for p in pool_dir.glob("labels.*")) == [name]
        assert (pool_dir / name).stat().st_size == 8 * n_nodes * dtype.itemsize
        store = WorldStore(cache)
        labels = store.read_labels(store.register(graph, 1), 0, 8)
        assert labels.dtype == dtype
        assert np.array_equal(labels, cold_labels)


class TestLedgerProtocol:
    """A block counts once its whole ledger record is on disk, after its
    data; a pool's header is written once, so later appends publish a
    block with one record write."""

    @pytest.fixture
    def cache(self, graph, tmp_path):
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as cold:
            cold.ensure_samples(64)
        return cache

    def test_partial_record_is_not_counted_and_the_next_append_cuts_it(
        self, graph, cache, monkeypatch
    ):
        digest = pool_fingerprint(graph, 4)
        ledger = cache / digest / LEDGER
        whole = ledger.stat().st_size
        known = WorldStore(cache)
        assert known.count(known.register(graph, 4)) == 64
        with open(ledger, "ab") as handle:
            handle.write(struct.pack("<Q", 32)[:3])  # a record torn after 3 bytes

        assert known.count(digest) == 64  # the incremental parse skips it
        fresh = WorldStore(cache)
        assert fresh.count(fresh.register(graph, 4)) == 64  # so does the validator
        assert [pool.n_worlds for pool in fresh.info()] == [64]
        spy = SamplerSpy(monkeypatch, "sample_chunk_packed")
        with MonteCarloOracle(graph, seed=4, chunk_size=32, store=fresh) as warm:
            warm.ensure_samples(96)
            assert spy.worlds == 32
            warm_labels = warm.component_labels
        assert ledger.stat().st_size == whole + 8  # partial record cut, one record added
        assert read_ledger(cache / digest)[1] == [32, 32, 32]
        assert known.count(digest) == 96
        with MonteCarloOracle(graph, seed=4, chunk_size=32) as cold:
            cold.ensure_samples(96)
            assert np.array_equal(warm_labels, cold.component_labels)
        assert np.array_equal(known.read_labels(digest, 0, 96), warm_labels)

    def test_record_without_its_rows_resets_the_pool(self, graph, cache, monkeypatch):
        digest = pool_fingerprint(graph, 4)
        with MonteCarloOracle(graph, seed=4, chunk_size=32) as cold:
            cold.ensure_samples(64)
            cold_labels = cold.component_labels
        known = WorldStore(cache)
        assert known.count(known.register(graph, 4)) == 64
        with open(cache / digest / LEDGER, "ab") as handle:
            handle.write(struct.pack("<Q", 32))  # a block the data files lack

        assert known.count(digest) == 0  # caught on the incremental path
        with pytest.raises(WorldStoreError):
            known.read_labels(digest, 0, 1)
        assert WorldStore(cache).info() == []  # and by the validator
        spy = SamplerSpy(monkeypatch)
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as redo:
            redo.ensure_samples(64)
            assert spy.worlds == 64  # re-sampled, never served wrong
            assert np.array_equal(redo.component_labels, cold_labels)
        assert read_ledger(cache / digest)[1] == [32, 32]

    def test_appends_after_the_first_rewrite_no_file(self, graph, tmp_path, monkeypatch):
        """Constant work per append: only a pool's first append writes
        its header (one ``json.dumps``, one ``os.replace``); every later
        one, also by another store on the known pool, calls neither."""
        import repro.sampling.store as store_module

        calls = {"os.replace": 0, "json.dumps": 0}

        def spy(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(store_module.os, "replace", spy("os.replace", os.replace))
        monkeypatch.setattr(store_module.json, "dumps", spy("json.dumps", json.dumps))
        cache = tmp_path / "worlds"
        with MonteCarloOracle(graph, seed=4, chunk_size=32, cache_dir=cache) as oracle:
            oracle.ensure_samples(32)
            assert calls == {"os.replace": 1, "json.dumps": 1}  # the header
            oracle.ensure_samples(160)
        assert calls == {"os.replace": 1, "json.dumps": 1}
        with MonteCarloOracle(graph, seed=4, chunk_size=32, store=WorldStore(cache)) as other:
            other.ensure_samples(256)
            assert other.cache_stats == {"worlds_cached": 160, "worlds_sampled": 96}
        assert calls == {"os.replace": 1, "json.dumps": 1}
        blocks = read_ledger(cache / pool_fingerprint(graph, 4))[1]
        assert sum(blocks) == 256 and len(blocks) >= 8

    def test_cache_clear_removes_format_4_and_format_5_pools(self, graph, cache, capsys):
        from repro.cli import main

        old = cache / ("ab" * 32)  # a pool directory as format 4 left it
        old.mkdir()
        meta = {"format": 4, "digest": old.name, "n_worlds": 32, "block_counts": [32],
                "n_nodes": graph.n_nodes, "n_edges": graph.n_edges}
        (old / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
        (old / "masks.u64").write_bytes(bytes(graph.n_edges * 8))
        (old / "labels.u16").write_bytes(bytes(32 * graph.n_nodes * 2))
        assert [pool.digest for pool in WorldStore(cache).info()] == [pool_fingerprint(graph, 4)]

        assert main(["cache", "clear", str(cache)]) == 0
        assert "removed 2 pool(s)" in capsys.readouterr().err
        assert list(cache.iterdir()) == []


class TestClusteringReuse:
    def test_mcp_then_acp_share_pool(self, graph, monkeypatch):
        """An mcp -> acp pipeline with a shared store resamples only growth."""
        from repro.core.acp import acp_clustering
        from repro.core.mcp import mcp_clustering

        store = WorldStore()
        spy = SamplerSpy(monkeypatch)
        mcp = mcp_clustering(graph, 3, seed=0, chunk_size=64, store=store)
        sampled_by_mcp = spy.worlds
        assert sampled_by_mcp > 0
        acp = acp_clustering(graph, 3, seed=0, chunk_size=64, store=store)
        assert spy.worlds - sampled_by_mcp <= max(
            0, acp.samples_used - sampled_by_mcp
        )  # acp re-drew nothing mcp already had
        assert mcp.clustering.covers_all

    def test_repeated_mcp_is_warm_and_identical(self, graph, monkeypatch):
        from repro.core.mcp import mcp_clustering

        store = WorldStore()
        first = mcp_clustering(graph, 3, seed=0, chunk_size=64, store=store)
        spy = SamplerSpy(monkeypatch)
        second = mcp_clustering(graph, 3, seed=0, chunk_size=64, store=store)
        assert spy.worlds == 0
        assert np.array_equal(
            first.clustering.assignment, second.clustering.assignment
        )
        assert first.min_prob_estimate == second.min_prob_estimate


class TestLazyMaskLoading:
    """Warm labels load eagerly; packed masks stay in the store until a
    depth-limited query needs them."""

    def test_warm_unbounded_queries_never_read_masks(self, graph, monkeypatch):
        store = WorldStore()
        with MonteCarloOracle(graph, seed=21, chunk_size=64, store=store) as cold:
            cold.ensure_samples(128)

        def forbidden(self, digest, start, stop):  # pragma: no cover - failure path
            raise AssertionError("unbounded queries must not read mask bytes")

        monkeypatch.setattr(WorldStore, "read", forbidden)
        with MonteCarloOracle(graph, seed=21, chunk_size=64, store=store) as warm:
            warm.ensure_samples(128)
            warm.connection(0, 1)
            warm.pairwise_matrix([0, 1, 2])
            assert warm.packed_mask_nbytes == 0  # nothing materialized

    def test_warm_depth_query_materializes_masks(self, graph):
        store = WorldStore()
        with MonteCarloOracle(graph, seed=22, chunk_size=64, store=store) as cold:
            cold.ensure_samples(128)
            cold_depth = cold.connection_to_all(0, depth=2)
        with MonteCarloOracle(graph, seed=22, chunk_size=64, store=store) as warm:
            warm.ensure_samples(128)
            assert np.array_equal(warm.connection_to_all(0, depth=2), cold_depth)
            assert warm.packed_mask_nbytes > 0

    def test_depth_query_after_pool_clear_resamples(self, graph, labeling_calls):
        """A cleared pool between the warm load and the first depth query
        costs a deterministic redraw of the masks, never a crash — and
        never a relabel: the oracle already holds the chunk's labels."""
        store = WorldStore()
        with MonteCarloOracle(graph, seed=23, chunk_size=64, store=store) as cold:
            cold.ensure_samples(128)
            cold_depth = cold.connection_to_all(3, depth=2)
        labeled_cold = len(labeling_calls)
        with MonteCarloOracle(graph, seed=23, chunk_size=64, store=store) as warm:
            warm.ensure_samples(128)
            store.clear()  # pool evicted before any mask was touched
            assert np.array_equal(warm.connection_to_all(3, depth=2), cold_depth)
            assert len(labeling_calls) == labeled_cold
            assert warm.cache_stats == {"worlds_cached": 128, "worlds_sampled": 0}

    @pytest.mark.parametrize("warm_chunk_size", [64, 48])
    def test_pool_clear_redraw_books_no_sampled_worlds(self, graph, warm_chunk_size):
        """The redraw after a cleared pool is not sampling: the sampler
        counters stay put, in step with ``cache_stats``."""
        from repro import telemetry

        registry = telemetry.get_registry()
        store = WorldStore()
        with MonteCarloOracle(graph, seed=29, chunk_size=64, store=store) as cold:
            cold.ensure_samples(128)
            cold_depth = cold.connection_to_all(5, depth=3)
        with MonteCarloOracle(
            graph, seed=29, chunk_size=warm_chunk_size, store=store
        ) as warm:
            warm.ensure_samples(128)
            store.clear()
            worlds = registry.value("repro_sampler_worlds_total")
            chunks = registry.value("repro_sampler_chunks_total")
            assert np.array_equal(warm.connection_to_all(5, depth=3), cold_depth)
            assert registry.value("repro_sampler_worlds_total") == worlds
            assert registry.value("repro_sampler_chunks_total") == chunks
            assert warm.cache_stats["worlds_sampled"] == 0
