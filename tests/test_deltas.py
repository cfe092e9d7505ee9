"""Equivalence and interplay suite for delta-aware world invalidation.

The load-bearing pins of the mutable-graph refactor:

* **Determinism** (the acceptance criterion): for any mutation
  sequence, labels obtained by delta replay (``derive_pool`` along the
  chain) are bit-identical to cold-sampling the final graph at the same
  seed — across derivation block sizes, aligned and misaligned pool
  sizes, in memory and on disk.
* **Repair soundness**: the union-find labeler's component-local
  ``repair_labels`` equals the scipy reference's full relabel (the
  cross-check) bit-for-bit.
* **Eviction interplay**: deriving a child pool while the parent pool
  is being evicted either completes from the pinned parent or falls
  back to cold sampling — never a crash, never wrong labels.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.exceptions import GraphValidationError
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling import deltas
from repro.sampling.backends import UnionFindWorldBackend
from repro.sampling.deltas import derive_pool, diff_edges
from repro.sampling.oracle import MonteCarloOracle
from repro.sampling.parallel import sample_mask_rows
from repro.sampling.store import (
    WorldStore,
    pool_fingerprint,
    unpack_mask_columns,
)
from repro.service.cache import OracleCache
from repro.utils.rng import ensure_seed_sequence
from tests.conftest import random_graph
from tests.scipy_reference import ScipyReferenceLabeler, scipy_component_labels


@pytest.fixture
def small_derive_blocks(monkeypatch):
    """Derive 64 worlds per block, so small pools span several blocks."""
    monkeypatch.setattr(deltas, "DERIVE_BLOCK_WORLDS", 64)


@pytest.fixture
def graph():
    return random_graph(50, 0.1, np.random.default_rng(3), prob_low=0.1, prob_high=0.9)


def random_mutation(graph: UncertainGraph, rng: np.random.Generator):
    """One random applicable mutation of ``graph``."""
    kind = rng.choice(["add", "remove", "update"])
    edges = graph.edge_list()
    if kind in ("remove", "update") and not edges:
        kind = "add"
    if kind == "add":
        for _ in range(200):
            u, v = rng.choice(graph.n_nodes, size=2, replace=False)
            if not graph.has_edge(int(u), int(v)):
                return graph.add_edge(int(u), int(v), float(rng.uniform(0.05, 0.95)))
        kind = "update"  # graph is (nearly) complete
    u, v, p = edges[int(rng.integers(len(edges)))]
    if kind == "remove":
        return graph.remove_edge(u, v)
    return graph.update_edge(u, v, float(rng.uniform(0.05, 0.95)))


# ----------------------------------------------------------------------
# Graph mutation API
# ----------------------------------------------------------------------


class TestMutationAPI:
    def test_copy_on_write_and_revision(self, graph):
        src, dst, prob = graph.edge_src.copy(), graph.edge_dst.copy(), graph.edge_prob.copy()
        u, v, p = graph.edge_list()[0]
        mutated, counts = graph.update_edge(u, v, 0.123)
        assert graph.revision == 0 and mutated.revision == 1
        assert np.array_equal(graph.edge_prob, prob)  # reader undisturbed
        assert np.array_equal(graph.edge_src, src) and np.array_equal(graph.edge_dst, dst)
        assert mutated.edge_probability_between(graph.index_of(u), graph.index_of(v)) == 0.123
        assert counts == {"added": 0, "removed": 0, "updated": 1}

    def test_mutated_equals_cold_built_final_graph(self, graph):
        rng = np.random.default_rng(1)
        while True:
            u, v = rng.choice(graph.n_nodes, size=2, replace=False)
            if not graph.has_edge(int(u), int(v)):
                break
        mutated, _ = graph.mutate(
            add=[(int(u), int(v), 0.5)], remove=[graph.edge_list()[0][:2]],
            update=[graph.edge_list()[1][:2] + (0.77,)],
        )
        cold = UncertainGraph.from_edges(mutated.edge_list(), nodes=graph.node_labels)
        assert np.array_equal(cold.edge_src, mutated.edge_src)
        assert np.array_equal(cold.edge_dst, mutated.edge_dst)
        assert np.array_equal(cold.edge_prob, mutated.edge_prob)
        assert pool_fingerprint(cold, 7) == pool_fingerprint(mutated, 7)

    def test_validation_errors(self, graph):
        u, v, _ = graph.edge_list()[0]
        with pytest.raises(GraphValidationError, match="already exists"):
            graph.add_edge(u, v, 0.5)
        with pytest.raises(GraphValidationError, match="no edge"):
            graph.mutate(remove=[(0, 1)] if not graph.has_edge(0, 1) else [(0, 2)])
        with pytest.raises(GraphValidationError, match="probability"):
            graph.update_edge(u, v, 1.5)
        with pytest.raises(GraphValidationError, match="probability"):
            graph.update_edge(u, v, float("nan"))
        with pytest.raises(GraphValidationError, match="self loop"):
            graph.mutate(add=[(3, 3, 0.5)])
        with pytest.raises(GraphValidationError, match="more than one"):
            graph.mutate(update=[(u, v, 0.4), (v, u, 0.6)])
        with pytest.raises(GraphValidationError, match="unknown node"):
            graph.remove_edge("nope", u)

    def test_mixed_mutation_counts(self, graph):
        (u0, v0, _), (u1, v1, _), (u2, v2, _) = graph.edge_list()[:3]
        mutated, counts = graph.mutate(
            add=[(0, 49, 0.9)], remove=[(u0, v0), (u1, v1)], update=[(u2, v2, 0.42)]
        )
        assert counts == {"added": 1, "removed": 2, "updated": 1}
        assert (graph.revision, mutated.revision) == (0, 1)
        assert mutated.n_edges == graph.n_edges - 1

    def test_mutation_chain_steps_revision(self, graph):
        rng = np.random.default_rng(0)
        chain = [graph]
        for _ in range(5):
            mutated, counts = random_mutation(chain[-1], rng)
            assert sum(counts.values()) == 1
            chain.append(mutated)
        assert [g.revision for g in chain] == [0, 1, 2, 3, 4, 5]
        final = chain[-1]
        cold = UncertainGraph.from_edges(final.edge_list(), nodes=graph.node_labels)
        assert np.array_equal(cold.edge_src, final.edge_src)
        assert np.array_equal(cold.edge_prob, final.edge_prob)

    def test_mutation_canonicalizes_endpoints(self):
        g = UncertainGraph.from_edges([(i, i + 1, 0.5) for i in range(10)])
        g2, _ = g.add_edge(9, 2, 0.3)
        assert (2, 9, 0.3) in g2.edge_list()
        g3, counts = g2.update_edge(9, 2, 0.8)  # reversed endpoints name the same edge
        assert counts["updated"] == 1 and (2, 9, 0.8) in g3.edge_list()
        with pytest.raises(GraphValidationError, match=r"edge \(2, 9\) already exists"):
            g2.add_edge(9, 2, 0.1)
        with pytest.raises(GraphValidationError, match=r"edge \(2, 9\) appears in more than one"):
            g2.mutate(remove=[(9, 2)], update=[(2, 9, 0.4)])

    def test_unknown_label_reported_before_other_faults(self):
        g = UncertainGraph.from_edges([("a", "b", 0.5), ("b", "c", 0.6)])
        # Every label resolves before any op is checked.
        with pytest.raises(GraphValidationError, match="unknown node label 'zz'"):
            g.mutate(add=[("a", "a", 0.5)], update=[("zz", "b", 0.3)])
        with pytest.raises(GraphValidationError, match="unknown node label 'nope'"):
            g.mutate(remove=[("a", "nope")], update=[("a", "b", 0.1), ("b", "a", 0.2)])
        # Among resolved ops, faults report in add, remove, update order.
        with pytest.raises(GraphValidationError, match="self loop"):
            g.mutate(add=[("c", "c", 0.5)], update=[("a", "b", 0.1), ("b", "a", 0.2)])
        with pytest.raises(GraphValidationError, match=r"no edge \(0, 2\) to remove"):
            g.mutate(remove=[("a", "c")], update=[("a", "b", 7.0)])

    def test_labeled_graph_mutation(self):
        g = UncertainGraph.from_edges([("a", "b", 0.5), ("b", "c", 0.6)])
        g2, counts = g.add_edge("a", "c", 0.7)
        assert g2.n_edges == 3 and g2.node_labels == g.node_labels
        assert counts == {"added": 1, "removed": 0, "updated": 0}
        assert (g.revision, g2.revision) == (0, 1)
        assert g2.edge_probability_between(g2.index_of("a"), g2.index_of("c")) == 0.7


# ----------------------------------------------------------------------
# diff_edges
# ----------------------------------------------------------------------


class TestDiffEdges:
    def test_classification(self, graph):
        (u0, v0, _), (u1, v1, _) = graph.edge_list()[:2]
        mutated, _ = graph.mutate(
            update=[(u0, v0, 0.999)], remove=[(u1, v1)], add=[(0, 49, 0.5)]
        )
        diff = diff_edges(graph, mutated)
        assert len(diff.updated_child) == 1 and len(diff.added_child) == 1
        assert len(diff.removed_parent) == 1
        assert len(diff.kept_child) == graph.n_edges - 2
        assert diff.n_touched == 3
        # Kept pairs line up: same endpoints, same probability.
        assert np.array_equal(
            graph.edge_prob[diff.kept_parent], mutated.edge_prob[diff.kept_child]
        )

    def test_chain_collapses(self, graph):
        rng = np.random.default_rng(5)
        current = graph
        for _ in range(6):
            current, _ = random_mutation(current, rng)
        diff = diff_edges(graph, current)
        assert diff.n_touched <= 6  # chain collapsed, no intermediate churn

    def test_node_count_mismatch(self, graph):
        smaller = graph.subgraph(np.arange(10))
        with pytest.raises(ValueError, match="node counts"):
            diff_edges(graph, smaller)


# ----------------------------------------------------------------------
# repair_labels: union-find repair vs scipy full relabel
# ----------------------------------------------------------------------


class TestRepairLabels:
    @pytest.mark.parametrize("trial", range(5))
    def test_repair_matches_full_relabel(self, trial):
        rng = np.random.default_rng(100 + trial)
        graph = random_graph(40, 0.12, rng, prob_low=0.2, prob_high=0.9)
        root = ensure_seed_sequence(trial)
        old_masks = sample_mask_rows(
            graph.edge_src, graph.edge_dst, graph.edge_prob, root, 0, 48
        )
        reference = ScipyReferenceLabeler()
        uf = UnionFindWorldBackend()
        old_labels = reference.component_labels(graph, old_masks)
        # Flip a handful of random edge instances to simulate a delta.
        new_masks = old_masks.copy()
        flip_edges = rng.choice(graph.n_edges, size=3, replace=False)
        flip_worlds = rng.random((48, 3)) < 0.3
        for column, edge in enumerate(flip_edges):
            new_masks[flip_worlds[:, column], edge] ^= True
        affected = np.zeros((48, graph.n_nodes), dtype=bool)
        for column, edge in enumerate(flip_edges):
            for world in np.flatnonzero(flip_worlds[:, column]):
                targets = {
                    old_labels[world, graph.edge_src[edge]],
                    old_labels[world, graph.edge_dst[edge]],
                }
                affected[world] |= np.isin(old_labels[world], list(targets))
        expected = reference.repair_labels(graph, new_masks, old_labels, affected)
        assert np.array_equal(expected, reference.component_labels(graph, new_masks))
        repaired = uf.repair_labels(graph, new_masks, old_labels, affected)
        assert np.array_equal(repaired, expected)
        assert np.array_equal(repaired, uf.component_labels(graph, new_masks))

    def test_shape_validation(self):
        graph = UncertainGraph.from_edges([(0, 1, 0.5)])
        uf = UnionFindWorldBackend()
        with pytest.raises(ValueError):
            uf.repair_labels(
                graph,
                np.zeros((2, 1), dtype=bool),
                np.zeros((3, 2), dtype=np.int32),
                np.zeros((2, 2), dtype=bool),
            )


# ----------------------------------------------------------------------
# derive_pool: the determinism pin
# ----------------------------------------------------------------------


def cold_pool(graph, *, seed, chunk_size, samples):
    """Reference pool: cold-sample ``graph`` into a fresh store."""
    store = WorldStore()
    with MonteCarloOracle(graph, seed=seed, chunk_size=chunk_size, store=store) as oracle:
        oracle.ensure_samples(samples)
        return store, oracle.pool_digest, oracle.component_labels


class TestDerivePool:
    @pytest.mark.parametrize("derive_block", [512, 64])
    @pytest.mark.parametrize("chunk_size", [64, 100])
    def test_delta_replay_bit_identical_to_cold(
        self, graph, derive_block, chunk_size, monkeypatch
    ):
        """THE acceptance pin: derived chain == cold final, bit for bit."""
        monkeypatch.setattr(deltas, "DERIVE_BLOCK_WORLDS", derive_block)
        samples = 200  # misaligned with chunk_size=64 and =100 blocks
        store = WorldStore()
        with MonteCarloOracle(graph, seed=11, chunk_size=chunk_size, store=store) as oracle:
            oracle.ensure_samples(samples)
        rng = np.random.default_rng(42)
        current = graph
        for _ in range(4):
            parent = current
            current, _ = random_mutation(current, rng)
            result = derive_pool(store, parent, current, seed=11)
            assert result is not None and result.complete
            assert result.worlds_derived == samples
        ref_store, ref_digest, ref_labels = cold_pool(
            current, seed=11, chunk_size=chunk_size, samples=samples
        )
        derived_digest = pool_fingerprint(current, 11)
        got_packed, got_labels = store.read(derived_digest, 0, samples)
        ref_packed, _ = ref_store.read(ref_digest, 0, samples)
        assert np.array_equal(got_labels, ref_labels)
        got_masks = unpack_mask_columns(got_packed, samples)
        assert np.array_equal(got_masks, unpack_mask_columns(ref_packed, samples))
        # The repaired labels are the scipy reference's full relabel.
        assert np.array_equal(got_labels, scipy_component_labels(current, got_masks))
        # ... and a warm oracle over the derived pool samples nothing.
        with MonteCarloOracle(current, seed=11, chunk_size=chunk_size, store=store) as warm:
            warm.ensure_samples(samples)
            assert warm.cache_stats["worlds_sampled"] == 0

    def test_derive_is_incremental_for_single_edge_update(self, graph):
        store = WorldStore()
        with MonteCarloOracle(graph, seed=1, chunk_size=512, store=store) as oracle:
            oracle.ensure_samples(256)
        u, v, p = graph.edge_list()[0]
        mutated, _ = graph.update_edge(u, v, min(1.0, p + 0.05))
        result = derive_pool(store, graph, mutated, seed=1)
        assert result.complete and result.worlds_derived == 256
        assert result.columns_resampled == 1  # only the touched column
        # A +0.05 probability bump flips ~5% of worlds, never all of them.
        assert 0 < result.worlds_repaired < 256

    def test_columns_resampled_counts_distinct_columns_not_blocks(
        self, graph, small_derive_blocks
    ):
        """``columns_resampled`` must not scale with the block count.

        Every derived block resamples the *same* touched columns, so the
        counter reports distinct columns.  The old accumulate-per-block
        bug would report ``touched * n_blocks`` (here 2 * 3 = 6).
        """
        store = WorldStore()
        with MonteCarloOracle(graph, seed=5, chunk_size=64, store=store) as oracle:
            oracle.ensure_samples(192)  # three 64-world blocks
        u, v, p = graph.edge_list()[0]
        mutated, _ = graph.update_edge(u, v, min(1.0, p + 0.05))
        for a in range(graph.n_nodes):
            if not mutated.has_edge(a, (a + 7) % graph.n_nodes):
                mutated, _ = mutated.add_edge(a, (a + 7) % graph.n_nodes, 0.3)
                break
        result = derive_pool(store, graph, mutated, seed=5)
        assert result.complete and result.worlds_derived == 192
        assert result.columns_resampled == 2  # one update + one add, 3 blocks

    def test_no_parent_pool_returns_none(self, graph):
        store = WorldStore()
        mutated, _ = graph.update_edge(*graph.edge_list()[0][:2], 0.5)
        assert derive_pool(store, graph, mutated, seed=1) is None

    def test_identical_graphs_return_none(self, graph):
        store = WorldStore()
        with MonteCarloOracle(graph, seed=1, store=store) as oracle:
            oracle.ensure_samples(64)
        assert derive_pool(store, graph, graph, seed=1) is None

    def test_partial_child_pool_derives_only_the_tail(self, graph):
        store = WorldStore()
        with MonteCarloOracle(graph, seed=2, chunk_size=64, store=store) as oracle:
            oracle.ensure_samples(192)
        mutated, _ = graph.update_edge(*graph.edge_list()[0][:2], 0.4)
        # Cold-sample the child's first 64 worlds, then derive the rest.
        with MonteCarloOracle(mutated, seed=2, chunk_size=64, store=store) as head:
            head.ensure_samples(64)
        result = derive_pool(store, graph, mutated, seed=2)
        assert result.complete and result.worlds_derived == 128
        _, ref_labels = cold_pool(
            mutated, seed=2, chunk_size=64, samples=192
        )[1:]
        _, got_labels = store.read(result.digest, 0, 192)
        assert np.array_equal(got_labels, ref_labels)

    def test_disk_store_derivation_across_instances(self, graph, tmp_path):
        cache = tmp_path / "wc"
        with MonteCarloOracle(graph, seed=3, chunk_size=64, cache_dir=cache) as oracle:
            oracle.ensure_samples(100)
        mutated, _ = graph.update_edge(*graph.edge_list()[0][:2], 0.9)
        result = derive_pool(WorldStore(cache), graph, mutated, seed=3)
        assert result.complete and result.worlds_derived == 100
        # A fresh process (new store instance) serves the derived pool warm.
        with MonteCarloOracle(mutated, seed=3, chunk_size=64, cache_dir=cache) as warm:
            warm.ensure_samples(100)
            assert warm.cache_stats["worlds_sampled"] == 0
        _, ref_labels = cold_pool(
            mutated, seed=3, chunk_size=64, samples=100
        )[1:]
        assert np.array_equal(warm.component_labels, ref_labels)

    def test_parent_vanishing_mid_derive_degrades_to_partial(
        self, graph, monkeypatch, small_derive_blocks
    ):
        store = WorldStore()
        with MonteCarloOracle(graph, seed=4, chunk_size=64, store=store) as oracle:
            oracle.ensure_samples(192)
        mutated, _ = graph.update_edge(*graph.edge_list()[0][:2], 0.6)
        parent_digest = pool_fingerprint(graph, 4)
        original_read = WorldStore.read
        reads = {"count": 0}

        def flaky_read(self, digest, start, stop):
            if digest == parent_digest:
                reads["count"] += 1
                if reads["count"] == 2:  # parent evicted after block one
                    raise FileNotFoundError("pool evicted")
            return original_read(self, digest, start, stop)

        monkeypatch.setattr(WorldStore, "read", flaky_read)
        result = derive_pool(store, graph, mutated, seed=4)
        assert result is not None and not result.complete
        assert result.worlds_derived == 64  # first block landed
        monkeypatch.undo()
        # The partial pool is correct; a warm oracle extends it cold.
        _, ref_labels = cold_pool(
            mutated, seed=4, chunk_size=64, samples=192
        )[1:]
        with MonteCarloOracle(mutated, seed=4, chunk_size=64, store=store) as resume:
            resume.ensure_samples(192)
            assert resume.cache_stats["worlds_cached"] == 64
            assert np.array_equal(resume.component_labels, ref_labels)


# ----------------------------------------------------------------------
# OracleCache: derive instead of evict, and the eviction interplay
# ----------------------------------------------------------------------


class TestCacheDerivation:
    def test_lease_with_ancestors_derives(self, graph, monkeypatch):
        from repro.sampling.parallel import ParallelSampler

        cache = OracleCache(max_bytes=64 << 20)
        with cache.lease(graph, seed=7) as oracle:
            oracle.ensure_samples(128)
        mutated, _ = graph.update_edge(*graph.edge_list()[0][:2], 0.8)

        calls = {"n": 0}
        original = ParallelSampler.sample_chunk

        def spy(sampler, root, start, count):
            calls["n"] += 1
            return original(sampler, root, start, count)

        monkeypatch.setattr(ParallelSampler, "sample_chunk", spy)
        with cache.lease(mutated, seed=7, ancestors=(graph,)) as oracle:
            oracle.ensure_samples(128)
            assert oracle.cache_stats["worlds_sampled"] == 0  # served derived
        assert calls["n"] == 0
        stats = cache.stats()
        assert stats["pools_derived"] == 1
        assert stats["worlds_derived"] == 128
        _, ref_labels = cold_pool(
            mutated, seed=7, chunk_size=512, samples=128
        )[1:]
        with cache.lease(mutated, seed=7) as oracle:
            oracle.ensure_samples(128)
            assert np.array_equal(oracle.component_labels, ref_labels)

    def test_lease_without_ancestors_stays_cold(self, graph):
        cache = OracleCache(max_bytes=64 << 20)
        with cache.lease(graph, seed=7) as oracle:
            oracle.ensure_samples(64)
        mutated, _ = graph.update_edge(*graph.edge_list()[0][:2], 0.8)
        with cache.lease(mutated, seed=7) as oracle:
            oracle.ensure_samples(64)
            assert oracle.cache_stats["worlds_sampled"] == 64
        assert cache.stats()["pools_derived"] == 0

    def test_mismatched_ancestor_is_skipped(self, graph):
        cache = OracleCache(max_bytes=64 << 20)
        other = random_graph(10, 0.3, np.random.default_rng(9))
        with cache.lease(other, seed=7) as oracle:
            oracle.ensure_samples(32)
        with cache.lease(graph, seed=7, ancestors=(other,)) as oracle:
            oracle.ensure_samples(32)  # different node count: cold, no crash
            assert oracle.cache_stats["worlds_sampled"] == 32

    def test_derivation_pins_parent_against_eviction(self, graph, monkeypatch):
        """While a derive is reading the parent pool, budget enforcement
        must not evict it (the pin), and once the lease completes the
        budget applies again."""
        cache = OracleCache(max_bytes=64 << 20)
        with cache.lease(graph, seed=8) as oracle:
            oracle.ensure_samples(128)
        parent_digest = pool_fingerprint(graph, 8)
        mutated, _ = graph.update_edge(*graph.edge_list()[0][:2], 0.9)

        import repro.service.cache as cache_module
        original_derive = cache_module.derive_pool
        observed = {}

        def derive_with_eviction_attempt(store, parent, child, **kwargs):
            # Simulate the LRU sweep racing the derivation: the parent
            # is pinned, so enforcement must leave it alone.
            with cache._lock:
                pinned = bool(cache._pinned.get(parent_digest))
            cache._enforce_budget()
            observed["pinned"] = pinned
            observed["parent_alive"] = store.count(parent_digest) == 128
            return original_derive(store, parent, child, **kwargs)

        monkeypatch.setattr(cache_module, "derive_pool", derive_with_eviction_attempt)
        with cache.lease(mutated, seed=8, ancestors=(graph,)) as oracle:
            oracle.ensure_samples(128)
            assert oracle.cache_stats["worlds_sampled"] == 0
        assert observed == {"pinned": True, "parent_alive": True}

    def test_parent_evicted_before_derive_falls_back_cold(self, graph, monkeypatch):
        """The satellite pin: parent eviction racing a derivation must
        produce a cold (correct) run, never a crash or corruption."""
        cache = OracleCache(max_bytes=64 << 20)
        with cache.lease(graph, seed=9) as oracle:
            oracle.ensure_samples(96)
        parent_digest = pool_fingerprint(graph, 9)
        mutated, _ = graph.update_edge(*graph.edge_list()[0][:2], 0.9)

        import repro.service.cache as cache_module
        original_derive = cache_module.derive_pool

        def evict_then_derive(store, parent, child, **kwargs):
            store.clear(parent_digest)  # "another worker evicted it"
            return original_derive(store, parent, child, **kwargs)

        monkeypatch.setattr(cache_module, "derive_pool", evict_then_derive)
        with cache.lease(mutated, seed=9, ancestors=(graph,)) as oracle:
            oracle.ensure_samples(96)
            assert oracle.cache_stats["worlds_sampled"] == 96  # cold, not crashed
        _, ref_labels = cold_pool(
            mutated, seed=9, chunk_size=512, samples=96
        )[1:]
        with cache.lease(mutated, seed=9) as oracle:
            oracle.ensure_samples(96)
            assert np.array_equal(oracle.component_labels, ref_labels)

    def test_concurrent_derives_and_evictions_never_corrupt(self, graph):
        """Thread-pressure version of the interplay pin."""
        cache = OracleCache(max_bytes=64 << 20)
        with cache.lease(graph, seed=10) as oracle:
            oracle.ensure_samples(128)
        parent_digest = pool_fingerprint(graph, 10)
        mutated, _ = graph.update_edge(*graph.edge_list()[0][:2], 0.9)
        _, ref_labels = cold_pool(
            mutated, seed=10, chunk_size=512, samples=128
        )[1:]
        errors = []
        stop = threading.Event()

        def evictor():
            while not stop.is_set():
                cache.store.clear(parent_digest)

        def deriver(results, index):
            try:
                with cache.lease(mutated, seed=10, ancestors=(graph,)) as oracle:
                    oracle.ensure_samples(128)
                    results[index] = oracle.component_labels.copy()
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        results = [None] * 4
        evict_thread = threading.Thread(target=evictor)
        derive_threads = [
            threading.Thread(target=deriver, args=(results, i)) for i in range(4)
        ]
        evict_thread.start()
        for thread in derive_threads:
            thread.start()
        for thread in derive_threads:
            thread.join(timeout=60)
        stop.set()
        evict_thread.join(timeout=60)
        assert not errors, errors
        for labels in results:
            assert labels is not None
            assert np.array_equal(labels, ref_labels)
