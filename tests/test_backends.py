"""Equivalence suite for the world labeler.

Pins the canonical labeling contract of
:mod:`repro.sampling.backends.unionfind`: for any ``(graph, masks)``
input, the union-find labeler returns the *same* ``(r, n)`` int32 array
as the independent block-diagonal scipy reference
(:mod:`tests.scipy_reference`), so all downstream estimates and
clusterings are pure functions of the seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acp import acp_clustering
from repro.core.mcp import mcp_clustering
from repro.datasets import krogan_like
from repro.graph.components import connected_component_labels
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling import MonteCarloOracle, WorldStore
from repro.sampling.backends import BACKENDS, UnionFindWorldBackend
from repro.sampling.store import pack_mask_columns, unpack_mask_columns
from repro.sampling.worlds import block_bfs_reached, world_block_csr
from tests.conftest import random_graph
from tests.scipy_reference import ScipyReferenceLabeler, scipy_component_labels

#: The labeler and its reference: edge cases run through both, so the
#: reference the other suites compare against is itself pinned.
ALL_LABELERS = [ScipyReferenceLabeler(), UnionFindWorldBackend()]


def assert_canonical(graph, masks, labels):
    """``labels`` must be the min-node-index labeling of every world."""
    assert labels.shape == (masks.shape[0], graph.n_nodes)
    assert labels.dtype == np.int32
    for i in range(masks.shape[0]):
        expected = connected_component_labels(
            graph.n_nodes, graph.edge_src, graph.edge_dst, mask=masks[i]
        )
        # Same partition...
        mapping = {}
        for a, b in zip(labels[i].tolist(), expected.tolist(), strict=True):
            assert mapping.setdefault(a, b) == b
        # ...and the canonical representative: min node index per component.
        for label in np.unique(labels[i]):
            members = np.flatnonzero(labels[i] == label)
            assert label == members.min()


class TestLabelEquivalence:
    """Union-find and the scipy reference agree bit-for-bit and match
    per-world ground truth."""

    GRID = [
        (n, density, prob_low, prob_high)
        for n in (2, 3, 9, 24, 60)
        for density in (0.05, 0.2, 0.6)
        for prob_low, prob_high in ((0.1, 0.9), (0.05, 0.35), (0.5, 1.0))
    ]

    @pytest.mark.parametrize("n,density,prob_low,prob_high", GRID)
    def test_grid(self, n, density, prob_low, prob_high):
        rng = np.random.default_rng(n * 1000 + int(density * 100))
        graph = random_graph(n, density, rng, prob_low=prob_low, prob_high=prob_high)
        masks = rng.random((23, graph.n_edges)) < graph.edge_prob
        results = [labeler.component_labels(graph, masks) for labeler in ALL_LABELERS]
        for other in results[1:]:
            assert np.array_equal(results[0], other)
        assert_canonical(graph, masks, results[0])

    @given(
        n=st.integers(min_value=1, max_value=16),
        density=st.floats(min_value=0.0, max_value=1.0),
        r=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_random_graphs(self, n, density, r, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(max(n, 2), density, rng)
        masks = rng.random((r, graph.n_edges)) < graph.edge_prob
        scipy_labels = scipy_component_labels(graph, masks)
        uf_labels = UnionFindWorldBackend().component_labels(graph, masks)
        assert np.array_equal(scipy_labels, uf_labels)
        assert_canonical(graph, masks, uf_labels)

    @pytest.mark.parametrize("r", [1, 15, 16, 17, 50])
    @pytest.mark.parametrize("world_batch", [1, 3, 15, 16, 17, 64, 1024])
    def test_sub_batching_is_invisible(self, world_batch, r):
        rng = np.random.default_rng(5)
        graph = random_graph(40, 0.15, rng)
        masks = rng.random((r, graph.n_edges)) < graph.edge_prob
        labels = UnionFindWorldBackend(world_batch=world_batch).component_labels(graph, masks)
        assert np.array_equal(labels, scipy_component_labels(graph, masks))

    def test_int32_clamp_splits_batches(self, monkeypatch):
        """A batch whose block domain would overflow the int32 limit is
        cut to ``limit // n`` worlds; the split stays invisible."""
        from repro.sampling.backends import unionfind

        rng = np.random.default_rng(6)
        graph = random_graph(40, 0.15, rng)
        masks = rng.random((7, graph.n_edges)) < graph.edge_prob
        monkeypatch.setattr(unionfind, "_INT32_LIMIT", 2 * 40 + 5)
        backend = UnionFindWorldBackend(world_batch=64)
        batch_sizes = []
        label_batch = backend._label_batch

        def spy(batch_masks, *args):
            batch_sizes.append(batch_masks.shape[0])
            label_batch(batch_masks, *args)

        monkeypatch.setattr(backend, "_label_batch", spy)
        labels = backend.component_labels(graph, masks)
        assert batch_sizes == [2, 2, 2, 1]
        assert np.array_equal(labels, scipy_component_labels(graph, masks))

    def test_supercritical_chunk(self):
        """A 251-world chunk of krogan_like(0.4): every world holds a
        giant component, so the hook loop runs several rounds."""
        graph = krogan_like(seed=0, scale=0.4).graph
        masks = np.random.default_rng(41).random((251, graph.n_edges)) < graph.edge_prob
        labels = UnionFindWorldBackend().component_labels(graph, masks)
        assert np.array_equal(labels, scipy_component_labels(graph, masks))
        giants = np.array([np.bincount(row).max() for row in labels])
        assert (giants > graph.n_nodes // 2).all()


class TestEdgeCases:
    """Regression tests for the sampling kernels on degenerate inputs."""

    @pytest.mark.parametrize("labeler", ALL_LABELERS, ids=lambda b: b.name)
    def test_empty_graph(self, labeler):
        graph = UncertainGraph(0, [], [], [])
        labels = labeler.component_labels(graph, np.zeros((4, 0), dtype=bool))
        assert labels.shape == (4, 0)

    @pytest.mark.parametrize("labeler", ALL_LABELERS, ids=lambda b: b.name)
    def test_single_node(self, labeler):
        graph = UncertainGraph(1, [], [], [])
        labels = labeler.component_labels(graph, np.zeros((3, 0), dtype=bool))
        assert labels.shape == (3, 1)
        assert (labels == 0).all()

    @pytest.mark.parametrize("labeler", ALL_LABELERS, ids=lambda b: b.name)
    def test_edgeless_worlds(self, labeler, two_triangles):
        """The zero-probability limit: no edge survives in any world."""
        masks = np.zeros((5, two_triangles.n_edges), dtype=bool)
        labels = labeler.component_labels(two_triangles, masks)
        assert np.array_equal(labels, np.tile(np.arange(6, dtype=np.int32), (5, 1)))

    @pytest.mark.parametrize("labeler", ALL_LABELERS, ids=lambda b: b.name)
    def test_certain_worlds(self, labeler, two_triangles):
        """Probability-1 edges: every world is the full skeleton."""
        masks = np.ones((4, two_triangles.n_edges), dtype=bool)
        labels = labeler.component_labels(two_triangles, masks)
        assert (labels == 0).all()  # the skeleton is connected

    @pytest.mark.parametrize("labeler", ALL_LABELERS, ids=lambda b: b.name)
    def test_r_zero_chunk(self, labeler, two_triangles):
        labels = labeler.component_labels(
            two_triangles, np.zeros((0, two_triangles.n_edges), dtype=bool)
        )
        assert labels.shape == (0, 6)
        assert labels.dtype == np.int32

    @pytest.mark.parametrize("labeler", ALL_LABELERS, ids=lambda b: b.name)
    def test_bad_mask_shape_rejected(self, labeler, two_triangles):
        with pytest.raises(ValueError):
            labeler.component_labels(two_triangles, np.zeros((2, 3), dtype=bool))

    def test_depth_zero_bfs_reaches_only_source(self, path4):
        masks = np.ones((3, 3), dtype=bool)
        block = world_block_csr(path4, masks)
        reached = block_bfs_reached(block, 4, 3, 2, 0)
        expected = np.zeros((3, 4), dtype=bool)
        expected[:, 2] = True
        assert np.array_equal(reached, expected)

    def test_pairwise_matrix_empty_subset(self, two_triangles):
        oracle = MonteCarloOracle(two_triangles, seed=0)
        oracle.ensure_samples(32)
        assert oracle.pairwise_matrix(nodes=[]).shape == (0, 0)

    def test_invalid_world_batch(self):
        with pytest.raises(ValueError):
            UnionFindWorldBackend(world_batch=0)


@pytest.fixture
def bigger_graph():
    return random_graph(80, 0.06, np.random.default_rng(11), prob_low=0.2, prob_high=0.95)


class TestOracleAgainstReference:
    """The oracle's pool labels are the reference labels of its masks,
    so every query answered from labels is the reference answer."""

    @pytest.fixture
    def oracle(self, bigger_graph):
        oracle = MonteCarloOracle(bigger_graph, seed=99, chunk_size=64)
        oracle.ensure_samples(256)
        return oracle

    @staticmethod
    def reference_labels(oracle):
        return np.concatenate([
            scipy_component_labels(oracle.graph, oracle.chunk_masks(index))
            for index in range(oracle.n_chunks)
        ])

    def test_component_labels_match_reference(self, oracle):
        assert np.array_equal(oracle.component_labels, self.reference_labels(oracle))

    def test_connection_to_all_matches_reference(self, oracle):
        labels = self.reference_labels(oracle)
        for node in (0, 17, 79):
            expected = (labels == labels[:, [node]]).mean(axis=0)
            assert np.array_equal(oracle.connection_to_all(node), expected)

    def test_pairwise_matrix_matches_reference(self, oracle):
        labels = self.reference_labels(oracle)
        subset = np.arange(0, 80, 7)
        expected = (labels[:, subset, None] == labels[:, None, subset]).mean(axis=0)
        assert np.array_equal(oracle.pairwise_matrix(subset), expected)


class TestClusteringAcrossChunkSizes:
    """MCP/ACP served from a pool warmed at another chunk size return
    exactly the cold-sampled clustering."""

    @staticmethod
    def warm_store(graph):
        store = WorldStore()
        with MonteCarloOracle(graph, seed=4, chunk_size=512, store=store) as oracle:
            oracle.ensure_samples(2000)
        return store

    def test_mcp_identical(self, bigger_graph):
        cold = mcp_clustering(bigger_graph, 6, seed=4, chunk_size=64)
        warm = mcp_clustering(
            bigger_graph, 6, seed=4, chunk_size=64, store=self.warm_store(bigger_graph)
        )
        assert np.array_equal(cold.clustering.assignment, warm.clustering.assignment)
        assert np.array_equal(cold.clustering.centers, warm.clustering.centers)
        assert cold.q_final == warm.q_final
        assert cold.min_prob_estimate == warm.min_prob_estimate
        assert [g.q for g in cold.history] == [g.q for g in warm.history]

    def test_acp_identical(self, bigger_graph):
        cold = acp_clustering(bigger_graph, 6, seed=4, chunk_size=64)
        warm = acp_clustering(
            bigger_graph, 6, seed=4, chunk_size=64, store=self.warm_store(bigger_graph)
        )
        assert np.array_equal(cold.clustering.assignment, warm.clustering.assignment)
        assert cold.phi_best == warm.phi_best
        assert cold.avg_prob_estimate == warm.avg_prob_estimate


class TestOneLabeler:
    def test_table_has_one_entry(self):
        assert BACKENDS == {"unionfind": UnionFindWorldBackend}
        assert UnionFindWorldBackend().name == "unionfind"

    @pytest.mark.parametrize(
        "name",
        ["ScipyWorldBackend", "WorldBackend", "resolve_backend", "BACKEND_NAMES",
         "AUTO_NODE_THRESHOLD"],
    )
    def test_selection_api_is_gone(self, name):
        import repro.sampling
        import repro.sampling.backends

        assert not hasattr(repro.sampling.backends, name)
        assert not hasattr(repro.sampling, name)


class TestPackedKernel:
    """Labels computed from the store's packed ``uint64`` columns.

    Unpacking a packed chunk and labeling it gives the labels of the
    boolean chunk it was packed from, whatever the world count and
    wherever a store read starts within a word.
    """

    @staticmethod
    def from_packed(graph, masks):
        """Label ``masks`` via its packed columns with both labelers;
        assert they agree with the boolean path and return the labels."""
        r = masks.shape[0]
        unpacked = unpack_mask_columns(pack_mask_columns(masks), r)
        reference = scipy_component_labels(graph, masks)
        for labeler in ALL_LABELERS:
            assert np.array_equal(labeler.component_labels(graph, unpacked), reference)
        return reference

    @pytest.mark.parametrize("r", [1, 63, 64, 65, 130])
    def test_r_not_multiple_of_64(self, two_triangles, r):
        masks = np.random.default_rng(r).random((r, two_triangles.n_edges)) < two_triangles.edge_prob
        unpacked = unpack_mask_columns(pack_mask_columns(masks), r)
        for labeler in ALL_LABELERS:
            assert np.array_equal(
                labeler.component_labels(two_triangles, unpacked),
                labeler.component_labels(two_triangles, masks),
            )

    def test_single_world_chunk(self, path4):
        masks = np.random.default_rng(5).random((1, path4.n_edges)) < path4.edge_prob
        labels = self.from_packed(path4, masks)
        assert labels.shape == (1, 4)

    def test_zero_edge_graph(self):
        graph = UncertainGraph(5, [], [], [])
        masks = np.zeros((70, 0), dtype=bool)
        labels = self.from_packed(graph, masks)
        assert np.array_equal(labels, np.tile(np.arange(5, dtype=np.int32), (70, 1)))

    def test_isolated_nodes_keep_identity_labels(self):
        # Nodes 3 and 4 have no incident edges in any world.
        graph = UncertainGraph(6, [0, 1], [1, 5], [0.7, 0.7])
        masks = np.random.default_rng(2).random((100, graph.n_edges)) < graph.edge_prob
        labels = self.from_packed(graph, masks)
        assert (labels[:, 3] == 3).all()
        assert (labels[:, 4] == 4).all()

    def test_zero_worlds(self, two_triangles):
        masks = unpack_mask_columns(np.zeros((7, 0), dtype=np.uint64), 0)
        assert masks.shape == (0, 7)
        for labeler in ALL_LABELERS:
            labels = labeler.component_labels(two_triangles, masks)
            assert labels.shape == (0, 6)
            assert labels.dtype == np.int32

    def test_caller_pad_garbage_is_harmless(self, two_triangles):
        """Stray pad bits (worlds >= r in the last word) are dropped
        by unpacking, so they never reach the labeler."""
        masks = np.random.default_rng(4).random((70, two_triangles.n_edges)) < two_triangles.edge_prob
        packed = pack_mask_columns(masks)
        dirty = packed.copy()
        dirty[:, -1] |= np.uint64(0xFFFF) << np.uint64(48)  # worlds 112..127
        assert np.array_equal(unpack_mask_columns(dirty, 70), masks)
        for labeler in ALL_LABELERS:
            assert np.array_equal(
                labeler.component_labels(two_triangles, unpack_mask_columns(dirty, 70)),
                labeler.component_labels(two_triangles, masks),
            )

    def test_bad_packed_shape_rejected(self):
        with pytest.raises(ValueError, match="words"):
            unpack_mask_columns(np.zeros((7, 1), dtype=np.uint64), 65)
        with pytest.raises(ValueError, match="words"):
            unpack_mask_columns(np.zeros((3, 3), dtype=np.uint64), 65)
        with pytest.raises(ValueError, match="2-D"):
            unpack_mask_columns(np.zeros(7, dtype=np.uint64), 65)

    def test_negative_world_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            unpack_mask_columns(np.zeros((7, 0), dtype=np.uint64), -1)

    def test_repair_labels_matches_full_relabel(self):
        rng = np.random.default_rng(12)
        graph = random_graph(30, 0.15, rng)
        masks = unpack_mask_columns(
            pack_mask_columns(rng.random((40, graph.n_edges)) < graph.edge_prob), 40
        )
        full = scipy_component_labels(graph, masks)
        affected = np.ones((40, 30), dtype=bool)  # everything affected
        old = np.tile(np.arange(30, dtype=np.int32), (40, 1))
        for labeler in ALL_LABELERS:
            assert np.array_equal(labeler.repair_labels(graph, masks, old, affected), full)

    def test_misaligned_store_read_repacks(self, two_triangles, tmp_path):
        """Packed columns from a word-misaligned store read still label
        correctly: the store repacks the slice, so bit 0 of the result
        is world ``start`` and the pad bits are zero."""
        store = WorldStore(tmp_path)
        with MonteCarloOracle(two_triangles, seed=9, chunk_size=200, store=store) as oracle:
            oracle.ensure_samples(200)
            pool_labels = oracle.component_labels
            digest = oracle.pool_digest
        start, stop = 37, 150  # crosses word boundaries on both ends
        packed, stored_labels = store.read(digest, start, stop)
        relabeled = UnionFindWorldBackend().component_labels(
            two_triangles, unpack_mask_columns(packed, stop - start)
        )
        assert np.array_equal(relabeled, stored_labels)
        assert np.array_equal(relabeled, pool_labels[start:stop])

    @pytest.mark.parametrize(
        "start,stop", [(0, 1), (0, 64), (1, 65), (63, 129), (64, 128), (127, 200)]
    )
    def test_store_read_window_relabels(self, two_triangles, tmp_path, start, stop):
        """Every store read window, aligned or not, unpacks to masks
        that relabel to the stored labels under both labelers."""
        store = WorldStore(tmp_path)
        with MonteCarloOracle(two_triangles, seed=3, chunk_size=64, store=store) as oracle:
            oracle.ensure_samples(200)
            pool_labels = oracle.component_labels
            digest = oracle.pool_digest
        packed, stored_labels = store.read(digest, start, stop)
        masks = unpack_mask_columns(packed, stop - start)
        assert np.array_equal(stored_labels, pool_labels[start:stop])
        for labeler in ALL_LABELERS:
            assert np.array_equal(labeler.component_labels(two_triangles, masks), stored_labels)

    def test_sampler_routes_packed_chunks(self, two_triangles):
        """ParallelSampler.sample_chunk_packed is sample_chunk plus one
        pack — the ensure_samples integration the oracle rides on."""
        from repro.sampling.parallel import ParallelSampler

        root = np.random.SeedSequence(21)
        packed, labels = ParallelSampler(two_triangles).sample_chunk_packed(root, 0, 70)
        masks, same = ParallelSampler(two_triangles).sample_chunk(root, 0, 70)
        assert np.array_equal(packed, pack_mask_columns(masks))
        assert np.array_equal(labels, same)
        assert np.array_equal(labels, scipy_component_labels(two_triangles, masks))
        assert np.array_equal(unpack_mask_columns(packed, 70), masks)
