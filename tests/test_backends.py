"""Cross-backend equivalence suite for the world-labeling backends.

Pins the canonical labeling contract of
:mod:`repro.sampling.backends.base`: for any ``(graph, masks)`` input,
every backend returns the *same* ``(r, n)`` int32 array, so all
downstream estimates and clusterings are bit-identical across backends
for a fixed seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acp import acp_clustering
from repro.core.mcp import mcp_clustering
from repro.exceptions import OracleError
from repro.graph.components import connected_component_labels
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling import MonteCarloOracle
from repro.sampling.backends import (
    AUTO_NODE_THRESHOLD,
    BACKEND_NAMES,
    BACKENDS,
    ScipyWorldBackend,
    UnionFindWorldBackend,
    WorldBackend,
    resolve_backend,
)
from repro.sampling.store import pack_mask_columns, unpack_mask_columns
from repro.sampling.worlds import block_bfs_reached, sample_edge_masks, world_block_csr, world_component_labels
from tests.conftest import random_graph

ALL_BACKENDS = [ScipyWorldBackend(), UnionFindWorldBackend()]


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
    """Both backends agree bit-for-bit and match per-world ground truth."""

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
        masks = sample_edge_masks(graph.edge_prob, 23, rng=rng)
        results = [backend.component_labels(graph, masks) for backend in ALL_BACKENDS]
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
        masks = sample_edge_masks(graph.edge_prob, r, rng=rng)
        scipy_labels = ScipyWorldBackend().component_labels(graph, masks)
        uf_labels = UnionFindWorldBackend().component_labels(graph, masks)
        assert np.array_equal(scipy_labels, uf_labels)
        assert_canonical(graph, masks, uf_labels)

    def test_sub_batching_is_invisible(self):
        rng = np.random.default_rng(5)
        graph = random_graph(40, 0.15, rng)
        masks = sample_edge_masks(graph.edge_prob, 50, rng=rng)
        whole = UnionFindWorldBackend(world_batch=1024).component_labels(graph, masks)
        tiny = UnionFindWorldBackend(world_batch=3).component_labels(graph, masks)
        assert np.array_equal(whole, tiny)

    def test_world_component_labels_accepts_backend_spec(self, two_triangles):
        masks = sample_edge_masks(two_triangles.edge_prob, 11, rng=8)
        default = world_component_labels(two_triangles, masks)
        for spec in ("auto", "scipy", "unionfind", UnionFindWorldBackend()):
            assert np.array_equal(world_component_labels(two_triangles, masks, spec), default)


class TestEdgeCases:
    """Regression tests for the sampling kernels on degenerate inputs."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_empty_graph(self, backend):
        graph = UncertainGraph(0, [], [], [])
        labels = backend.component_labels(graph, np.zeros((4, 0), dtype=bool))
        assert labels.shape == (4, 0)

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_single_node(self, backend):
        graph = UncertainGraph(1, [], [], [])
        labels = backend.component_labels(graph, np.zeros((3, 0), dtype=bool))
        assert labels.shape == (3, 1)
        assert (labels == 0).all()

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_edgeless_worlds(self, backend, two_triangles):
        """The zero-probability limit: no edge survives in any world."""
        masks = np.zeros((5, two_triangles.n_edges), dtype=bool)
        labels = backend.component_labels(two_triangles, masks)
        assert np.array_equal(labels, np.tile(np.arange(6, dtype=np.int32), (5, 1)))

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_certain_worlds(self, backend, two_triangles):
        """Probability-1 edges: every world is the full skeleton."""
        masks = np.ones((4, two_triangles.n_edges), dtype=bool)
        labels = backend.component_labels(two_triangles, masks)
        assert (labels == 0).all()  # the skeleton is connected

    def test_zero_probability_edges_never_sampled(self):
        masks = sample_edge_masks(np.array([0.0, 1.0]), 200, rng=0)
        assert not masks[:, 0].any()
        assert masks[:, 1].all()

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_r_zero_chunk(self, backend, two_triangles):
        labels = backend.component_labels(
            two_triangles, np.zeros((0, two_triangles.n_edges), dtype=bool)
        )
        assert labels.shape == (0, 6)
        assert labels.dtype == np.int32

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_bad_mask_shape_rejected(self, backend, two_triangles):
        with pytest.raises(ValueError):
            backend.component_labels(two_triangles, np.zeros((2, 3), dtype=bool))

    def test_depth_zero_bfs_reaches_only_source(self, path4):
        masks = np.ones((3, 3), dtype=bool)
        block = world_block_csr(path4, masks)
        reached = block_bfs_reached(block, 4, 3, 2, 0)
        expected = np.zeros((3, 4), dtype=bool)
        expected[:, 2] = True
        assert np.array_equal(reached, expected)

    def test_pairwise_matrix_empty_subset(self, two_triangles):
        oracle = MonteCarloOracle(two_triangles, seed=0, backend="unionfind")
        oracle.ensure_samples(32)
        assert oracle.pairwise_matrix(nodes=[]).shape == (0, 0)

    def test_invalid_world_batch(self):
        with pytest.raises(ValueError):
            UnionFindWorldBackend(world_batch=0)


@pytest.fixture
def bigger_graph():
    return random_graph(80, 0.06, np.random.default_rng(11), prob_low=0.2, prob_high=0.95)


class TestOracleEquivalence:
    """Same seed + different backend => bit-identical oracle answers."""

    def oracles(self, graph, samples=256):
        pair = []
        for name in ("scipy", "unionfind"):
            oracle = MonteCarloOracle(graph, seed=99, chunk_size=64, backend=name)
            oracle.ensure_samples(samples)
            pair.append(oracle)
        return pair

    def test_component_labels_identical(self, bigger_graph):
        a, b = self.oracles(bigger_graph)
        assert np.array_equal(a.component_labels, b.component_labels)

    def test_connection_to_all_identical(self, bigger_graph):
        a, b = self.oracles(bigger_graph)
        for node in (0, 17, 79):
            assert np.array_equal(a.connection_to_all(node), b.connection_to_all(node))

    def test_depth_queries_identical(self, bigger_graph):
        a, b = self.oracles(bigger_graph)
        assert np.array_equal(
            a.connection_to_all(3, depth=2), b.connection_to_all(3, depth=2)
        )

    def test_pairwise_matrix_identical(self, bigger_graph):
        a, b = self.oracles(bigger_graph)
        assert np.array_equal(a.pairwise_matrix(), b.pairwise_matrix())
        subset = np.arange(0, 80, 7)
        assert np.array_equal(a.pairwise_matrix(subset), b.pairwise_matrix(subset))


class TestClusteringEquivalence:
    """MCP/ACP return identical clusterings under either backend."""

    def test_mcp_identical(self, bigger_graph):
        results = [
            mcp_clustering(bigger_graph, 6, seed=4, chunk_size=64, backend=name)
            for name in ("scipy", "unionfind")
        ]
        first, second = results
        assert np.array_equal(first.clustering.assignment, second.clustering.assignment)
        assert np.array_equal(first.clustering.centers, second.clustering.centers)
        assert first.q_final == second.q_final
        assert first.min_prob_estimate == second.min_prob_estimate
        assert [g.q for g in first.history] == [g.q for g in second.history]

    def test_acp_identical(self, bigger_graph):
        results = [
            acp_clustering(bigger_graph, 6, seed=4, chunk_size=64, backend=name)
            for name in ("scipy", "unionfind")
        ]
        first, second = results
        assert np.array_equal(first.clustering.assignment, second.clustering.assignment)
        assert first.phi_best == second.phi_best
        assert first.avg_prob_estimate == second.avg_prob_estimate


class TestResolution:
    def test_names(self):
        assert BACKEND_NAMES == ("auto", "scipy", "unionfind")
        for name, factory in BACKENDS.items():
            assert factory().name == name

    def test_resolve_by_name(self):
        assert resolve_backend("scipy").name == "scipy"
        assert resolve_backend("unionfind").name == "unionfind"

    def test_resolve_instance_passthrough(self):
        backend = UnionFindWorldBackend(world_batch=7)
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(OracleError, match="unknown world backend"):
            resolve_backend("duckdb")

    def test_non_backend_rejected(self):
        with pytest.raises(OracleError, match="WorldBackend"):
            resolve_backend(42)

    def test_auto_selects_by_graph_size(self):
        small = UncertainGraph.from_edges([(0, 1, 0.5)])
        assert resolve_backend("auto", small).name == "scipy"
        assert resolve_backend(None, small).name == "scipy"
        n = AUTO_NODE_THRESHOLD
        big = UncertainGraph(n, [0], [1], [0.5])
        assert resolve_backend("auto", big).name == "unionfind"

    def test_auto_without_graph_defaults_to_scipy(self):
        assert resolve_backend("auto").name == "scipy"

    def test_custom_backend_satisfies_protocol(self):
        class Custom:
            name = "custom"

            def component_labels(self, graph, masks):
                return ScipyWorldBackend().component_labels(graph, masks)

        assert isinstance(Custom(), WorldBackend)
        oracle = MonteCarloOracle(
            UncertainGraph.from_edges([(0, 1, 0.5)]), seed=0, backend=Custom()
        )
        assert oracle.backend_name == "custom"
        oracle.ensure_samples(10)
        assert oracle.component_labels.shape == (10, 2)


class TestPackedKernel:
    """Labels computed from the store's packed ``uint64`` columns.

    Unpacking a packed chunk and labeling it gives the labels of the
    boolean chunk it was packed from, whatever the world count and
    wherever a store read starts within a word.
    """

    @staticmethod
    def from_packed(graph, masks):
        """Label ``masks`` via its packed columns under every backend;
        assert they agree with the boolean path and return the labels."""
        r = masks.shape[0]
        unpacked = unpack_mask_columns(pack_mask_columns(masks), r)
        reference = ScipyWorldBackend().component_labels(graph, masks)
        for backend in ALL_BACKENDS:
            assert np.array_equal(backend.component_labels(graph, unpacked), reference)
        return reference

    @pytest.mark.parametrize("r", [1, 63, 64, 65, 130])
    def test_r_not_multiple_of_64(self, two_triangles, r):
        masks = sample_edge_masks(two_triangles.edge_prob, r, rng=r)
        unpacked = unpack_mask_columns(pack_mask_columns(masks), r)
        for backend in ALL_BACKENDS:
            assert np.array_equal(
                backend.component_labels(two_triangles, unpacked),
                backend.component_labels(two_triangles, masks),
            )

    def test_single_world_chunk(self, path4):
        masks = sample_edge_masks(path4.edge_prob, 1, rng=5)
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
        masks = sample_edge_masks(graph.edge_prob, 100, rng=2)
        labels = self.from_packed(graph, masks)
        assert (labels[:, 3] == 3).all()
        assert (labels[:, 4] == 4).all()

    def test_zero_worlds(self, two_triangles):
        masks = unpack_mask_columns(np.zeros((7, 0), dtype=np.uint64), 0)
        assert masks.shape == (0, 7)
        for backend in ALL_BACKENDS:
            labels = backend.component_labels(two_triangles, masks)
            assert labels.shape == (0, 6)
            assert labels.dtype == np.int32

    def test_caller_pad_garbage_is_harmless(self, two_triangles):
        """Stray pad bits (worlds >= r in the last word) are dropped
        by unpacking, so they never reach a labeling backend."""
        masks = sample_edge_masks(two_triangles.edge_prob, 70, rng=4)
        packed = pack_mask_columns(masks)
        dirty = packed.copy()
        dirty[:, -1] |= np.uint64(0xFFFF) << np.uint64(48)  # worlds 112..127
        assert np.array_equal(unpack_mask_columns(dirty, 70), masks)
        for backend in ALL_BACKENDS:
            assert np.array_equal(
                backend.component_labels(two_triangles, unpack_mask_columns(dirty, 70)),
                backend.component_labels(two_triangles, masks),
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
            pack_mask_columns(sample_edge_masks(graph.edge_prob, 40, rng=rng)), 40
        )
        full = ScipyWorldBackend().component_labels(graph, masks)
        affected = np.ones((40, 30), dtype=bool)  # everything affected
        old = np.tile(np.arange(30, dtype=np.int32), (40, 1))
        for backend in ALL_BACKENDS:
            assert np.array_equal(backend.repair_labels(graph, masks, old, affected), full)

    def test_misaligned_store_read_repacks(self, two_triangles, tmp_path):
        """Packed columns from a word-misaligned store read still label
        correctly: the store repacks the slice, so bit 0 of the result
        is world ``start`` and the pad bits are zero."""
        from repro.sampling.store import WorldStore

        store = WorldStore(tmp_path)
        with MonteCarloOracle(
            two_triangles, seed=9, chunk_size=200, backend="unionfind", store=store
        ) as oracle:
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
        that relabel to the stored labels under every backend."""
        from repro.sampling.store import WorldStore

        store = WorldStore(tmp_path)
        with MonteCarloOracle(
            two_triangles, seed=3, chunk_size=64, backend="scipy", store=store
        ) as oracle:
            oracle.ensure_samples(200)
            pool_labels = oracle.component_labels
            digest = oracle.pool_digest
        packed, stored_labels = store.read(digest, start, stop)
        masks = unpack_mask_columns(packed, stop - start)
        assert np.array_equal(stored_labels, pool_labels[start:stop])
        for backend in ALL_BACKENDS:
            assert np.array_equal(backend.component_labels(two_triangles, masks), stored_labels)

    def test_sampler_routes_packed_chunks(self, two_triangles):
        """ParallelSampler.sample_chunk_packed is sample_chunk plus one
        pack — the ensure_samples integration the oracle rides on."""
        from repro.sampling.parallel import ParallelSampler

        root = np.random.SeedSequence(21)
        packed, labels = ParallelSampler(
            two_triangles, backend="unionfind").sample_chunk_packed(root, 0, 70)
        masks, reference = ParallelSampler(
            two_triangles, backend="scipy").sample_chunk(root, 0, 70)
        assert np.array_equal(packed, pack_mask_columns(masks))
        assert np.array_equal(labels, reference)
        assert np.array_equal(unpack_mask_columns(packed, 70), masks)
