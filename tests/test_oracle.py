"""Tests for the Monte Carlo connection-probability oracle."""

import numpy as np
import pytest

from repro import MonteCarloOracle, OracleError, UncertainGraph
from repro.sampling import ExactOracle, UnionFindWorldBackend, WorldStore
from repro.sampling.worlds import (
    block_bfs_distances,
    block_bfs_reached,
    world_block_csr,
)
from repro.workloads.measures import world_harmonic
from tests.conftest import random_graph


@pytest.fixture
def sampled(two_triangles) -> MonteCarloOracle:
    oracle = MonteCarloOracle(two_triangles, seed=123, chunk_size=64)
    oracle.ensure_samples(4000)
    return oracle


class TestPoolManagement:
    def test_starts_empty(self, two_triangles):
        oracle = MonteCarloOracle(two_triangles, seed=0)
        assert oracle.num_samples == 0

    def test_query_without_samples_raises(self, two_triangles):
        oracle = MonteCarloOracle(two_triangles, seed=0)
        with pytest.raises(OracleError, match="no samples"):
            oracle.connection_to_all(0)

    def test_ensure_grows_monotonically(self, two_triangles):
        oracle = MonteCarloOracle(two_triangles, seed=0, chunk_size=10)
        oracle.ensure_samples(25)
        assert oracle.num_samples == 25
        oracle.ensure_samples(10)  # never shrinks
        assert oracle.num_samples == 25
        oracle.ensure_samples(40)
        assert oracle.num_samples == 40

    def test_queries_keep_chunk_boundaries(self, two_triangles):
        """Queries merge the pool's label chunks into one array; the
        chunk layout the workload surface iterates is unchanged."""
        oracle = MonteCarloOracle(two_triangles, seed=0, chunk_size=10)
        oracle.ensure_samples(25)
        oracle.connection_to_all(0)
        oracle.ensure_samples(40)
        oracle.connection_to_all(0)
        assert oracle.n_chunks == 5
        assert [oracle.chunk_worlds(i) for i in range(5)] == [10, 10, 5, 10, 5]
        masks = np.concatenate([oracle.chunk_masks(i) for i in range(5)])
        expected = UnionFindWorldBackend().component_labels(two_triangles, masks)
        labels = oracle.component_labels
        assert np.array_equal(labels, expected)
        labels[:] = 0  # callers get a copy, never the pool itself
        assert np.array_equal(oracle.component_labels, expected)

    def test_max_samples_enforced(self, two_triangles):
        oracle = MonteCarloOracle(two_triangles, seed=0, max_samples=100)
        with pytest.raises(OracleError, match="max_samples"):
            oracle.ensure_samples(101)

    def test_invalid_parameters(self, two_triangles):
        with pytest.raises(ValueError):
            MonteCarloOracle(two_triangles, chunk_size=0)
        with pytest.raises(ValueError):
            MonteCarloOracle(two_triangles, max_samples=0)

    def test_component_labels_shape(self, sampled, two_triangles):
        labels = sampled.component_labels
        assert labels.shape == (4000, two_triangles.n_nodes)

    def test_progressive_growth_is_prefix_stable(self, two_triangles):
        # Growing the pool must keep previously drawn worlds unchanged.
        a = MonteCarloOracle(two_triangles, seed=9, chunk_size=16)
        a.ensure_samples(32)
        first = a.component_labels.copy()
        a.ensure_samples(64)
        assert np.array_equal(a.component_labels[:32], first)


class TestEstimates:
    @pytest.mark.parametrize("n_nodes,worlds", [(40, 600), ((1 << 16) + 5, 40)])
    def test_connection_counts_exact_at_every_label_width(self, n_nodes, worlds):
        """uint16 label storage (up to 65536 nodes, here with sums over
        more than 255 worlds per chunk) and int32 storage beyond it both
        count same-component worlds exactly."""
        rng = np.random.default_rng(3)
        tails = rng.choice(n_nodes - 1, size=30, replace=False)
        edges = [(int(t), int(t) + 1, 0.5) for t in tails] + [(0, n_nodes - 1, 0.5)]
        graph = UncertainGraph.from_edges(edges, nodes=range(n_nodes))
        oracle = MonteCarloOracle(graph, seed=5, chunk_size=worlds)
        oracle.ensure_samples(worlds)
        labels = oracle.component_labels
        assert labels.dtype == np.int32
        for node in (0, int(tails[0]), n_nodes - 1):
            expected = (labels == labels[:, [node]]).sum(axis=0) / worlds
            assert np.array_equal(oracle.connection_to_all(node), expected)

    def test_self_connection_is_one(self, sampled):
        assert sampled.connection(3, 3) == 1.0
        assert sampled.connection_to_all(3)[3] == 1.0

    def test_matches_exact_oracle(self, sampled, two_triangles_oracle):
        for u in range(6):
            estimate = sampled.connection_to_all(u)
            exact = two_triangles_oracle.connection_to_all(u)
            assert np.allclose(estimate, exact, atol=0.04)

    def test_certain_edge_estimated_exactly(self):
        g = UncertainGraph.from_edges([(0, 1, 1.0), (1, 2, 0.5)])
        oracle = MonteCarloOracle(g, seed=0)
        oracle.ensure_samples(200)
        assert oracle.connection(0, 1) == 1.0

    def test_connection_pair_matches_row(self, sampled):
        row = sampled.connection_to_all(0)
        assert sampled.connection(0, 4) == pytest.approx(row[4])

    def test_out_of_range_node(self, sampled):
        with pytest.raises(IndexError):
            sampled.connection_to_all(17)

    def test_determinism_same_seed(self, two_triangles):
        a = MonteCarloOracle(two_triangles, seed=5)
        b = MonteCarloOracle(two_triangles, seed=5)
        a.ensure_samples(500)
        b.ensure_samples(500)
        assert np.array_equal(a.connection_to_all(1), b.connection_to_all(1))

    def test_chunking_does_not_change_estimates(self, two_triangles):
        # Different chunk sizes consume the RNG differently, but the
        # estimator must stay unbiased: both should be near the truth.
        exact = ExactOracle(two_triangles).connection(0, 5)
        for chunk in (7, 100, 2048):
            oracle = MonteCarloOracle(two_triangles, seed=11, chunk_size=chunk)
            oracle.ensure_samples(3000)
            assert oracle.connection(0, 5) == pytest.approx(exact, abs=0.05)


class TestDepthQueries:
    def test_depth_matches_exact(self, sampled, two_triangles_oracle):
        for depth in (1, 2, 3):
            estimate = sampled.connection_to_all(0, depth=depth)
            exact = two_triangles_oracle.connection_to_all(0, depth=depth)
            assert np.allclose(estimate, exact, atol=0.04)

    def test_depth_monotone_in_d(self, sampled):
        shallow = sampled.connection_to_all(0, depth=1)
        deep = sampled.connection_to_all(0, depth=4)
        assert np.all(shallow <= deep + 1e-12)

    def test_depth_bounded_by_unbounded(self, sampled):
        depth_limited = sampled.connection_to_all(0, depth=3)
        unbounded = sampled.connection_to_all(0)
        assert np.all(depth_limited <= unbounded + 1e-12)

    def test_depth_zero_reaches_only_self(self, sampled):
        row = sampled.connection_to_all(2, depth=0)
        expected = np.zeros(6)
        expected[2] = 1.0
        assert np.array_equal(row, expected)

    def test_negative_depth_rejected(self, sampled):
        with pytest.raises(ValueError):
            sampled.connection_to_all(0, depth=-1)


class TestPairwiseMatrix:
    def test_matches_exact(self, sampled, two_triangles_oracle):
        estimate = sampled.pairwise_matrix()
        exact = two_triangles_oracle.pairwise_matrix()
        assert np.allclose(estimate, exact, atol=0.04)

    def test_symmetric_unit_diagonal(self, sampled):
        matrix = sampled.pairwise_matrix()
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)

    def test_subset_consistent_with_rows(self, sampled):
        nodes = np.array([1, 4, 5])
        matrix = sampled.pairwise_matrix(nodes)
        for i, u in enumerate(nodes):
            row = sampled.connection_to_all(int(u))
            assert np.allclose(matrix[i], row[nodes])

    def test_depth_variant(self, sampled, two_triangles_oracle):
        estimate = sampled.pairwise_matrix(depth=2)
        exact = two_triangles_oracle.pairwise_matrix(depth=2)
        assert np.allclose(estimate, exact, atol=0.05)

    def test_out_of_range_nodes(self, sampled):
        with pytest.raises(IndexError):
            sampled.pairwise_matrix([0, 99])

    def test_empty_subset(self, sampled):
        assert sampled.pairwise_matrix([]).shape == (0, 0)


class TestStatisticalQuality:
    def test_estimator_is_unbiased_across_seeds(self):
        g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
        exact = ExactOracle(g).connection(0, 1)
        estimates = []
        for seed in range(20):
            oracle = MonteCarloOracle(g, seed=seed)
            oracle.ensure_samples(400)
            estimates.append(oracle.connection(0, 1))
        assert np.mean(estimates) == pytest.approx(exact, abs=0.02)

    def test_larger_graph_agrees_with_exact(self):
        rng = np.random.default_rng(2)
        graph = random_graph(10, 0.3, rng, prob_low=0.3)
        exact = ExactOracle(graph)
        oracle = MonteCarloOracle(graph, seed=3)
        oracle.ensure_samples(6000)
        assert np.allclose(
            oracle.pairwise_matrix(), exact.pairwise_matrix(), atol=0.05
        )


class TestNodeValidation:
    """Both oracles reject out-of-range node indices; none wrap."""

    @pytest.fixture(params=["monte_carlo", "exact"])
    def oracle(self, request):
        graph = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 1.0)])
        if request.param == "exact":
            return ExactOracle(graph)
        oracle = MonteCarloOracle(graph, seed=1)
        oracle.ensure_samples(64)
        return oracle

    @pytest.mark.parametrize("depth", [None, 2])
    @pytest.mark.parametrize("u, v", [(-1, 2), (-1, 0), (0, 3), (7, 7), (-1, -1), (3, 0)])
    def test_connection(self, oracle, u, v, depth):
        with pytest.raises(IndexError):
            oracle.connection(u, v, depth=depth)

    @pytest.mark.parametrize("depth", [None, 2])
    @pytest.mark.parametrize("node", [-1, 3, 99])
    def test_connection_to_all(self, oracle, node, depth):
        with pytest.raises(IndexError):
            oracle.connection_to_all(node, depth=depth)

    @pytest.mark.parametrize("depth", [None, 2])
    def test_pairwise_matrix(self, oracle, depth):
        for nodes in ([0, -1], [3], [2, 0, 5]):
            with pytest.raises(IndexError):
                oracle.pairwise_matrix(nodes, depth=depth)

    def test_expected_distances(self, oracle):
        for sources in ([-1], [0, 3]):
            with pytest.raises(IndexError):
                oracle.expected_distances(sources)

    def test_valid_indices_still_answer(self, oracle):
        assert oracle.connection(2, 2) == 1.0
        assert oracle.connection(1, 2) == 1.0
        assert oracle.pairwise_matrix([2, 0]).shape == (2, 2)


def _csr_distance_reference(oracle, sources, depth=None):
    """Per-source, per-world block-CSR BFS over every chunk of the pool:
    the computation the packed kernel replaced, kept as the reference."""
    n = oracle.n_nodes
    dist_sums = np.zeros((len(sources), n))
    reach = np.zeros((len(sources), n), dtype=np.int64)
    for index in range(oracle.n_chunks):
        masks = oracle.chunk_masks(index)
        rows = masks.shape[0]
        block = world_block_csr(oracle.graph, masks)
        for pos, source in enumerate(sources):
            dist = block_bfs_distances(block, n, rows, int(source)).astype(np.float64)
            dist[dist < 0] = float(n)
            dist_sums[pos] += dist.sum(axis=0)
            if depth is not None:
                reach[pos] += block_bfs_reached(block, n, rows, int(source), depth).sum(axis=0)
    return dist_sums / oracle.num_samples, reach / oracle.num_samples


def _csr_harmonic(graph, masks):
    """``world_harmonic`` as one block-CSR BFS per source."""
    r, n = masks.shape[0], graph.n_nodes
    values = np.zeros((r, n))
    block = world_block_csr(graph, masks)
    for source in range(n):
        dist = block_bfs_distances(block, n, r, source).astype(np.float64)
        with np.errstate(divide="ignore"):
            values[:, source] = np.where(dist > 0, 1.0 / dist, 0.0).sum(axis=1)
    return values / (n - 1)


class TestPackedDistanceQueries:
    """Invariant 6 at oracle level: every distance query equals the
    block-CSR computation bit for bit, for any chunking and whether the
    pool was sampled or served from the store."""

    @pytest.fixture(scope="class")
    def graph(self):
        return random_graph(16, 0.18, np.random.default_rng(8), prob_low=0.2, prob_high=0.9)

    @pytest.mark.parametrize("chunk_size", [64, 512])
    @pytest.mark.parametrize("served", [False, True])
    def test_matches_block_csr(self, graph, chunk_size, served, tmp_path):
        store = WorldStore(tmp_path)
        if served:
            MonteCarloOracle(graph, seed=4, chunk_size=chunk_size, store=store).ensure_samples(700)
        oracle = MonteCarloOracle(graph, seed=4, chunk_size=chunk_size, store=store)
        oracle.ensure_samples(700)
        assert oracle.cache_stats["worlds_cached"] == (700 if served else 0)
        n = graph.n_nodes
        sources = np.array([5, 0, 5, n - 1])
        for depth in (0, 1, 2, 4):
            expected_dist, reach = _csr_distance_reference(oracle, sources, depth)
            assert np.array_equal(oracle.expected_distances(sources), expected_dist)
            for pos, source in enumerate(sources):
                row = oracle.connection_to_all(int(source), depth=depth)
                assert np.array_equal(row, reach[pos])
                assert oracle.connection(int(source), 3, depth=depth) == (
                    1.0 if source == 3 else reach[pos][3])
        nodes = np.array([3, 1, 7, 3, 12])
        for depth in (1, 3):
            rows = np.stack([
                _csr_distance_reference(oracle, [u], depth)[1][0][nodes] for u in nodes
            ])
            expected = 0.5 * (rows + rows.T)
            np.fill_diagonal(expected, 1.0)
            assert np.array_equal(oracle.pairwise_matrix(nodes, depth=depth), expected)
        all_dist, _ = _csr_distance_reference(oracle, np.arange(n))
        assert np.array_equal(oracle.expected_distances(), all_dist)
        for index in range(oracle.n_chunks):
            masks = oracle.chunk_masks(index)
            assert np.array_equal(world_harmonic(graph, masks), _csr_harmonic(graph, masks))

    def test_harmonic_past_255_hops(self):
        # Hop counts up to 269 take the wider level codes; the 1/d sums
        # must still match the block-CSR BFS bit for bit.
        graph = UncertainGraph.from_edges([(v, v + 1, 1.0) for v in range(269)])
        masks = np.ones((3, graph.n_edges), dtype=bool)
        masks[1, 100] = False
        masks[2, [50, 200]] = False
        assert np.array_equal(world_harmonic(graph, masks), _csr_harmonic(graph, masks))

    def test_distance_kernel_is_timed(self, graph, tmp_path):
        store = WorldStore(tmp_path)
        MonteCarloOracle(graph, seed=4, store=store).ensure_samples(128)
        oracle = MonteCarloOracle(graph, seed=4, store=store)
        oracle.ensure_samples(128)
        before = oracle.phase_timings
        assert before["distance_s"] == 0.0
        oracle.expected_distances()
        after = oracle.phase_timings
        assert after["distance_s"] > 0.0
        # The chunk's first-touch mask read is a store read, not distance time.
        assert after["store_read_s"] > before["store_read_s"]

    def test_store_appends_are_timed(self, graph, tmp_path):
        store = WorldStore(tmp_path)
        cold = MonteCarloOracle(graph, seed=4, store=store)
        cold.ensure_samples(128)
        assert cold.phase_timings["store_write_s"] > 0.0
        warm = MonteCarloOracle(graph, seed=4, store=store)
        warm.ensure_samples(128)  # served from the store: nothing appended
        assert warm.phase_timings["store_write_s"] == 0.0
        storeless = MonteCarloOracle(graph, seed=4)
        storeless.ensure_samples(128)
        assert storeless.phase_timings["store_write_s"] == 0.0

    def test_harmonic_kernel_is_timed_as_distance(self, graph):
        from repro import expected_centrality

        oracle = MonteCarloOracle(graph, seed=4)
        expected_centrality(None, measure="degree", oracle=oracle, samples=128)
        assert oracle.phase_timings["distance_s"] == 0.0
        expected_centrality(None, measure="harmonic", oracle=oracle, samples=128)
        assert oracle.phase_timings["distance_s"] > 0.0


class TestPackedWorlds:
    """The block surface of the centrality estimator: chunk size and
    stored-count accessors, packed world ranges, masks-only reads."""

    @pytest.fixture(scope="class")
    def graph(self):
        return random_graph(15, 0.25, np.random.default_rng(12), prob_low=0.2, prob_high=0.9)

    def test_chunk_size_and_stored_worlds(self, graph):
        assert MonteCarloOracle(graph, seed=1, chunk_size=48).chunk_size == 48
        assert MonteCarloOracle(graph, seed=1).stored_worlds == 0
        store = WorldStore()
        MonteCarloOracle(graph, seed=1, store=store).ensure_samples(70)
        oracle = MonteCarloOracle(graph, seed=1, store=store)
        assert oracle.stored_worlds == 70
        store.clear()  # an unreadable store counts as empty, never raises
        assert oracle.stored_worlds == 0

    @pytest.mark.parametrize("chunk_size", [7, 50, 64])
    @pytest.mark.parametrize("served", [False, True])
    def test_packed_worlds_match_chunk_masks(self, graph, chunk_size, served):
        from repro.sampling.store import unpack_mask_columns

        store = WorldStore()
        if served:
            MonteCarloOracle(graph, seed=2, store=store).ensure_samples(150)
        oracle = MonteCarloOracle(graph, seed=2, chunk_size=chunk_size, store=store)
        oracle.ensure_samples(150)
        masks = np.concatenate([oracle.chunk_masks(i) for i in range(oracle.n_chunks)])
        for start, stop in [(0, 150), (0, 64), (64, 128), (3, 5), (140, 150),
                            (0, chunk_size), (chunk_size, 2 * chunk_size)]:
            packed = oracle.packed_worlds(start, stop)
            assert np.array_equal(unpack_mask_columns(packed, stop - start), masks[start:stop])
        # A whole chunk is served as the chunk's own columns, not a copy.
        assert oracle.packed_worlds(chunk_size, 2 * chunk_size) is oracle.packed_worlds(
            chunk_size, 2 * chunk_size)
        for start, stop in [(0, 0), (-1, 3), (5, 4), (0, 151)]:
            with pytest.raises(ValueError):
                oracle.packed_worlds(start, stop)

    def test_masks_only_store_read(self, graph):
        from repro import telemetry

        registry = telemetry.get_registry()
        store = WorldStore()
        MonteCarloOracle(graph, seed=3, store=store).ensure_samples(100)
        digest = store.register(graph, 3)
        for start, stop in [(0, 100), (10, 90)]:
            packed, labels = store.read(digest, start, stop)
            before = registry.value("repro_store_bytes_read_total")
            masks_only, none = store.read(digest, start, stop, labels=False)
            assert none is None
            assert np.array_equal(masks_only, packed)
            assert registry.value("repro_store_bytes_read_total") - before == packed.nbytes

    def test_warm_harmonic_reads_labels_once(self, graph, tmp_path):
        """A warm 64-world harmonic run reads each label row once and the
        one word of masks once (it used to read labels twice and the
        masks once per ramp step)."""
        from repro import expected_centrality, telemetry

        registry = telemetry.get_registry()
        store = WorldStore(tmp_path)
        MonteCarloOracle(graph, seed=4, store=store).ensure_samples(64)
        before = registry.value("repro_store_bytes_read_total")
        result = expected_centrality(graph, measure="harmonic", seed=4, samples=64,
                                     tol=1e-12, store=store)
        assert result.samples_used == 64 and result.n_rounds == 2
        read = registry.value("repro_store_bytes_read_total") - before
        assert read == 64 * graph.n_nodes * 2 + graph.n_edges * 8  # uint16 labels

    @pytest.mark.parametrize("kind", ["harmonic", "kmedian"])
    def test_warm_op_counts_each_world_read_once(self, tmp_path, kind):
        """``repro_store_worlds_read_total`` counts worlds served: a warm
        64-world op reads a chunk's labels and later its masks, and the
        masks-only read must not count the same worlds again."""
        from repro import expected_centrality, kmedian_clustering, telemetry
        from repro.datasets import dblp_like

        graph = dblp_like(120, seed=0)
        registry = telemetry.get_registry()
        store = WorldStore(tmp_path)
        MonteCarloOracle(graph, seed=5, store=store).ensure_samples(64)
        before = registry.value("repro_store_worlds_read_total")
        if kind == "harmonic":
            result = expected_centrality(graph, measure="harmonic", seed=5, samples=64,
                                         tol=1e-12, store=store)
        else:
            result = kmedian_clustering(graph, 4, seed=5, samples=64, store=store)
        assert result.samples_used == 64
        assert registry.value("repro_store_worlds_read_total") - before == 64
