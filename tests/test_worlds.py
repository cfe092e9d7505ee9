"""Tests for possible-world sampling and block-diagonal bulk operations."""

import numpy as np
import pytest

from repro import UncertainGraph
from repro.graph.components import connected_component_labels
from repro.sampling.backends import UnionFindWorldBackend
from repro.sampling.parallel import sample_mask_rows
from repro.sampling.store import WORD_BITS, pack_mask_columns
from repro.sampling.worlds import (
    _packed_bfs_codes,
    block_bfs_distances,
    block_bfs_reached,
    packed_bfs_counts,
    packed_bfs_distances,
    world_block_csr,
)
from tests.conftest import random_graph


class TestSampleMasks:
    """The pool sampler draws each edge with its own probability."""

    def test_certain_edges_always_present(self):
        masks = sample_mask_rows(
            np.array([0, 1]), np.array([1, 2]), np.array([1.0, 1.0]),
            np.random.SeedSequence(1), 0, 50,
        )
        assert masks.all()

    def test_frequency_matches_probability(self):
        prob = np.array([0.2, 0.5, 0.9])
        masks = sample_mask_rows(
            np.array([0, 1, 2]), np.array([1, 2, 3]), prob, np.random.SeedSequence(7), 0, 20000
        )
        assert np.allclose(masks.mean(axis=0), prob, atol=0.02)


class TestWorldLabels:
    def test_each_row_is_world_components(self, two_triangles):
        masks = np.random.default_rng(3).random((25, two_triangles.n_edges)) < two_triangles.edge_prob
        labels = UnionFindWorldBackend().component_labels(two_triangles, masks)
        assert labels.shape == (25, 6)
        for i in range(25):
            expected = connected_component_labels(
                6, two_triangles.edge_src, two_triangles.edge_dst, mask=masks[i]
            )
            # Same partition up to label permutation.
            mapping = {}
            for a, b in zip(labels[i].tolist(), expected.tolist(), strict=True):
                assert mapping.setdefault(a, b) == b

    def test_empty_batch(self, two_triangles):
        labels = UnionFindWorldBackend().component_labels(two_triangles, np.zeros((0, 7), dtype=bool))
        assert labels.shape == (0, 6)

    def test_bad_mask_shape(self, two_triangles):
        with pytest.raises(ValueError):
            UnionFindWorldBackend().component_labels(two_triangles, np.zeros((2, 3), dtype=bool))


class TestBlockCSR:
    def test_block_structure(self, path4):
        masks = np.array([[True, True, True], [True, False, False]])
        block = world_block_csr(path4, masks)
        assert block.shape == (8, 8)
        dense = block.toarray()
        # World 0 has all three path edges.
        assert dense[0, 1] and dense[1, 2] and dense[2, 3]
        # World 1 has only edge (0, 1), in its own block.
        assert dense[4, 5]
        assert not dense[5, 6] and not dense[6, 7]
        # No edges cross blocks.
        assert not dense[:4, 4:].any()

    def test_symmetric(self, two_triangles):
        masks = np.random.default_rng(0).random((5, two_triangles.n_edges)) < two_triangles.edge_prob
        block = world_block_csr(two_triangles, masks)
        assert (block != block.T).nnz == 0


class TestBlockBFS:
    def test_depth_progression(self, path4):
        masks = np.ones((1, 3), dtype=bool)
        block = world_block_csr(path4, masks)
        for depth, expected in [
            (0, [True, False, False, False]),
            (1, [True, True, False, False]),
            (2, [True, True, True, False]),
            (3, [True, True, True, True]),
            (5, [True, True, True, True]),
        ]:
            reached = block_bfs_reached(block, 4, 1, 0, depth)
            assert reached[0].tolist() == expected

    def test_per_world_independence(self, path4):
        masks = np.array([[True, True, True], [False, True, True]])
        block = world_block_csr(path4, masks)
        reached = block_bfs_reached(block, 4, 2, 0, 3)
        assert reached[0].tolist() == [True, True, True, True]
        assert reached[1].tolist() == [True, False, False, False]

    def test_matches_per_world_bfs(self):
        rng = np.random.default_rng(9)
        graph = random_graph(12, 0.25, rng)
        masks = rng.random((20, graph.n_edges)) < graph.edge_prob
        block = world_block_csr(graph, masks)
        from repro.graph.traversal import bfs_distances

        for source in (0, 5):
            for depth in (1, 2, 4):
                reached = block_bfs_reached(block, graph.n_nodes, 20, source, depth)
                for i in range(20):
                    dist = bfs_distances(graph, source, max_depth=depth, edge_mask=masks[i])
                    assert np.array_equal(reached[i], dist >= 0)

    def test_negative_depth_rejected(self, path4):
        block = world_block_csr(path4, np.ones((1, 3), dtype=bool))
        with pytest.raises(ValueError):
            block_bfs_reached(block, 4, 1, 0, -1)


def _packed_distances(graph, cols, r, sources, depth):
    batches = list(packed_bfs_distances(graph, cols, r, sources, depth))
    if not batches:
        return np.zeros((0, r, graph.n_nodes), dtype=np.int32)
    assert [lo for lo, _, _ in batches] == [0] + [hi for _, hi, _ in batches[:-1]]
    return np.concatenate([dist for _, _, dist in batches])


def _with_garbage_pad(cols, r):
    """Set every pad bit of the last word: the kernel must never read them."""
    cols = cols.copy()
    if r % WORD_BITS and cols.size:
        cols[:, -1] |= ~np.uint64((1 << (r % WORD_BITS)) - 1)
    return cols


def _hub_graph():
    """A hub whose 24 spokes form a ring, plus a 12-edge tail off one spoke.

    The spokes' arcs are more than half of all arcs, so a BFS from the
    hub takes the dense step on its second level and the compacted step
    before and after it.
    """
    spokes = [(0, leaf, 0.8) for leaf in range(1, 25)]
    ring = [(leaf, leaf % 24 + 1, 0.5) for leaf in range(1, 25)]
    tail = [(node, node + 1, 0.9) for node in range(24, 36)]
    return UncertainGraph.from_edges(spokes + ring + tail)


def _certain_path(n):
    return UncertainGraph.from_edges([(v, v + 1, 1.0) for v in range(n - 1)])


class TestPackedBfs:
    """Invariant 6: the packed BFS equals the block-CSR BFS bit for bit."""

    GRAPHS = {
        "random": lambda: random_graph(14, 0.2, np.random.default_rng(4)),
        "hub": _hub_graph,
        "isolated": lambda: UncertainGraph.from_edges(
            [(1, 2, 0.6), (2, 3, 0.7), (5, 6, 0.5)], nodes=range(8)
        ),
        "no_edges": lambda: UncertainGraph(4, [], [], []),
        "one_node": lambda: UncertainGraph(1, [], [], []),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("r", [1, 63, 64, 65, 130])
    def test_matches_block_bfs(self, name, r):
        graph = self.GRAPHS[name]()
        n = graph.n_nodes
        masks = np.random.default_rng(r).random((r, graph.n_edges)) < graph.edge_prob
        cols = _with_garbage_pad(pack_mask_columns(masks), r)
        block = world_block_csr(graph, masks)
        source_lists = ([], list(range(n)), [n - 1, 0, n - 1, n // 2])
        for sources in source_lists:
            for depth in (0, 1, 2, 3, None):
                expected = np.zeros((len(sources), r, n), dtype=np.int32)
                for j, source in enumerate(sources):
                    expected[j] = block_bfs_distances(block, n, r, source, depth)
                    if depth is not None:
                        reached = block_bfs_reached(block, n, r, source, depth)
                        assert np.array_equal(reached, expected[j] >= 0)
                dist = _packed_distances(graph, cols, r, sources, depth)
                assert dist.dtype == np.int32 and dist.flags.c_contiguous
                assert np.array_equal(dist, expected), (sources, depth)
                reached, hops = packed_bfs_counts(graph, cols, r, sources, depth)
                assert np.array_equal(reached, (expected >= 0).sum(axis=1))
                assert np.array_equal(hops, np.maximum(expected, 0).sum(axis=1))

    def test_many_sources_span_batches(self):
        # Enough worlds and sources that the kernel splits the sources
        # into several batches; the result must not depend on that.
        graph = random_graph(40, 0.15, np.random.default_rng(2))
        r = 700
        masks = np.random.default_rng(5).random((r, graph.n_edges)) < graph.edge_prob
        cols = pack_mask_columns(masks)
        sources = np.arange(graph.n_nodes)
        batches = list(packed_bfs_distances(graph, cols, r, sources))
        assert len(batches) > 1
        block = world_block_csr(graph, masks)
        for lo, hi, dist in batches:
            for j, source in enumerate(sources[lo:hi]):
                expected = block_bfs_distances(block, graph.n_nodes, r, int(source))
                assert np.array_equal(dist[j], expected)

    def test_levels_past_255_widen_the_codes(self):
        # 269 hops: level codes (level + 1) no longer fit in uint8.
        graph = _certain_path(270)
        n, r = graph.n_nodes, 65
        masks = np.ones((r, graph.n_edges), dtype=bool)
        masks[1:, 200] = False  # world 0 is the whole path
        cols = _with_garbage_pad(pack_mask_columns(masks), r)
        block = world_block_csr(graph, masks)
        sources = [0, n - 1, 100]
        for depth in (None, 260):
            expected = np.stack([block_bfs_distances(block, n, r, v, depth) for v in sources])
            assert np.array_equal(_packed_distances(graph, cols, r, sources, depth), expected)
            reached, hops = packed_bfs_counts(graph, cols, r, sources, depth)
            assert np.array_equal(reached, (expected >= 0).sum(axis=1))
            assert np.array_equal(hops, np.maximum(expected, 0).sum(axis=1))
        (_, _, codes), = _packed_bfs_codes(graph, cols, r, [0])
        assert codes.dtype == np.uint16 and codes.max() == n
        (_, _, codes), = _packed_bfs_codes(graph, cols, r, [0], 254)
        assert codes.dtype == np.uint8 and codes.max() == 255

    def test_layout_belongs_to_the_graph_object(self):
        graph = random_graph(14, 0.2, np.random.default_rng(4))
        layout = graph.degree_layout
        assert graph.degree_layout is layout
        # Joining the least connected node to every other node moves it
        # to position 0 of the mutated graph's layout.
        low = int(np.argmin(graph.degrees()))
        mutated, _ = graph.mutate(add=[
            (graph.label_of(low), graph.label_of(v), 0.9)
            for v in range(graph.n_nodes) if v != low and not graph.has_edge(low, v)
        ])
        fresh = UncertainGraph(
            mutated.n_nodes, mutated.edge_src, mutated.edge_dst, mutated.edge_prob)
        assert graph.degree_layout is layout
        assert mutated.degree_layout is not layout
        for got, want in zip(mutated.degree_layout, fresh.degree_layout):
            assert np.array_equal(got, want)
        assert mutated.degree_layout[0][low] == 0 != layout[0][low]
        r = 70
        masks = np.random.default_rng(3).random((r, mutated.n_edges)) < mutated.edge_prob
        block = world_block_csr(mutated, masks)
        expected = np.stack([
            block_bfs_distances(block, mutated.n_nodes, r, v) for v in range(mutated.n_nodes)
        ])
        reached, hops = packed_bfs_counts(
            mutated, pack_mask_columns(masks), r, range(mutated.n_nodes))
        assert np.array_equal(reached, (expected >= 0).sum(axis=1))
        assert np.array_equal(hops, np.maximum(expected, 0).sum(axis=1))

    def test_rejects_bad_input(self, path4):
        cols = pack_mask_columns(np.ones((3, 3), dtype=bool))
        with pytest.raises(ValueError, match="max_depth"):
            packed_bfs_counts(path4, cols, 3, [0], -1)
        with pytest.raises(ValueError, match="packed columns"):
            packed_bfs_counts(path4, cols, 65, [0])
        with pytest.raises(IndexError):
            packed_bfs_counts(path4, cols, 3, [4])
        with pytest.raises(IndexError):
            next(packed_bfs_distances(path4, cols, 3, [-1]))
