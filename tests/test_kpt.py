"""Tests for the kpt (pKwikCluster) baseline."""

import numpy as np
import pytest

from repro import ClusteringError, UncertainGraph
from repro.baselines.kpt import kpt_clustering


class TestBasics:
    def test_partitions_all_nodes(self, two_triangles):
        clustering = kpt_clustering(two_triangles, seed=0)
        assert clustering.covers_all

    def test_deterministic_with_seed(self, two_triangles):
        a = kpt_clustering(two_triangles, seed=3)
        b = kpt_clustering(two_triangles, seed=3)
        assert np.array_equal(a.assignment, b.assignment)

    def test_pivots_are_centers(self, two_triangles):
        clustering = kpt_clustering(two_triangles, seed=1)
        for i, center in enumerate(clustering.centers):
            assert clustering.assignment[center] == i
            assert clustering.center_connection[center] == 1.0

    def test_members_connected_by_majority_edge(self, two_triangles):
        clustering = kpt_clustering(two_triangles, seed=2)
        for node in range(clustering.n_nodes):
            center = clustering.center_of(node)
            if node == center:
                continue
            p = two_triangles.edge_probability_between(node, center)
            assert p is not None and p >= 0.5

    def test_invalid_threshold(self, two_triangles):
        with pytest.raises(ClusteringError):
            kpt_clustering(two_triangles, threshold=0.0)
        with pytest.raises(ClusteringError):
            kpt_clustering(two_triangles, threshold=1.2)


STAR = UncertainGraph.from_edges([(0, leaf, 0.9) for leaf in range(1, 7)])


class TestStarDecomposition:
    def test_star_collapses_to_one_cluster_when_pivot_is_hub(self):
        graph = STAR
        # Force the hub to be drawn first by trying seeds.
        for seed in range(50):
            clustering = kpt_clustering(graph, seed=seed)
            if clustering.assignment[0] == 0 and clustering.k == 1:
                break
        else:
            pytest.fail("no seed made the hub the first pivot")

    def test_leaf_pivot_gives_many_clusters(self):
        graph = STAR
        counts = [kpt_clustering(graph, seed=s).k for s in range(30)]
        # When a leaf pivots first, the star shatters: expect variance.
        assert max(counts) > 1

    def test_low_probability_edges_never_merge(self):
        g = UncertainGraph.from_edges([(0, 1, 0.2), (1, 2, 0.3)])
        clustering = kpt_clustering(g, seed=0)
        assert clustering.k == 3  # all singletons

    def test_cluster_count_not_controllable(self, two_triangles):
        # The paper's criticism: k emerges from pivoting; verify it is
        # at least n / (max_degree + 1).
        clustering = kpt_clustering(two_triangles, seed=5)
        max_degree = int(two_triangles.degrees().max())
        assert clustering.k >= two_triangles.n_nodes / (max_degree + 1)

    def test_custom_threshold(self):
        g = UncertainGraph.from_edges([(0, 1, 0.4)])
        default = kpt_clustering(g, seed=0)
        lenient = kpt_clustering(g, seed=0, threshold=0.3)
        assert default.k == 2
        assert lenient.k == 1
