"""Tests for the Markov Cluster algorithm baseline."""

import numpy as np
import pytest

from repro import ClusteringError
from repro.baselines.mcl import _normalize_columns, mcl_clustering
from repro.datasets import planted_partition

import scipy.sparse as sp


class TestNormalization:
    def test_columns_sum_to_one(self):
        matrix = sp.random(10, 10, density=0.4, random_state=0, format="csc")
        matrix.data = np.abs(matrix.data) + 0.1
        normalized = _normalize_columns(matrix)
        sums = np.asarray(normalized.sum(axis=0)).ravel()
        nonzero = sums > 0
        assert np.allclose(sums[nonzero], 1.0)

    def test_zero_columns_stay_zero(self):
        matrix = sp.csc_matrix((3, 3))
        normalized = _normalize_columns(matrix)
        assert normalized.nnz == 0


class TestClusteringBehaviour:
    def test_partitions_all_nodes(self, two_triangles):
        result = mcl_clustering(two_triangles)
        assert result.clustering.covers_all

    def test_finds_the_two_triangles(self, two_triangles):
        result = mcl_clustering(two_triangles, inflation=2.0)
        assignment = result.clustering.assignment
        assert len(set(assignment[:3].tolist())) == 1
        assert len(set(assignment[3:].tolist())) == 1
        assert assignment[0] != assignment[3]

    def test_higher_inflation_gives_no_fewer_clusters(self):
        graph, _ = planted_partition(90, 6, seed=2)
        low = mcl_clustering(graph, inflation=1.3)
        high = mcl_clustering(graph, inflation=2.4)
        assert high.n_clusters >= low.n_clusters

    def test_recovers_planted_partition(self):
        graph, membership = planted_partition(
            60, 3, intra_degree=8.0, inter_degree=0.3,
            intra_prob=(0.8, 1.0), inter_prob=(0.05, 0.1), seed=1,
        )
        result = mcl_clustering(graph, inflation=2.0)
        # Every planted community should be dominated by one cluster.
        agreement = 0
        for community in range(3):
            nodes = np.flatnonzero(membership == community)
            values, counts = np.unique(
                result.clustering.assignment[nodes], return_counts=True
            )
            agreement += counts.max()
        assert agreement >= 0.9 * graph.n_nodes

    def test_deterministic(self, two_triangles):
        a = mcl_clustering(two_triangles)
        b = mcl_clustering(two_triangles)
        assert np.array_equal(a.clustering.assignment, b.clustering.assignment)

    def test_converges_on_small_graph(self, two_triangles):
        result = mcl_clustering(two_triangles)
        assert result.converged
        assert result.n_iterations < 100

    def test_centers_are_members(self, two_triangles):
        result = mcl_clustering(two_triangles)
        clustering = result.clustering
        for i, center in enumerate(clustering.centers):
            assert clustering.assignment[center] == i


class TestParameters:
    def test_inflation_must_exceed_one(self, two_triangles):
        with pytest.raises(ClusteringError):
            mcl_clustering(two_triangles, inflation=1.0)

    @pytest.mark.parametrize("inflation", [float("nan"), float("inf")])
    def test_inflation_must_be_finite(self, two_triangles, inflation):
        with pytest.raises(ClusteringError, match="finite"):
            mcl_clustering(two_triangles, inflation=inflation)

    def test_expansion_at_least_two(self, two_triangles):
        with pytest.raises(ClusteringError):
            mcl_clustering(two_triangles, expansion=1)

    def test_negative_loop_weight(self, two_triangles):
        with pytest.raises(ClusteringError):
            mcl_clustering(two_triangles, loop_weight=-1.0)

    def test_memory_guard_raises(self):
        graph, _ = planted_partition(120, 2, intra_degree=10.0, seed=0)
        with pytest.raises(MemoryError, match="stored entries"):
            mcl_clustering(graph, inflation=1.2, max_nnz=500)

    def test_memory_guard_disabled(self, two_triangles):
        result = mcl_clustering(two_triangles, max_nnz=None)
        assert result.clustering.covers_all

    def test_expansion_three(self, two_triangles):
        result = mcl_clustering(two_triangles, expansion=3)
        assert result.clustering.covers_all
