"""Tests for the generic synthetic generators."""

import numpy as np
import pytest

from repro import GraphValidationError
from repro.datasets.synthetic import (
    gnm_uncertain,
    planted_partition,
    sample_distinct_pairs,
)


class TestSampleDistinctPairs:
    def test_exact_count_and_distinct(self):
        rng = np.random.default_rng(0)
        src, dst = sample_distinct_pairs(20, 30, rng)
        assert len(src) == 30
        keys = src.astype(np.int64) * 20 + dst
        assert len(np.unique(keys)) == 30
        assert np.all(src < dst)

    def test_exclusion_respected(self):
        rng = np.random.default_rng(1)
        exclude = np.array([0 * 10 + 1], dtype=np.int64)  # pair (0, 1)
        src, dst = sample_distinct_pairs(10, 20, rng, exclude_keys=exclude)
        keys = src.astype(np.int64) * 10 + dst
        assert 1 not in keys.tolist()

    def test_impossible_request(self):
        rng = np.random.default_rng(2)
        with pytest.raises(GraphValidationError):
            sample_distinct_pairs(4, 100, rng)


class TestGnm:
    def test_sizes(self):
        g = gnm_uncertain(30, 50, seed=0)
        assert g.n_nodes == 30
        assert g.n_edges == 50

    def test_probability_range(self):
        g = gnm_uncertain(30, 50, prob_low=0.4, prob_high=0.6, seed=1)
        assert np.all(g.edge_prob >= 0.4)
        assert np.all(g.edge_prob <= 0.6)

    def test_deterministic(self):
        a = gnm_uncertain(25, 40, seed=3)
        b = gnm_uncertain(25, 40, seed=3)
        assert np.array_equal(a.edge_src, b.edge_src)
        assert np.array_equal(a.edge_prob, b.edge_prob)

    def test_too_small(self):
        with pytest.raises(GraphValidationError):
            gnm_uncertain(1, 0)


class TestPlantedPartition:
    def test_membership_shape(self):
        graph, membership = planted_partition(60, 4, seed=0)
        assert graph.n_nodes == 60
        assert len(membership) == 60
        assert set(np.unique(membership)) == {0, 1, 2, 3}

    def test_communities_internally_connected(self):
        graph, membership = planted_partition(40, 4, seed=1)
        labels = graph.connected_components()
        for community in range(4):
            nodes = np.flatnonzero(membership == community)
            assert len(set(labels[nodes].tolist())) == 1

    def test_probability_bands(self):
        graph, membership = planted_partition(
            60, 3, intra_prob=(0.8, 0.9), inter_prob=(0.1, 0.2), seed=2
        )
        for u, v, p in zip(graph.edge_src, graph.edge_dst, graph.edge_prob, strict=True):
            if membership[u] == membership[v]:
                assert 0.8 <= p <= 0.9
            else:
                assert 0.1 <= p <= 0.2

    def test_invalid_sizes(self):
        with pytest.raises(GraphValidationError):
            planted_partition(5, 3)

    def test_deterministic(self):
        a, ma = planted_partition(30, 3, seed=9)
        b, mb = planted_partition(30, 3, seed=9)
        assert np.array_equal(ma, mb)
        assert np.array_equal(a.edge_prob, b.edge_prob)
