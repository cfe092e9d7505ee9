"""Tests for the Clustering dataclass and completion."""

import numpy as np
import pytest

from repro import Clustering, ClusteringError
from repro.core.clustering import UNCOVERED, complete_clustering


def make_clustering(assignment, centers, probs=None, n=None):
    assignment = np.asarray(assignment)
    n = n if n is not None else len(assignment)
    return Clustering(n, np.asarray(centers), assignment, probs)


class TestValidation:
    def test_valid_full_clustering(self):
        c = make_clustering([0, 0, 1, 1], [0, 2])
        assert c.k == 2
        assert c.covers_all

    def test_center_must_be_in_own_cluster(self):
        with pytest.raises(ClusteringError, match="own cluster"):
            make_clustering([1, 0, 1, 1], [0, 2])

    def test_centers_must_be_distinct(self):
        with pytest.raises(ClusteringError, match="distinct"):
            make_clustering([0, 0, 0], [1, 1])

    def test_centers_in_range(self):
        with pytest.raises(ClusteringError):
            make_clustering([0, 0], [5])

    def test_assignment_values_in_range(self):
        with pytest.raises(ClusteringError):
            make_clustering([0, 3], [0, 1])

    def test_assignment_shape(self):
        with pytest.raises(ClusteringError):
            Clustering(5, np.array([0]), np.array([0, 0]))

    def test_needs_a_center(self):
        with pytest.raises(ClusteringError):
            Clustering(2, np.array([], dtype=int), np.array([-1, -1]))

    def test_probability_bounds(self):
        with pytest.raises(ClusteringError):
            make_clustering([0, 0], [0], probs=[0.5, 1.5])


class TestAccessors:
    def test_partial_cover_counts(self):
        c = make_clustering([0, UNCOVERED, 0, UNCOVERED], [0])
        assert c.n_covered == 2
        assert not c.covers_all
        assert c.covered_mask.tolist() == [True, False, True, False]

    def test_clusters_listing(self):
        c = make_clustering([0, 1, 0, UNCOVERED, 1], [0, 1])
        clusters = c.clusters()
        assert [sorted(m.tolist()) for m in clusters] == [[0, 2], [1, 4]]

    def test_cluster_sizes(self):
        c = make_clustering([0, 1, 0, UNCOVERED, 1], [0, 1])
        assert c.cluster_sizes().tolist() == [2, 2]

    def test_empty_cluster_allowed(self):
        # Padding centers can own empty clusters before assignment.
        c = make_clustering([0, 0, 1], [0, 2])
        assert c.cluster_sizes().tolist() == [2, 1]

    def test_center_of(self):
        c = make_clustering([0, 1, 0, 1], [0, 1])
        assert c.center_of(2) == 0
        assert c.center_of(3) == 1

    def test_center_of_uncovered_raises(self):
        c = make_clustering([0, UNCOVERED], [0])
        with pytest.raises(ClusteringError, match="uncovered"):
            c.center_of(1)

    def test_repr(self):
        c = make_clustering([0, UNCOVERED], [0])
        assert "covered=1/2" in repr(c)


class TestObjectives:
    def test_min_prob_over_covered(self):
        c = make_clustering([0, 0, UNCOVERED], [0], probs=[1.0, 0.4, 0.0])
        assert c.min_prob() == pytest.approx(0.4)

    def test_avg_prob_counts_uncovered_as_zero(self):
        c = make_clustering([0, 0, UNCOVERED], [0], probs=[1.0, 0.5, 0.9])
        assert c.avg_prob() == pytest.approx((1.0 + 0.5 + 0.0) / 3)

    def test_objectives_require_probs(self):
        c = make_clustering([0, 0], [0])
        with pytest.raises(ClusteringError):
            c.min_prob()
        with pytest.raises(ClusteringError):
            c.avg_prob()


class TestCompletion:
    def test_assigns_uncovered_to_best_center(self):
        c = make_clustering([0, 1, UNCOVERED], [0, 1], probs=[1.0, 1.0, 0.0])
        rows = np.array([[1.0, 0.0, 0.2], [0.0, 1.0, 0.7]])
        completed = complete_clustering(c, rows)
        assert completed.covers_all
        assert completed.assignment[2] == 1
        assert completed.center_connection[2] == pytest.approx(0.7)

    def test_full_clustering_is_returned_unchanged(self):
        c = make_clustering([0, 0], [0], probs=[1.0, 0.5])
        assert complete_clustering(c, np.ones((1, 2))) is c

    def test_row_shape_checked(self):
        c = make_clustering([0, UNCOVERED], [0])
        with pytest.raises(ClusteringError):
            complete_clustering(c, np.ones((2, 2)))

    def test_completion_never_decreases_avg_prob(self):
        c = make_clustering([0, 1, UNCOVERED, UNCOVERED], [0, 1], probs=[1, 1, 0, 0])
        rows = np.array([[1.0, 0.0, 0.3, 0.1], [0.0, 1.0, 0.2, 0.4]])
        completed = complete_clustering(c, rows)
        assert completed.avg_prob() >= c.avg_prob()
