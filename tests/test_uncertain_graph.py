"""Tests for the UncertainGraph data structure."""

import networkx as nx
import numpy as np
import pytest

from repro import GraphValidationError, UncertainGraph


class TestConstruction:
    def test_from_edges_counts(self, two_triangles):
        assert two_triangles.n_nodes == 6
        assert two_triangles.n_edges == 7

    def test_edge_arrays_canonical_orientation(self):
        g = UncertainGraph.from_edges([(3, 1, 0.5), (2, 0, 0.7)])
        assert np.all(g.edge_src < g.edge_dst)

    def test_from_edges_with_labels(self):
        g = UncertainGraph.from_edges([("x", "y", 0.5)])
        assert g.node_labels == ("x", "y")
        assert g.index_of("y") == 1
        assert g.label_of(0) == "x"

    def test_from_edges_respects_given_node_order(self):
        g = UncertainGraph.from_edges([("b", "c", 0.5)], nodes=["a", "b", "c"])
        assert g.n_nodes == 3
        assert g.node_labels == ("a", "b", "c")

    def test_integer_labels_passthrough(self):
        g = UncertainGraph.from_edges([(0, 1, 0.5)])
        assert g.index_of(1) == 1
        assert g.label_of(1) == 1

    def test_direct_constructor(self):
        g = UncertainGraph(3, [0, 1], [1, 2], [0.5, 0.6])
        assert g.n_nodes == 3
        assert g.n_edges == 2

    def test_empty_graph(self):
        g = UncertainGraph(4, [], [], [])
        assert g.n_nodes == 4
        assert g.n_edges == 0
        assert g.degrees().tolist() == [0, 0, 0, 0]


class TestValidation:
    def test_rejects_probability_zero(self):
        with pytest.raises(GraphValidationError):
            UncertainGraph.from_edges([(0, 1, 0.0)])

    def test_rejects_probability_above_one(self):
        with pytest.raises(GraphValidationError):
            UncertainGraph.from_edges([(0, 1, 1.5)])

    def test_accepts_probability_exactly_one(self):
        g = UncertainGraph.from_edges([(0, 1, 1.0)])
        assert g.edge_prob[0] == 1.0

    def test_rejects_self_loop(self):
        with pytest.raises(GraphValidationError):
            UncertainGraph.from_edges([(0, 0, 0.5)])

    def test_rejects_duplicate_edge_by_default(self):
        with pytest.raises(GraphValidationError, match="duplicate"):
            UncertainGraph.from_edges([(0, 1, 0.5), (1, 0, 0.6)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphValidationError):
            UncertainGraph(2, [0], [5], [0.5])

    def test_rejects_mismatched_array_lengths(self):
        with pytest.raises(GraphValidationError):
            UncertainGraph(3, [0, 1], [1], [0.5])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(GraphValidationError):
            UncertainGraph(2, [0], [1], [0.5], node_labels=["a", "a"])

    def test_rejects_wrong_label_count(self):
        with pytest.raises(GraphValidationError):
            UncertainGraph(2, [0], [1], [0.5], node_labels=["a"])

    def test_unknown_label_lookup(self, two_triangles):
        with pytest.raises(KeyError):
            two_triangles.index_of(99)

    @pytest.mark.parametrize("merge", ["error", "max", "noisy-or", "first"])
    def test_every_triple_probability_is_checked(self, merge):
        """A bad probability fails even on a duplicate the merge drops,
        and the error names the triple's position."""
        with pytest.raises(GraphValidationError, match=r"^edge 2: probability nan outside"):
            UncertainGraph.from_edges([(0, 1, 0.5), (0, 1, float("nan"))], merge=merge)
        with pytest.raises(GraphValidationError, match="^edge 3: probability 'x' is not a number"):
            UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5), (0, 1, "x")], merge=merge)


class TestNodeTokens:
    """``index_of`` is the node-token rule of the CLI, the service and
    ``mutate``: labels and integer spellings of integer labels name a
    node; bools and non-integral numbers never do."""

    GRAPHS = {
        "plain": UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)]),
        "int labels": UncertainGraph.from_edges([(3, 2, 0.5), (2, 1, 0.5), (1, 0, 0.5)]),
        "string labels": UncertainGraph.from_edges([("3", "2", 0.5), ("2", "x", 0.5)]),
    }
    BAD_TOKENS = [True, np.True_, 2.9, "2.9", "3.0", None, [3], "y", 4, -1]

    @pytest.mark.parametrize("name", ["plain", "int labels"])
    @pytest.mark.parametrize("token", [3, "3", np.int64(3), 3.0])
    def test_integer_tokens_name_integer_labels(self, name, token):
        graph = self.GRAPHS[name]
        assert graph.label_of(graph.index_of(token)) == 3

    def test_string_labels_match_as_typed(self):
        graph = self.GRAPHS["string labels"]
        assert graph.label_of(graph.index_of("3")) == "3"
        assert graph.label_of(graph.index_of("x")) == "x"

    @pytest.mark.parametrize("name", list(GRAPHS))
    @pytest.mark.parametrize("token", BAD_TOKENS, ids=repr)
    def test_other_tokens_name_no_node(self, name, token):
        graph = self.GRAPHS[name]
        with pytest.raises(KeyError, match="unknown node label"):
            graph.index_of(token)
        with pytest.raises(GraphValidationError, match="cannot mutate: unknown node label"):
            graph.mutate(add=[(graph.node_labels[0], token, 0.5)])


class TestMergePolicies:
    def test_merge_max(self):
        g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 0, 0.8)], merge="max")
        assert g.n_edges == 1
        assert g.edge_prob[0] == pytest.approx(0.8)

    def test_merge_noisy_or(self):
        g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 0, 0.5)], merge="noisy-or")
        assert g.edge_prob[0] == pytest.approx(0.75)

    def test_merge_noisy_or_with_certain_edge(self):
        g = UncertainGraph.from_edges([(0, 1, 1.0), (1, 0, 0.5)], merge="noisy-or")
        assert g.edge_prob[0] == 1.0

    def test_merge_first(self):
        g = UncertainGraph.from_edges([(0, 1, 0.3), (1, 0, 0.9)], merge="first")
        assert g.edge_prob[0] == pytest.approx(0.3)

    def test_unknown_merge_policy(self):
        with pytest.raises(GraphValidationError):
            UncertainGraph.from_edges([(0, 1, 0.5)], merge="sum")


class TestAdjacency:
    def test_neighbors(self, two_triangles):
        assert sorted(two_triangles.neighbors(0).tolist()) == [1, 2]
        assert sorted(two_triangles.neighbors(2).tolist()) == [0, 1, 3]

    def test_degrees_sum_to_twice_edges(self, two_triangles):
        assert int(two_triangles.degrees().sum()) == 2 * two_triangles.n_edges

    def test_incident_edges_probabilities(self, path4):
        edges = path4.incident_edges(1)
        probs = sorted(path4.edge_prob[edges].tolist())
        assert probs == pytest.approx([0.5, 0.9])

    def test_has_edge(self, path4):
        assert path4.has_edge(0, 1)
        assert path4.has_edge(1, 0)
        assert not path4.has_edge(0, 3)
        assert not path4.has_edge(2, 2)

    def test_edge_probability_between(self, path4):
        assert path4.edge_probability_between(1, 2) == pytest.approx(0.5)
        assert path4.edge_probability_between(0, 3) is None


class TestDerivedGraphs:
    def test_subgraph_keeps_internal_edges(self, two_triangles):
        sub = two_triangles.subgraph([0, 1, 2])
        assert sub.n_nodes == 3
        assert sub.n_edges == 3

    def test_subgraph_preserves_labels(self):
        g = UncertainGraph.from_edges([("a", "b", 0.5), ("b", "c", 0.6)])
        sub = g.subgraph([g.index_of("b"), g.index_of("c")])
        assert set(sub.node_labels) == {"b", "c"}
        assert sub.edge_probability_between(sub.index_of("b"), sub.index_of("c")) == pytest.approx(0.6)

    def test_subgraph_rejects_duplicates(self, two_triangles):
        with pytest.raises(GraphValidationError):
            two_triangles.subgraph([0, 0, 1])

    def test_connected_components_skeleton(self):
        g = UncertainGraph.from_edges([(0, 1, 0.1), (2, 3, 0.1)], nodes=range(5))
        labels = g.connected_components()
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert len({labels[0], labels[2], labels[4]}) == 3

    def test_largest_component(self):
        g = UncertainGraph.from_edges(
            [(0, 1, 0.5), (1, 2, 0.5), (3, 4, 0.5)], nodes=range(6)
        )
        lcc = g.largest_component()
        assert lcc.n_nodes == 3
        assert lcc.n_edges == 2


class TestGlobalProperties:
    def test_log_distance_weights(self, path4):
        w = path4.log_distance_weights()
        assert w == pytest.approx(-np.log(path4.edge_prob))

    def test_expected_edge_count(self, path4):
        assert path4.expected_edge_count() == pytest.approx(0.9 + 0.5 + 0.8)

    def test_repr_mentions_sizes(self, path4):
        assert "n_nodes=4" in repr(path4)


class TestNetworkxInterop:
    def test_roundtrip(self, two_triangles):
        nx_graph = two_triangles.to_networkx()
        back = UncertainGraph.from_networkx(nx_graph)
        assert back.n_nodes == two_triangles.n_nodes
        assert back.n_edges == two_triangles.n_edges
        for u, v, p in two_triangles.edge_list():
            assert back.edge_probability_between(back.index_of(u), back.index_of(v)) == pytest.approx(p)

    def test_from_networkx_missing_attr(self):
        nx_graph = nx.Graph()
        nx_graph.add_edge(0, 1)
        with pytest.raises(GraphValidationError, match="missing attribute"):
            UncertainGraph.from_networkx(nx_graph)

    def test_from_networkx_default_prob(self):
        nx_graph = nx.Graph()
        nx_graph.add_edge(0, 1)
        g = UncertainGraph.from_networkx(nx_graph, default_prob=0.4)
        assert g.edge_prob[0] == pytest.approx(0.4)

    def test_from_networkx_rejects_directed(self):
        with pytest.raises(GraphValidationError, match="undirected"):
            UncertainGraph.from_networkx(nx.DiGraph([(0, 1)]))
