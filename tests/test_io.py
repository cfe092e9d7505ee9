"""Tests for .uel edge-list reading and writing."""

import pytest

from repro import GraphValidationError, read_uncertain_graph, write_uncertain_graph
from repro.graph.uncertain_graph import UncertainGraph


class TestRoundtrip:
    def test_roundtrip_preserves_graph(self, tmp_path, two_triangles):
        path = tmp_path / "graph.uel"
        write_uncertain_graph(two_triangles, path)
        back = read_uncertain_graph(path, numeric_labels=True)
        assert back.n_nodes == two_triangles.n_nodes
        assert back.n_edges == two_triangles.n_edges
        for u, v, p in two_triangles.edge_list():
            assert back.edge_probability_between(
                back.index_of(u), back.index_of(v)
            ) == pytest.approx(p)

    def test_roundtrip_string_labels(self, tmp_path):
        g = UncertainGraph.from_edges([("alice", "bob", 0.25)])
        path = tmp_path / "named.uel"
        write_uncertain_graph(g, path)
        back = read_uncertain_graph(path)
        assert set(back.node_labels) == {"alice", "bob"}

    def test_header_comment_written(self, tmp_path, path4):
        path = tmp_path / "g.uel"
        write_uncertain_graph(path4, path, header="my dataset\nsecond line")
        text = path.read_text()
        assert text.startswith("# my dataset\n# second line\n")
        assert "# nodes=4 edges=3" in text


class TestReading:
    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.uel"
        path.write_text("# comment\n\n0 1 0.5\n\n# another\n1 2 0.75\n")
        g = read_uncertain_graph(path, numeric_labels=True)
        assert g.n_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.uel"
        path.write_text("0 1\n")
        with pytest.raises(GraphValidationError, match="line 1"):
            read_uncertain_graph(path)

    def test_bad_probability_raises(self, tmp_path):
        path = tmp_path / "bad.uel"
        path.write_text("0 1 high\n")
        with pytest.raises(GraphValidationError, match="not a number"):
            read_uncertain_graph(path)

    @pytest.mark.parametrize("token", ["1.5", "-0.1", "nan", "inf", "-inf", "2e3"])
    def test_out_of_range_probability_raises_with_line(self, tmp_path, token):
        path = tmp_path / "bad.uel"
        path.write_text(f"0 1 0.5\n1 2 {token}\n")
        with pytest.raises(GraphValidationError, match=r"line 2.*outside \[0, 1\]"):
            read_uncertain_graph(path)

    def test_zero_probability_raises_with_line(self, tmp_path):
        path = tmp_path / "bad.uel"
        path.write_text("0 1 0.0\n")
        with pytest.raises(GraphValidationError, match="line 1.*probability-0"):
            read_uncertain_graph(path)

    def test_parse_text_validates_like_files(self):
        from repro.graph.io import parse_uncertain_graph_text

        graph = parse_uncertain_graph_text("a b 0.5\nb c 1\n")
        assert graph.n_edges == 2
        with pytest.raises(GraphValidationError, match="line 2"):
            parse_uncertain_graph_text("a b 0.5\na c nan\n")

    def test_numeric_labels_rejects_strings(self, tmp_path):
        path = tmp_path / "bad.uel"
        path.write_text("a b 0.5\n")
        with pytest.raises(GraphValidationError, match="not an integer"):
            read_uncertain_graph(path, numeric_labels=True)

    def test_duplicate_edges_with_merge(self, tmp_path):
        path = tmp_path / "dup.uel"
        path.write_text("0 1 0.5\n1 0 0.9\n")
        with pytest.raises(GraphValidationError):
            read_uncertain_graph(path, numeric_labels=True)
        g = read_uncertain_graph(path, numeric_labels=True, merge="max")
        assert g.n_edges == 1
        assert g.edge_prob[0] == pytest.approx(0.9)


class TestNodeOrderDirective:
    """#% node-order pins numbering across write/read roundtrips."""

    def test_roundtrip_preserves_numbering_and_fingerprint(self, tmp_path):
        import numpy as np

        from repro.sampling.store import pool_fingerprint

        graph = UncertainGraph.from_edges(
            [("c", "a", 0.5), ("a", "b", 0.25), ("b", "d", 0.75)]
        )
        path = tmp_path / "g.uel"
        write_uncertain_graph(graph, path)
        assert "#% node-order:" in path.read_text()
        reread = read_uncertain_graph(path)
        assert reread.node_labels == graph.node_labels
        assert np.array_equal(reread.edge_src, graph.edge_src)
        assert np.array_equal(reread.edge_dst, graph.edge_dst)
        assert pool_fingerprint(reread, 0) == pool_fingerprint(graph, 0)

    def test_directive_preserves_isolated_nodes(self, tmp_path):
        graph = UncertainGraph(4, [0], [1], [0.5])
        path = tmp_path / "g.uel"
        write_uncertain_graph(graph, path)
        reread = read_uncertain_graph(path)
        assert reread.n_nodes == 4  # nodes 2 and 3 survive despite no edges

    def test_directive_wraps_long_label_lists(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(0)
        edges = [(i, i + 1, 0.5) for i in range(199)]
        graph = UncertainGraph.from_edges(edges, nodes=rng.permutation(200).tolist())
        path = tmp_path / "g.uel"
        write_uncertain_graph(graph, path)
        directive_lines = [
            line for line in path.read_text().splitlines()
            if line.startswith("#% node-order:")
        ]
        assert len(directive_lines) > 1  # wrapped
        assert read_uncertain_graph(path).node_labels == tuple(
            str(label) for label in graph.node_labels
        )

    def test_files_without_directive_parse_as_before(self, tmp_path):
        path = tmp_path / "legacy.uel"
        path.write_text("# a comment\nb a 0.5\na c 0.25\n")
        graph = read_uncertain_graph(path)
        assert graph.node_labels == ("b", "a", "c")  # first-seen order

    def test_numeric_labels_directive(self, tmp_path):
        path = tmp_path / "g.uel"
        path.write_text("#% node-order: 5 3 1\n3 5 0.5\n")
        graph = read_uncertain_graph(path, numeric_labels=True)
        assert graph.node_labels == (5, 3, 1)
        bad = tmp_path / "bad.uel"
        bad.write_text("#% node-order: a b\na b 0.5\n")
        with pytest.raises(GraphValidationError, match="node-order"):
            read_uncertain_graph(bad, numeric_labels=True)
