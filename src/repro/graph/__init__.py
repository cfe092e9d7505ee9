"""Graph substrate: the :class:`UncertainGraph` structure and algorithms."""

from repro.graph.uncertain_graph import UncertainGraph
from repro.graph.components import UnionFind, connected_component_labels, largest_component_indices
from repro.graph.traversal import bfs_distances, build_csr_matrix, dijkstra_distances
from repro.graph.io import (
    parse_uncertain_graph_text,
    read_uncertain_graph,
    write_uncertain_graph,
)

__all__ = [
    "parse_uncertain_graph_text",
    "UncertainGraph",
    "UnionFind",
    "connected_component_labels",
    "largest_component_indices",
    "bfs_distances",
    "build_csr_matrix",
    "dijkstra_distances",
    "read_uncertain_graph",
    "write_uncertain_graph",
]
