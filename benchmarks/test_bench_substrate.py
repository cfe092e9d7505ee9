"""Micro-benchmarks of the possible-world substrate.

These justify the design decisions documented in
docs/ARCHITECTURE.md: bulk component labelling, the packed multi-source
BFS against its block-CSR reference, and the sparse-product pairwise
matrix.
"""

import numpy as np

from repro.graph.components import UnionFind, connected_component_labels
from repro.sampling.store import pack_mask_columns
from repro.sampling.worlds import (
    block_bfs_reached,
    packed_bfs_counts,
    sample_edge_masks,
    world_block_csr,
    world_component_labels,
)

R = 128  # worlds per batch


def test_sample_edge_masks(benchmark, gavin_tiny):
    rng = np.random.default_rng(0)
    benchmark(sample_edge_masks, gavin_tiny.edge_prob, R, rng)


def test_bulk_component_labels(benchmark, gavin_tiny):
    masks = sample_edge_masks(gavin_tiny.edge_prob, R, np.random.default_rng(1))
    benchmark(world_component_labels, gavin_tiny, masks)


def test_per_world_union_find_baseline(benchmark, gavin_tiny):
    """The naive alternative to the block-diagonal labelling."""
    masks = sample_edge_masks(gavin_tiny.edge_prob, R, np.random.default_rng(1))
    src, dst = gavin_tiny.edge_src, gavin_tiny.edge_dst

    def label_each_world():
        out = []
        for i in range(R):
            uf = UnionFind(gavin_tiny.n_nodes)
            uf.union_edges(src[masks[i]], dst[masks[i]])
            out.append(uf.labels())
        return out

    benchmark(label_each_world)


def test_block_bfs_depth4(benchmark, gavin_tiny):
    masks = sample_edge_masks(gavin_tiny.edge_prob, R, np.random.default_rng(2))
    block = world_block_csr(gavin_tiny, masks)
    benchmark(block_bfs_reached, block, gavin_tiny.n_nodes, R, 0, 4)


def test_packed_bfs_depth4(benchmark, gavin_tiny):
    """The same query as ``test_block_bfs_depth4`` on the packed columns."""
    masks = sample_edge_masks(gavin_tiny.edge_prob, R, np.random.default_rng(2))
    benchmark(packed_bfs_counts, gavin_tiny, pack_mask_columns(masks), R, [0], 4)


def test_connection_row_query(benchmark, gavin_oracle):
    benchmark(gavin_oracle.connection_to_all, 0)


def test_connection_row_query_depth3(benchmark, gavin_oracle):
    benchmark(gavin_oracle.connection_to_all, 0, 3)


def test_pairwise_matrix(benchmark, gavin_oracle):
    benchmark(gavin_oracle.pairwise_matrix)


def test_skeleton_components(benchmark, gavin_tiny):
    benchmark(
        connected_component_labels,
        gavin_tiny.n_nodes,
        gavin_tiny.edge_src,
        gavin_tiny.edge_dst,
    )
