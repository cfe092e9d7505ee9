"""Possible-world sampling and connection-probability oracles."""

from repro.sampling.backends import UnionFindWorldBackend
from repro.sampling.parallel import (
    ParallelSampler,
    ensure_seed_sequence,
    sample_mask_rows,
)
from repro.sampling.store import (
    WorldStore,
    pack_mask_columns,
    packed_words,
    pool_fingerprint,
    unpack_mask_columns,
)
from repro.sampling.deltas import DeriveResult, derive_pool, diff_edges
from repro.sampling.worlds import (
    block_bfs_distances,
    block_bfs_reached,
    packed_bfs_counts,
    packed_bfs_distances,
    world_block_csr,
)
from repro.sampling.oracle import MonteCarloOracle
from repro.sampling.exact import ExactOracle, enumerate_worlds
from repro.sampling.sizes import (
    epsilon_delta_sample_size,
    mcp_sample_size,
    acp_sample_size,
    PracticalSchedule,
    TheoreticalMCPSchedule,
    TheoreticalACPSchedule,
)
from repro.sampling.representative import (
    average_degree_representative,
    degree_discrepancy,
    most_probable_world,
)

__all__ = [
    "DeriveResult",
    "ParallelSampler",
    "derive_pool",
    "diff_edges",
    "ensure_seed_sequence",
    "sample_mask_rows",
    "UnionFindWorldBackend",
    "WorldStore",
    "pack_mask_columns",
    "packed_words",
    "pool_fingerprint",
    "unpack_mask_columns",
    "average_degree_representative",
    "degree_discrepancy",
    "most_probable_world",
    "block_bfs_distances",
    "block_bfs_reached",
    "packed_bfs_counts",
    "packed_bfs_distances",
    "world_block_csr",
    "MonteCarloOracle",
    "ExactOracle",
    "enumerate_worlds",
    "epsilon_delta_sample_size",
    "mcp_sample_size",
    "acp_sample_size",
    "PracticalSchedule",
    "TheoreticalMCPSchedule",
    "TheoreticalACPSchedule",
]
