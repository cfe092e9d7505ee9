"""Figure 4: running time versus k on DBLP — mcp against mcl.

The paper's scalability exhibit: mcp's time grows (roughly linearly)
with k, while mcl is *inversely* sensitive — low inflation (small k)
means slow convergence and dense flow matrices, to the point that mcl
ran out of memory for the smallest k values (red crosses in the paper's
figure).  We reproduce the same sweep on the scaled DBLP-like graph;
mcl failures surface as ``failed (memory)`` rows thanks to the
``max_nnz`` guard.
"""

from __future__ import annotations

import time

from repro.baselines.mcl import mcl_clustering
from repro.core.mcp import mcp_clustering
from repro.datasets.collaboration import dblp_like
from repro.experiments.config import ExperimentScale, get_scale
from repro.sampling.sizes import PracticalSchedule
from repro.utils.rng import ensure_rng
from repro.utils.tables import TextTable

# Inflation sweep for the mcl series: low inflation = few clusters.
_MCL_INFLATIONS = (1.1, 1.15, 1.2, 1.3, 1.5, 2.0)


def run(
    scale: str | ExperimentScale = "small",
    *,
    seed: int = 0,
    mcl_max_nnz: int | None = None,
) -> TextTable:
    """Time mcp (k sweep) and mcl (inflation sweep) on DBLP.

    ``mcl_max_nnz`` overrides the memory guard; the default scales with
    the graph so that the lowest inflations fail as in the paper.
    """
    scale = get_scale(scale)
    rng = ensure_rng(seed)
    graph = dblp_like(scale.dblp_authors, seed=int(rng.integers(2**31)))
    n = graph.n_nodes
    if mcl_max_nnz is None:
        # Low inflation lets the flow matrix approach density n^2 (the
        # paper's observed out-of-memory regime); half-dense is a
        # faithful per-machine budget at our scale.
        mcl_max_nnz = n * n // 2

    table = TextTable(
        ["algorithm", "k", "time_s", "note"],
        float_format=".2f",
        title=(
            f"Figure 4 — time vs k on DBLP-like graph "
            f"(n={n}, m={graph.n_edges}), scale={scale.name}"
        ),
    )

    schedule = PracticalSchedule(max_samples=scale.max_algo_samples)
    for fraction in scale.figure4_k_fractions:
        k = max(2, int(round(n * fraction)))
        start = time.perf_counter()
        result = mcp_clustering(
            graph,
            k,
            seed=int(rng.integers(2**31)),
            sample_schedule=schedule,
            chunk_size=128,
            cache_dir=scale.world_cache,
        )
        table.add_row(
            algorithm="mcp",
            k=k,
            time_s=time.perf_counter() - start,
            note="" if result.covers_all else "partial at p_lower",
        )

    for inflation in _MCL_INFLATIONS:
        start = time.perf_counter()
        try:
            result = mcl_clustering(
                graph, inflation=inflation, max_nnz=mcl_max_nnz, max_iterations=80
            )
        except MemoryError:
            table.add_row(
                algorithm="mcl",
                k=None,
                time_s=time.perf_counter() - start,
                note=f"failed (memory) at inflation={inflation}",
            )
            continue
        table.add_row(
            algorithm="mcl",
            k=result.n_clusters,
            time_s=time.perf_counter() - start,
            note=f"inflation={inflation}",
        )
    return table
