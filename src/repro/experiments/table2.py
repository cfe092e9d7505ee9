"""Table 2: protein-complex prediction on the Krogan network.

The paper's predictive experiment (Section 5.2): cluster the Krogan
graph with depth-limited mcp/acp (d in {2, 3, 4, 6, 8}, k = 547 to
match the published mcl clustering) and score each clustering's
co-cluster pairs against the MIPS complex ground truth (TPR / FPR),
alongside mcl and kpt.

Our stand-in uses the Krogan-like generator's *planted* complexes as
ground truth (same measurement protocol, known truth).  Expected shape:
small d ≈ mcl's operating point; growing d trades FPR for TPR; acp's
FPR degrades faster than mcp's; kpt has by far the lowest TPR.
"""

from __future__ import annotations

import time

from repro.baselines.kpt import kpt_clustering
from repro.baselines.mcl import mcl_clustering
from repro.core.acp import acp_clustering
from repro.core.mcp import mcp_clustering
from repro.datasets.ppi import krogan_like
from repro.experiments.config import ExperimentScale, get_scale
from repro.metrics.prediction import pair_confusion
from repro.sampling.oracle import MonteCarloOracle
from repro.sampling.sizes import PracticalSchedule
from repro.utils.rng import ensure_rng
from repro.utils.tables import TextTable

PAPER_K = 547  # cardinality of the published Krogan mcl clustering
PAPER_KROGAN_NODES = 2559


def run(scale: str | ExperimentScale = "small", *, seed: int = 0, progress=None) -> TextTable:
    """Run the Table 2 protocol at the requested scale."""
    scale = get_scale(scale)
    rng = ensure_rng(seed)
    dataset = krogan_like(seed=int(rng.integers(2**31)), scale=scale.table2_scale)
    graph = dataset.graph
    n = graph.n_nodes
    # Scale the paper's k=547 with the graph (it was ~21% of the nodes).
    k = max(2, min(n - 1, int(round(PAPER_K * n / PAPER_KROGAN_NODES))))

    def report(message: str) -> None:
        if progress is not None:
            progress(message)

    table = TextTable(
        ["algorithm", "depth", "tpr", "fpr", "time_s"],
        title=(
            f"Table 2 — complex prediction on Krogan-like graph "
            f"(n={n}, k={k}, {len(dataset.complexes)} complexes), scale={scale.name}"
        ),
    )

    schedule = PracticalSchedule(max_samples=scale.table2_samples)
    for depth in scale.table2_depths:
        for algorithm, runner in (("mcp", mcp_clustering), ("acp", acp_clustering)):
            start = time.perf_counter()
            # A shared oracle would also work, but a per-run oracle keeps
            # runs independent, as in the paper's repeated experiments.
            oracle = MonteCarloOracle(
                graph, seed=int(rng.integers(2**31)), chunk_size=64,
                cache_dir=scale.world_cache,
            )
            result = runner(
                None,
                k,
                oracle=oracle,
                depth=depth,
                seed=int(rng.integers(2**31)),
                sample_schedule=schedule,
            )
            confusion = pair_confusion(result.clustering, dataset.complexes)
            elapsed = time.perf_counter() - start
            table.add_row(
                algorithm=algorithm,
                depth=depth,
                tpr=confusion.tpr,
                fpr=confusion.fpr,
                time_s=elapsed,
            )
            report(f"{algorithm} d={depth}: tpr={confusion.tpr:.3f} fpr={confusion.fpr:.3f} ({elapsed:.1f}s)")

    start = time.perf_counter()
    mcl = mcl_clustering(graph, inflation=2.0)
    confusion = pair_confusion(mcl.clustering, dataset.complexes)
    table.add_row(
        algorithm="mcl",
        depth=None,
        tpr=confusion.tpr,
        fpr=confusion.fpr,
        time_s=time.perf_counter() - start,
    )

    start = time.perf_counter()
    kpt = kpt_clustering(graph, seed=int(rng.integers(2**31)))
    confusion = pair_confusion(kpt, dataset.complexes)
    table.add_row(
        algorithm="kpt",
        depth=None,
        tpr=confusion.tpr,
        fpr=confusion.fpr,
        time_s=time.perf_counter() - start,
    )
    return table
