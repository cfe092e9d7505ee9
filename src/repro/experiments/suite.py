"""The shared quality suite behind Figures 1, 2 and 3.

The paper's protocol (Section 5.1): for every graph, run ``mcl`` at a
few inflation values; the number of clusters it returns becomes the
target ``k`` for the algorithms that *can* control granularity (gmm,
mcp, acp).  Every clustering is then scored under the same
Monte Carlo evaluation oracle on four metrics — pmin, pavg, inner-AVPR,
outer-AVPR — and wall-clock time is recorded.

Running this suite once yields all the data for Figures 1 (pmin/pavg),
2 (AVPR) and 3 (time); the exhibit modules just slice different columns.

Sampling is shared two ways: per graph, one progressive Monte Carlo
pool serves every mcp and acp call (all inflations) instead of each
call resampling from scratch, and — when the scale preset sets
``world_cache`` — every oracle attaches a shared disk-backed
:class:`repro.sampling.store.WorldStore` so repeated suite runs reuse
their pools across processes.

A consequence for the Figure 3 exhibit: an mcp/acp record's ``time_ms``
is the call's *incremental* cost on the shared pool — the first call
that needs ``r`` worlds pays for drawing them, later calls reuse them
(matching how a practitioner would amortize sampling across queries).
mcl/gmm rows still pay their full per-call cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines.gmm import gmm_clustering
from repro.baselines.mcl import mcl_clustering
from repro.core.acp import acp_clustering
from repro.core.mcp import mcp_clustering
from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.experiments.config import ExperimentScale, get_scale
from repro.metrics.quality import (
    avg_connection_probability,
    avpr,
    min_connection_probability,
)
from repro.sampling.oracle import MonteCarloOracle
from repro.sampling.sizes import PracticalSchedule
from repro.sampling.store import WorldStore
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class QualityRecord:
    """Metrics of one (graph, k, algorithm) cell.

    ``time_ms`` is wall-clock for the call; for mcp/acp this is the
    incremental cost on the graph's shared progressive pool (see the
    module docstring), for mcl/gmm the full standalone cost.
    """

    graph: str
    k: int
    algorithm: str
    pmin: float
    pavg: float
    inner_avpr: float
    outer_avpr: float
    time_ms: float
    note: str = ""


@dataclass
class QualitySuiteResult:
    """All records of one suite run plus the graph statistics (Table 1)."""

    scale_name: str
    records: list[QualityRecord] = field(default_factory=list)
    graph_stats: list[dict] = field(default_factory=list)

    def for_graph(self, graph: str) -> list[QualityRecord]:
        return [r for r in self.records if r.graph == graph]


_ALGORITHM_ORDER = ("gmm", "mcl", "mcp", "acp")


def _score(clustering, oracle, seconds: float, graph: str, k: int, algorithm: str, note: str = "") -> QualityRecord:
    inner, outer = avpr(clustering, oracle)
    return QualityRecord(
        graph=graph,
        k=k,
        algorithm=algorithm,
        pmin=min_connection_probability(clustering, oracle),
        pavg=avg_connection_probability(clustering, oracle),
        inner_avpr=inner,
        outer_avpr=outer,
        time_ms=seconds * 1000.0,
        note=note,
    )


def run_quality_suite(
    scale: str | ExperimentScale = "small",
    *,
    seed: int = 0,
    datasets: tuple[str, ...] = DATASET_NAMES,
    progress=None,
) -> QualitySuiteResult:
    """Run the full Figure 1/2/3 protocol.

    Parameters
    ----------
    scale:
        Preset name or :class:`ExperimentScale`.
    seed:
        Master seed; datasets, algorithms and evaluation oracles derive
        their own streams from it.
    datasets:
        Subset of dataset names to run.
    progress:
        Optional callable receiving human-readable progress strings.
    """
    scale = get_scale(scale)
    rng = ensure_rng(seed)
    result = QualitySuiteResult(scale_name=scale.name)
    # One shared store for every oracle the suite builds: with a cache
    # directory configured, repeated runs (same master seed) reuse their
    # sampled pools across processes instead of redrawing them.
    store = WorldStore(scale.world_cache) if scale.world_cache else None

    def report(message: str) -> None:
        if progress is not None:
            progress(message)

    for name in datasets:
        graph_seed = int(rng.integers(2**31))
        graph, _complexes = load_dataset(
            name,
            seed=graph_seed,
            scale=scale.ppi_scale if name != "dblp" else 1.0,
            dblp_authors=scale.dblp_authors,
        )
        result.graph_stats.append(
            {"graph": name, "nodes": graph.n_nodes, "edges": graph.n_edges}
        )
        report(f"[{name}] n={graph.n_nodes} m={graph.n_edges}")

        eval_oracle = MonteCarloOracle(
            graph, seed=int(rng.integers(2**31)), chunk_size=64,
            store=store,
        )
        eval_oracle.ensure_samples(scale.metric_samples)

        # One progressive pool per graph, shared by every mcp and acp
        # call below (all inflations): the pool only ever grows to the
        # largest schedule request instead of being resampled per call.
        algo_oracle = MonteCarloOracle(
            graph, seed=int(rng.integers(2**31)), chunk_size=128,
            store=store,
        )
        inflations = (
            scale.mcl_inflations_dblp if name == "dblp"
            else scale.mcl_inflations_ppi
        )
        schedule = PracticalSchedule(max_samples=scale.max_algo_samples)
        _run_graph_cells(
            result, report, graph, name, inflations, schedule, scale,
            eval_oracle, algo_oracle, rng,
        )

    result.records.sort(key=_record_order)
    return result


def _run_graph_cells(
    result, report, graph, name, inflations, schedule, scale, eval_oracle, algo_oracle, rng
) -> None:
    """All (inflation x algorithm) cells of one graph."""
    for inflation in inflations:
        start = time.perf_counter()
        try:
            mcl_result = mcl_clustering(graph, inflation=inflation, max_iterations=80)
        except MemoryError as error:
            result.records.append(
                QualityRecord(
                    graph=name,
                    k=-1,
                    algorithm="mcl",
                    pmin=float("nan"),
                    pavg=float("nan"),
                    inner_avpr=float("nan"),
                    outer_avpr=float("nan"),
                    time_ms=(time.perf_counter() - start) * 1000.0,
                    note=f"failed: {error}",
                )
            )
            report(f"[{name}] mcl inflation={inflation} FAILED (memory)")
            continue
        mcl_seconds = time.perf_counter() - start
        k = mcl_result.n_clusters
        if not 1 <= k < graph.n_nodes:
            k = max(2, min(graph.n_nodes - 1, k))
        report(f"[{name}] inflation={inflation} -> k={k}")
        result.records.append(
            _score(mcl_result.clustering, eval_oracle, mcl_seconds, name, k, "mcl")
        )

        start = time.perf_counter()
        gmm = gmm_clustering(graph, k, seed=int(rng.integers(2**31)))
        result.records.append(
            _score(gmm, eval_oracle, time.perf_counter() - start, name, k, "gmm")
        )

        start = time.perf_counter()
        mcp = mcp_clustering(
            graph,
            k,
            oracle=algo_oracle,
            seed=int(rng.integers(2**31)),
            sample_schedule=schedule,
        )
        note = "" if mcp.covers_all else "partial at p_lower"
        result.records.append(
            _score(
                mcp.clustering, eval_oracle, time.perf_counter() - start, name, k, "mcp", note
            )
        )

        start = time.perf_counter()
        acp = acp_clustering(
            graph,
            k,
            oracle=algo_oracle,
            seed=int(rng.integers(2**31)),
            sample_schedule=schedule,
        )
        result.records.append(
            _score(
                acp.clustering, eval_oracle, time.perf_counter() - start, name, k, "acp"
            )
        )
        report(f"[{name}] k={k} done")


def _record_order(record: QualityRecord) -> tuple:
    graph_pos = DATASET_NAMES.index(record.graph) if record.graph in DATASET_NAMES else 99
    algorithm_pos = (
        _ALGORITHM_ORDER.index(record.algorithm)
        if record.algorithm in _ALGORITHM_ORDER
        else 99
    )
    return (graph_pos, record.k, algorithm_pos)
