"""Workload-suite benchmarks (``BENCH_workloads.json``).

Wall-clock cells for the k-median / k-center / expected-centrality
query families over the shared world pool, recorded into the durable
``BENCH_workloads.json`` artifact via :mod:`benchmarks.record`; CI
diffs it against the committed baseline with ``compare.py
--fail-over 2.0`` like the sampling and delta suites.

Cells (per substrate):

* ``kmedian/<substrate>/cold`` — sample a fresh pool, build the
  expected-distance matrix, greedy seed + Lloyd refine;
* ``kmedian/<substrate>/warm`` — same query against the already-warm
  store: zero resampling, the matrix build dominates;
* ``kcenter/<substrate>/warm`` — farthest-point traversal over the
  warm pool;
* ``centrality/<substrate>/{degree,harmonic}`` — expected centrality
  over the warm pool (degree is a sparse matmul; harmonic runs the
  packed multi-source BFS);
* ``centrality/tiny60/betweenness`` — per-world Brandes is the one
  pure-Python kernel, so it gets its own small substrate;
* ``bfs/dblp300/all_sources`` — the packed multi-source BFS kernel
  itself (:func:`~repro.sampling.worlds.packed_bfs_counts`, every
  source, one 256-world block), which every query above but degree
  and betweenness runs;
* ``bfs/dblp300/one_source_depth3`` — the kernel's other shape: a
  batch of single-source depth-3 connection rows on a warm oracle.

Warm and cold runs of the same query must be bit-identical — the bench
asserts it, so the perf artifact doubles as a determinism regression.
"""

import time

import numpy as np
import pytest

from benchmarks.record import record_benchmark
from repro import MonteCarloOracle
from repro.datasets import dblp_like
from repro.datasets.synthetic import gnm_uncertain
from repro.sampling import WorldStore
from repro.sampling.store import pack_mask_columns
from repro.sampling.worlds import packed_bfs_counts, sample_edge_masks
from repro.workloads import (
    expected_centrality,
    kcenter_clustering,
    kmedian_clustering,
)

R = 256          # pool size under measurement
K = 4            # clusters
SEED = 3
CHUNK = 128
TINY_R = 128     # betweenness budget on its dedicated substrate
ROW_CALLS = 200  # depth-3 connection rows per timed round (>= 50 ms)
KERNEL_ROUNDS = 5  # the kernel cells are short, so a busy host moves them most


def _substrate(name):
    if name == "dblp300":
        return dblp_like(300, seed=0)
    if name == "sparse200":
        return gnm_uncertain(200, 400, seed=7, prob_low=0.05, prob_high=0.35)
    if name == "tiny60":
        return gnm_uncertain(60, 120, seed=7, prob_low=0.1, prob_high=0.6)
    raise ValueError(name)


def _best_of(callable_, rounds=3):
    times = []
    for _ in range(rounds):
        begin = time.perf_counter()
        callable_()
        times.append(time.perf_counter() - begin)
    return min(times)


def _meta(name, graph, **extra):
    return {"substrate": name, "r": R,
            "nodes": graph.n_nodes, "edges": graph.n_edges, **extra}


@pytest.fixture(scope="module", params=["dblp300", "sparse200"])
def substrate(request):
    return request.param, _substrate(request.param)


def test_kclustering_cold_vs_warm(substrate):
    """Cold (sample + solve) and warm (solve only) k-median, plus warm
    k-center, all bit-identical across the store boundary."""
    name, graph = substrate
    kwargs = dict(seed=SEED, samples=R, chunk_size=CHUNK)

    cold_results = []

    def cold_run():
        cold_results.append(kmedian_clustering(graph, K, store=WorldStore(), **kwargs))

    cold_seconds = _best_of(cold_run)

    store = WorldStore()
    kmedian_clustering(graph, K, store=store, **kwargs)  # warm the pool
    warm_results = []

    def warm_run():
        warm_results.append(kmedian_clustering(graph, K, store=store, **kwargs))

    warm_seconds = _best_of(warm_run)

    kcenter_results = []

    def kcenter_run():
        kcenter_results.append(kcenter_clustering(graph, K, store=store, **kwargs))

    kcenter_seconds = _best_of(kcenter_run)

    # Determinism across the store boundary: every round, same bits.
    reference = cold_results[0]
    for result in cold_results + warm_results:
        assert np.array_equal(
            result.clustering.assignment, reference.clustering.assignment
        )
        assert result.objective == reference.objective

    record_benchmark("workloads", f"kmedian/{name}/cold", seconds=cold_seconds,
                     items=R, meta=_meta(name, graph, k=K, phase="cold"))
    record_benchmark("workloads", f"kmedian/{name}/warm", seconds=warm_seconds,
                     items=R, meta=_meta(name, graph, k=K, phase="warm"))
    record_benchmark("workloads", f"kcenter/{name}/warm", seconds=kcenter_seconds,
                     items=R, meta=_meta(name, graph, k=K, phase="warm"))
    # Warm can never be slower than cold by more than noise: it does
    # strictly less work (no sampling, no labeling).
    assert warm_seconds <= cold_seconds * 1.5


@pytest.mark.parametrize("measure", ["degree", "harmonic"])
def test_centrality_throughput(substrate, measure):
    name, graph = substrate
    store = WorldStore()
    kwargs = dict(seed=SEED, samples=R, chunk_size=CHUNK,
                  store=store, tol=1e-12)
    expected_centrality(graph, measure=measure, **kwargs)  # warm the pool

    results = []

    def run():
        results.append(expected_centrality(graph, measure=measure, **kwargs))

    seconds = _best_of(run)
    for result in results:
        assert np.array_equal(result.values, results[0].values)
        assert result.samples_used >= R
    record_benchmark("workloads", f"centrality/{name}/{measure}", seconds=seconds,
                     items=R, meta=_meta(name, graph, measure=measure))


def test_betweenness_on_tiny_substrate():
    """Brandes is the only pure-Python per-world kernel: bench it on a
    dedicated 60-node substrate so the cell stays in seconds."""
    graph = _substrate("tiny60")
    store = WorldStore()
    kwargs = dict(seed=SEED, samples=TINY_R, chunk_size=CHUNK,
                  store=store, tol=1e-12)
    expected_centrality(graph, measure="betweenness", **kwargs)

    results = []

    def run():
        results.append(expected_centrality(graph, measure="betweenness", **kwargs))

    seconds = _best_of(run, rounds=2)
    assert np.array_equal(results[0].values, results[1].values)
    record_benchmark(
        "workloads", "centrality/tiny60/betweenness", seconds=seconds,
        items=TINY_R,
        meta={"substrate": "tiny60", "r": TINY_R,
              "nodes": graph.n_nodes, "edges": graph.n_edges,
              "measure": "betweenness"},
    )


def test_packed_bfs_kernel():
    """The packed BFS kernel in its two shapes: all sources at once, and
    many single-source depth-limited rows."""
    graph = _substrate("dblp300")
    n = graph.n_nodes
    masks = sample_edge_masks(graph.edge_prob, R, rng=SEED)
    cols = pack_mask_columns(masks)
    sources = np.arange(n)
    results = []

    def all_sources():
        results.append(packed_bfs_counts(graph, cols, R, sources))

    seconds = _best_of(all_sources, rounds=KERNEL_ROUNDS)
    for reached, hops in results:
        assert np.array_equal(reached, results[0][0]) and np.array_equal(hops, results[0][1])
    record_benchmark("workloads", "bfs/dblp300/all_sources", seconds=seconds,
                     items=n, meta=_meta("dblp300", graph, sources=n))

    oracle = MonteCarloOracle(graph, seed=SEED, chunk_size=CHUNK)
    oracle.ensure_samples(R)
    rows = []

    def one_source_rows():
        rows.append([oracle.connection_to_all(call % n, depth=3) for call in range(ROW_CALLS)])

    seconds = _best_of(one_source_rows, rounds=KERNEL_ROUNDS)
    assert all(np.array_equal(np.stack(batch), np.stack(rows[0])) for batch in rows)
    record_benchmark("workloads", "bfs/dblp300/one_source_depth3", seconds=seconds,
                     items=ROW_CALLS, meta=_meta("dblp300", graph, depth=3))
