"""Throughput of the world-sampling engine and the world store.

Measures ``ensure_samples`` (mask sampling + labeling) per substrate,
the progressive growth of one pool through mcp's chunk steps
(``ensure_samples/krogan0.4/progressive``), plus the
warm-vs-cold world-store cells (``world_store/<substrate>/{cold,warm}``:
a cold run samples into a fresh disk cache, a warm run serves the same
pool from it), and records each measurement into the durable
``BENCH_sampling.json`` artifact via :mod:`benchmarks.record` — the
file the CI perf gate diffs against the committed baseline.

Substrates:

* ``dblp1200`` — a dblp-like collaboration graph at tiny scale;
* ``sparse1500`` — the subcritical synthetic substrate of
  ``test_bench_backends.py``, for continuity with the PR-1 numbers.

The progressive cell runs on ``krogan_like(0.4)``, the graph of the
``cold-cluster`` perfbench workload, and grows its pool in the five
chunks cold mcp draws there, so it sees what each chunk costs beyond
its worlds; the other cells draw one 512-world chunk.

Sampling is serial and there is one labeler, but the ``ensure_samples``
cells keep their ``/unionfind/workers=1`` suffix so ``compare.py``
pairs them with the committed baseline cells of the same name.
"""

import shutil

import numpy as np
import pytest

from benchmarks.record import record_pytest_benchmark
from repro.datasets import dblp_like, krogan_like
from repro.datasets.synthetic import gnm_uncertain
from repro.sampling import MonteCarloOracle

R = 512  # worlds per measured ensure_samples call
#: Pool sizes cold mcp (k = 3 or 5) grows through on krogan_like(0.4).
PROGRESSIVE_STEPS = (50, 56, 63, 84, 251)


def _substrate(name):
    if name == "dblp1200":
        return dblp_like(1200, seed=0)
    if name == "sparse1500":
        return gnm_uncertain(1500, 3000, seed=7, prob_low=0.05, prob_high=0.35)
    raise ValueError(name)


@pytest.fixture(scope="module", params=["dblp1200", "sparse1500"])
def substrate(request):
    return request.param, _substrate(request.param)


def test_ensure_samples_throughput(benchmark, substrate):
    substrate_name, graph = substrate

    def run():
        oracle = MonteCarloOracle(graph, seed=1, chunk_size=R)
        oracle.ensure_samples(R)
        return oracle.num_samples

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    record_pytest_benchmark(
        "sampling",
        f"ensure_samples/{substrate_name}/unionfind/workers=1",
        benchmark,
        items=R,
        meta={
            "workers": 1,
            "substrate": substrate_name,
            "r": R,
            "nodes": graph.n_nodes,
            "edges": graph.n_edges,
        },
    )


def test_ensure_samples_progressive(benchmark):
    graph = krogan_like(seed=0, scale=0.4).graph

    def run():
        oracle = MonteCarloOracle(graph, seed=1, chunk_size=R)
        for r in PROGRESSIVE_STEPS:
            oracle.ensure_samples(r)
        return oracle.phase_timings["chunks"]

    chunks = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    assert chunks == len(PROGRESSIVE_STEPS)
    record_pytest_benchmark(
        "sampling",
        "ensure_samples/krogan0.4/progressive",
        benchmark,
        items=PROGRESSIVE_STEPS[-1],
        meta={
            "substrate": "krogan0.4",
            "steps": list(PROGRESSIVE_STEPS),
            "nodes": graph.n_nodes,
            "edges": graph.n_edges,
        },
    )


@pytest.mark.parametrize("phase", ["cold", "warm"])
def test_world_store_warm_vs_cold(benchmark, substrate, phase, tmp_path_factory):
    """Warm-vs-cold cache cells: the acceptance numbers of the world store.

    ``cold`` draws R worlds into a fresh disk cache (sampling + packing
    + spill); ``warm`` re-opens the same cache in a fresh oracle and
    serves the identical pool without sampling a single mask.
    """
    substrate_name, graph = substrate
    cache = tmp_path_factory.mktemp(f"worldcache-{substrate_name}-{phase}")

    def reset_cache():
        shutil.rmtree(cache, ignore_errors=True)

    def run():
        with MonteCarloOracle(
            graph, seed=1, chunk_size=R, cache_dir=cache
        ) as oracle:
            oracle.ensure_samples(R)
            return oracle.cache_stats

    if phase == "cold":
        stats = benchmark.pedantic(
            run, setup=reset_cache, rounds=3, iterations=1, warmup_rounds=0
        )
        assert stats == {"worlds_cached": 0, "worlds_sampled": R}
    else:
        run()  # populate once; every measured round is then fully warm
        stats = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
        assert stats == {"worlds_cached": R, "worlds_sampled": 0}
    record_pytest_benchmark(
        "sampling",
        f"world_store/{substrate_name}/{phase}",
        benchmark,
        items=R,
        meta={
            "phase": phase,
            "substrate": substrate_name,
            "r": R,
            "nodes": graph.n_nodes,
            "edges": graph.n_edges,
        },
    )


def test_world_store_warm_pool_bit_identical(substrate, tmp_path):
    """The equivalence the warm cells ride on: cached == freshly drawn."""
    substrate_name, graph = substrate
    with MonteCarloOracle(graph, seed=1, chunk_size=R, cache_dir=tmp_path) as cold:
        cold.ensure_samples(R)
        cold_labels = cold.component_labels
    with MonteCarloOracle(graph, seed=1, chunk_size=R, cache_dir=tmp_path) as warm:
        warm.ensure_samples(R)
        assert warm.cache_stats["worlds_sampled"] == 0
        assert np.array_equal(warm.component_labels, cold_labels)

