"""Warm-after-mutation clustering vs cold resample (``BENCH_deltas.json``).

The acceptance numbers of the delta-aware world-invalidation refactor:
after a single-edge probability update, re-clustering through pool
derivation (:func:`repro.sampling.deltas.derive_pool` — resample one
column, repair the flipped worlds, reuse everything else) had to beat
cold-resampling the mutated graph by >= 5x at this tiny scale while
cold sampling built each edge's stream in Python.  With the vectorized
sampler and the cache-resident labeler the committed baseline documents
3.7x (dblp600) and 5.5x (sparse800); the in-test assert uses the
noise-tolerant :data:`MIN_WARM_SPEEDUP` floor.

Cells (per substrate):

* ``deltas/<substrate>/cold`` — mutate one edge, then cluster the
  mutated graph against an empty store (full resample + relabel);
* ``deltas/<substrate>/warm`` — same mutation, but the parent pool is
  in the store and the lease derives from it (ancestor-aware
  :class:`~repro.service.cache.OracleCache`, the service's PATCH path);
* ``deltas/<substrate>/derive`` — the derivation step alone.

Recorded into the durable ``BENCH_deltas.json`` artifact via
:mod:`benchmarks.record`; CI diffs it against the committed baseline
with ``compare.py --fail-over`` like the sampling suite.
"""

import numpy as np
import pytest

from repro.core.mcp import mcp_clustering
from repro.datasets import dblp_like
from repro.datasets.synthetic import gnm_uncertain
from repro.sampling import MonteCarloOracle, WorldStore, derive_pool
from repro.sampling.sizes import PracticalSchedule

R = 512          # pool size under measurement
K = 4            # clusters
SEED = 1
CHUNK = 512

#: The in-test regression floor.  The committed
#: ``baselines/BENCH_deltas.json`` documents the measured ratio (3.7x /
#: 5.5x on the recording box; the original 5x acceptance held while
#: sampling was scalar); the live assert uses a lower floor so CI runner
#: noise (CPU steal, cold caches) cannot flake the build while a real
#: regression — warm degrading toward cold — still fails.
MIN_WARM_SPEEDUP = 3.0


def _substrate(name):
    if name == "dblp600":
        return dblp_like(600, seed=0)
    if name == "sparse800":
        return gnm_uncertain(800, 1600, seed=7, prob_low=0.05, prob_high=0.35)
    raise ValueError(name)


@pytest.fixture(scope="module", params=["dblp600", "sparse800"])
def substrate(request):
    graph = _substrate(request.param)
    # One deterministic single-edge mutation: bump the middle edge's
    # probability by 0.05 (flips ~5% of that column's worlds).
    u, v, p = graph.edge_list()[graph.n_edges // 2]
    mutated, _delta = graph.update_edge(u, v, min(1.0, p + 0.05))
    return request.param, graph, mutated


def _cluster(graph, store):
    result = mcp_clustering(
        graph, K, seed=SEED, chunk_size=CHUNK,
        sample_schedule=PracticalSchedule(max_samples=R), store=store,
    )
    return result.clustering.assignment


def _meta(name, graph):
    return {"substrate": name, "r": R, "k": K,
            "nodes": graph.n_nodes, "edges": graph.n_edges}


def test_warm_after_mutation_vs_cold(benchmark_records, substrate):
    """Measures all three cells and pins the warm/cold speedup floor.

    One test measures every phase so the speedup assertion compares
    numbers from the same process and the same substrate state.  The
    phases alternate round by round (best of 3 each), so a load spike
    on a shared host lands on both sides instead of on one window.
    """
    name, graph, mutated = substrate

    import time

    def timed(callable_):
        begin = time.perf_counter()
        callable_()
        return time.perf_counter() - begin

    # --- cold: cluster the mutated graph from nothing -----------------
    cold_assignments = []

    def cold_run():
        store = WorldStore()
        cold_assignments.append(_cluster(mutated, store))

    # --- derive + warm: parent pool in store, lease derives -----------
    parent_store = WorldStore()
    with MonteCarloOracle(
        graph, seed=SEED, chunk_size=CHUNK, store=parent_store
    ) as oracle:
        oracle.ensure_samples(R)

    def derive_run():
        # A fresh child store view is impossible (derivation registers
        # under the child digest in the same store), so derive into a
        # scratch store seeded with the parent pool each round.
        scratch = WorldStore()
        packed, labels = parent_store.read(
            parent_store.register(graph, SEED), 0, R
        )
        scratch.append(scratch.register(graph, SEED), 0, packed, labels)
        result = derive_pool(scratch, graph, mutated, seed=SEED)
        assert result is not None and result.complete
        assert result.columns_resampled == 1
        assert result.worlds_derived == R
        return scratch

    warm_assignments = []
    warm_sampled = []

    # warm = derivation + warm clustering, measured end to end the way
    # a PATCH-then-cluster request experiences it.
    def warm_end_to_end():
        scratch = derive_run()
        warm_oracle = MonteCarloOracle(
            mutated, seed=SEED, chunk_size=CHUNK, store=scratch
        )
        result = mcp_clustering(
            mutated, K, seed=SEED, oracle=warm_oracle,
            sample_schedule=PracticalSchedule(max_samples=R),
        )
        warm_assignments.append(result.clustering.assignment)
        warm_sampled.append(warm_oracle.cache_stats["worlds_sampled"])

    cold_times, derive_times, warm_times = [], [], []
    for _ in range(3):
        cold_times.append(timed(cold_run))
        derive_times.append(timed(derive_run))
        warm_times.append(timed(warm_end_to_end))
    cold_seconds = min(cold_times)
    derive_seconds = min(derive_times)
    warm_seconds = min(warm_times)

    # Exact counts: the warm side resampled nothing.
    assert warm_sampled == [0, 0, 0]
    # Determinism: warm and cold clusterings are bit-identical.
    for warm in warm_assignments:
        assert np.array_equal(warm, cold_assignments[0])

    benchmark_records(
        ("cold", cold_seconds), ("warm", warm_seconds), ("derive", derive_seconds),
        substrate=name, graph=mutated,
    )
    speedup = cold_seconds / warm_seconds
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm-after-mutation clustering is only {speedup:.1f}x faster than "
        f"cold (cold {cold_seconds * 1000:.1f}ms, warm {warm_seconds * 1000:.1f}ms); "
        f"the regression floor is {MIN_WARM_SPEEDUP}x (acceptance: 5x, see baseline)"
    )


@pytest.fixture
def benchmark_records():
    def record(*cells, substrate, graph):
        from benchmarks.record import record_benchmark

        for phase, seconds in cells:
            record_benchmark(
                "deltas",
                f"deltas/{substrate}/{phase}",
                seconds=seconds,
                items=R,
                meta=_meta(substrate, graph) | {"phase": phase},
            )

    return record


def test_derivation_chain_matches_cold_pool(substrate):
    """The equivalence the bench rides on, at bench scale: the derived
    pool's labels equal the cold pool's bit for bit."""
    name, graph, mutated = substrate
    store = WorldStore()
    with MonteCarloOracle(
        graph, seed=SEED, chunk_size=CHUNK, store=store
    ) as oracle:
        oracle.ensure_samples(R)
    result = derive_pool(store, graph, mutated, seed=SEED)
    assert result is not None and result.complete and result.worlds_derived == R
    assert result.columns_resampled == 1
    with MonteCarloOracle(
        mutated, seed=SEED, chunk_size=CHUNK, store=store
    ) as warm:
        warm.ensure_samples(R)
        assert warm.cache_stats["worlds_sampled"] == 0
        warm_labels = warm.component_labels
    with MonteCarloOracle(
        mutated, seed=SEED, chunk_size=CHUNK
    ) as cold:
        cold.ensure_samples(R)
        assert np.array_equal(warm_labels, cold.component_labels)
