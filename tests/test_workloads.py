"""Workload suite: k-median / k-center / expected centrality.

Pins the three contracts ISSUE.md cares about:

* **Statistical correctness** — Monte Carlo estimates converge to the
  exact-enumeration values on a grid of tiny graphs (n <= 8, m <= 10),
  swept across seeds ``REPRO_TEST_SEED .. REPRO_TEST_SEED + 3``.  The
  centrality checks are self-calibrating: the estimator's own 95%
  half-width bounds the allowed error (at 4 sigma), so the tolerance
  tightens automatically as budgets grow.
* **Determinism** — every workload is a pure function of the seed:
  bit-identical across none/memory/disk stores, cold or warmed at
  another chunk size.
* **Pool sharing** — a pool warmed by *any* consumer (MCP or another
  workload) serves every workload with **zero** new ``sample_chunk``
  calls; the sampler spy pins it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mcp import mcp_clustering
from repro.exceptions import ClusteringError, OracleError
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling import ExactOracle, MonteCarloOracle
from repro.sampling.parallel import ParallelSampler
from repro.sampling.store import WorldStore
from repro.workloads import (
    MEASURE_NAMES,
    exact_best_clustering,
    exact_clustering_objective,
    exact_expected_centrality,
    exact_expected_distances,
    expected_centrality,
    kcenter_clustering,
    kmedian_clustering,
    world_betweenness,
    world_degrees,
    world_harmonic,
)
from tests.conftest import random_graph, sweep_seeds

SEEDS = sweep_seeds(4)

#: Tiny-graph grid for exact-enumeration comparisons (n <= 8, m <= 10).
TINY_GRAPHS = {
    "path4": UncertainGraph.from_edges([(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.8)]),
    "triangles": UncertainGraph.from_edges(
        [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.8),
         (3, 4, 0.85), (4, 5, 0.85), (3, 5, 0.75), (2, 3, 0.05)]
    ),
    "star5": UncertainGraph.from_edges(
        [(0, 1, 0.6), (0, 2, 0.7), (0, 3, 0.8), (0, 4, 0.9)]
    ),
    "cycle6": UncertainGraph.from_edges(
        [(i, (i + 1) % 6, 0.7) for i in range(6)]
    ),
    "diamond8": UncertainGraph.from_edges(
        [(0, 1, 0.9), (0, 2, 0.9), (1, 3, 0.9), (2, 3, 0.9),
         (3, 4, 0.4), (4, 5, 0.8), (5, 6, 0.8), (6, 7, 0.8)]
    ),
}

TINY_IDS = sorted(TINY_GRAPHS)


def tiny(name: str) -> UncertainGraph:
    graph = TINY_GRAPHS[name]
    assert graph.n_nodes <= 8 and graph.n_edges <= 10
    return graph


# ---------------------------------------------------------------------------
# Per-world measure kernels
# ---------------------------------------------------------------------------


class TestMeasureKernels:
    def test_degree_matches_mask_rows(self):
        graph = tiny("path4")
        masks = np.array(
            [[True, True, True], [True, False, True], [False, False, False]]
        )
        values = world_degrees(graph, masks)
        assert values.tolist() == [
            [1.0, 2.0, 2.0, 1.0],
            [1.0, 1.0, 1.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
        ]

    def test_harmonic_full_path(self):
        graph = tiny("path4")
        masks = np.ones((1, 3), dtype=bool)
        values = world_harmonic(graph, masks)
        # Node 0 reaches 1, 2, 3 at distances 1, 2, 3: (1 + 1/2 + 1/3) / 3.
        assert values[0, 0] == pytest.approx((1 + 0.5 + 1 / 3) / 3)
        assert values[0, 1] == pytest.approx((1 + 1 + 0.5) / 3)

    def test_betweenness_full_path(self):
        graph = tiny("path4")
        values = world_betweenness(graph, np.ones((1, 3), dtype=bool))
        # Interior nodes each sit on 2 shortest paths: (0,2)/(0,3) for
        # node 1, (0,3)/(1,3) for node 2.
        assert values.tolist() == [[0.0, 2.0, 2.0, 0.0]]

    def test_betweenness_splits_equal_paths(self):
        # 4-cycle 0-1-3-2-0: every opposite pair ((0,3) and (1,2)) has
        # two equal shortest paths, so sigma splits 1/2 per midpoint.
        graph = UncertainGraph.from_edges(
            [(0, 1, 0.5), (0, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)]
        )
        values = world_betweenness(graph, np.ones((1, 4), dtype=bool))
        assert values.tolist() == [[0.5, 0.5, 0.5, 0.5]]

    def test_kernels_reject_bad_mask_shape(self):
        graph = tiny("path4")
        for kernel in (world_degrees, world_harmonic, world_betweenness):
            with pytest.raises(ValueError):
                kernel(graph, np.ones((2, 5), dtype=bool))


# ---------------------------------------------------------------------------
# Exact enumeration references
# ---------------------------------------------------------------------------


class TestExactReferences:
    @pytest.mark.parametrize("name", TINY_IDS)
    def test_expected_distances_are_metric_like(self, name):
        graph = tiny(name)
        n = graph.n_nodes
        matrix = exact_expected_distances(graph)
        assert matrix.shape == (n, n)
        assert np.array_equal(matrix, matrix.T)
        assert np.array_equal(np.diag(matrix), np.zeros(n))
        off_diag = matrix[~np.eye(n, dtype=bool)]
        assert (off_diag > 0).all() and (off_diag <= n).all()

    @pytest.mark.parametrize("name", TINY_IDS)
    def test_matches_exact_oracle(self, name):
        graph = tiny(name)
        assert np.array_equal(
            exact_expected_distances(graph), ExactOracle(graph).expected_distances()
        )

    def test_expected_degree_is_sum_of_incident_probabilities(self):
        # Analytic pin: E[deg(v)] = sum of p_e over incident edges.
        for name in TINY_IDS:
            graph = tiny(name)
            expected = np.zeros(graph.n_nodes)
            for u, v, p in zip(graph.edge_src, graph.edge_dst, graph.edge_prob):
                expected[u] += p
                expected[v] += p
            values = exact_expected_centrality(graph, "degree")
            np.testing.assert_allclose(values, expected, atol=1e-12)

    def test_best_clustering_beats_every_other_center_set(self):
        graph = tiny("triangles")
        for kind in ("kmedian", "kcenter"):
            centers, best = exact_best_clustering(graph, 2, kind=kind)
            assert len(set(centers)) == 2
            for other in [(0, 3), (1, 4), (2, 5), (0, 5)]:
                assert best <= exact_clustering_objective(
                    graph, list(other), kind=kind
                ) + 1e-12

    def test_objective_validation(self):
        graph = tiny("path4")
        with pytest.raises(ClusteringError):
            exact_clustering_objective(graph, [0, 1], kind="kmeans")
        with pytest.raises(ClusteringError):
            exact_clustering_objective(graph, [0, 0], kind="kmedian")
        with pytest.raises(ClusteringError):
            exact_clustering_objective(graph, [0, 4], kind="kmedian")
        with pytest.raises(OracleError):
            exact_expected_distances(graph, max_uncertain_edges=2)


# ---------------------------------------------------------------------------
# Monte Carlo vs exact enumeration (statistical tolerance)
# ---------------------------------------------------------------------------


class TestStatisticalTolerance:
    """MC estimates vs ground truth on the tiny grid, seeds swept."""

    SAMPLES = 2000

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", TINY_IDS)
    def test_expected_distances_converge(self, name, seed):
        graph = tiny(name)
        exact = exact_expected_distances(graph)
        with MonteCarloOracle(graph, seed=seed, chunk_size=512) as oracle:
            oracle.ensure_samples(self.SAMPLES)
            estimate = oracle.expected_distances()
        # Per-pair distances live in [0, n]; at 2000 worlds the sample
        # mean of a [0, n]-bounded variable has std <= n/2/sqrt(r) ~ 0.09,
        # so 0.5 is > 5 sigma for every graph in the grid.
        assert np.abs(estimate - exact).max() < 0.5

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("measure", MEASURE_NAMES)
    @pytest.mark.parametrize("name", TINY_IDS)
    def test_centrality_within_own_confidence_bound(self, name, measure, seed):
        graph = tiny(name)
        exact = exact_expected_centrality(graph, measure)
        # tol=1e-9 forces the full budget so half_width reflects the
        # whole pool; the bound then self-calibrates per measure.
        result = expected_centrality(
            graph, measure=measure, seed=seed, samples=self.SAMPLES, tol=1e-9
        )
        assert result.samples_used >= self.SAMPLES
        error = np.abs(result.values - exact).max()
        # half_width is 95% (~2 sigma); 4 sigma leaves ~6e-5 per node.
        bound = max(2 * result.half_width, 1e-9)
        assert error <= bound, f"{name}/{measure}/seed={seed}: {error} > {bound}"

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", TINY_IDS)
    def test_kmedian_centers_near_exact_greedy(self, name, seed):
        graph = tiny(name)
        k = 2
        mc = kmedian_clustering(graph, k, seed=seed, samples=self.SAMPLES)
        reference = kmedian_clustering(graph, k, oracle=ExactOracle(graph))
        mc_true = exact_clustering_objective(
            graph, mc.clustering.centers.tolist(), kind="kmedian"
        )
        ref_true = exact_clustering_objective(
            graph, reference.clustering.centers.tolist(), kind="kmedian"
        )
        # The MC-seeded centers may differ, but their *exact* objective
        # must be within MC noise of the exact-matrix greedy's.
        assert mc_true <= ref_true + 0.5
        # And the MC objective estimate tracks the exact objective of
        # the same centers.
        assert abs(mc.objective - mc_true) < 0.5

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", TINY_IDS)
    def test_kcenter_respects_2_approximation(self, name, seed):
        graph = tiny(name)
        k = 2
        mc = kcenter_clustering(graph, k, seed=seed, samples=self.SAMPLES)
        _, opt = exact_best_clustering(graph, k, kind="kcenter")
        mc_true = exact_clustering_objective(
            graph, mc.clustering.centers.tolist(), kind="kcenter"
        )
        # Gonzalez on the exact metric guarantees <= 2 * opt; MC noise
        # perturbs the traversal, so allow slack on top of the bound.
        assert mc_true <= 2.0 * opt + 0.5
        assert abs(mc.objective - mc_true) < 0.5

    def test_exact_oracle_matches_brute_force_kmedian(self):
        graph = tiny("triangles")
        result = kmedian_clustering(graph, 2, oracle=ExactOracle(graph))
        _, best = exact_best_clustering(graph, 2, kind="kmedian")
        assert result.samples_used == 0
        assert result.objective == pytest.approx(best)


# ---------------------------------------------------------------------------
# Determinism across stores and the chunk size that warmed them
# ---------------------------------------------------------------------------


def _store_for(kind, tmp_path):
    if kind == "none":
        return None
    if kind == "memory":
        return WorldStore()
    return WorldStore(tmp_path / "worlds")


#: (chunk size the store was warmed at, or None for cold; store kind).
CONFIGS = [
    (None, "none"),
    (None, "memory"),
    (None, "disk"),
    (100, "memory"),
    (100, "disk"),
    (512, "disk"),
]


class TestCrossConfigEquivalence:
    """Every (warming, store) combination is bit-identical."""

    SAMPLES = 300

    @pytest.fixture(scope="class")
    def graph(self):
        rng = np.random.default_rng(SEEDS[0] + 100)
        return random_graph(12, 0.3, rng, prob_low=0.2, prob_high=0.95)

    def run_all(self, graph, *, store, seed):
        kwargs = dict(seed=seed, samples=self.SAMPLES, chunk_size=64, store=store)
        km = kmedian_clustering(graph, 3, **kwargs)
        kc = kcenter_clustering(graph, 3, **kwargs)
        ce = expected_centrality(graph, measure="harmonic", tol=1e-9, **kwargs)
        return km, kc, ce

    @pytest.mark.parametrize(
        "warm_chunk,store_kind", CONFIGS,
        ids=[f"{'cold' if c is None else f'warm{c}'}-{k}" for c, k in CONFIGS],
    )
    def test_bit_identical_to_reference(self, graph, warm_chunk, store_kind, tmp_path):
        seed = SEEDS[0]
        ref_km, ref_kc, ref_ce = self.run_all(graph, store=None, seed=seed)
        store = _store_for(store_kind, tmp_path)
        if warm_chunk is not None:
            with MonteCarloOracle(graph, seed=seed, chunk_size=warm_chunk, store=store) as oracle:
                oracle.ensure_samples(self.SAMPLES)
        km, kc, ce = self.run_all(graph, store=store, seed=seed)
        for got, ref in ((km, ref_km), (kc, ref_kc)):
            assert np.array_equal(got.clustering.centers, ref.clustering.centers)
            assert np.array_equal(got.clustering.assignment, ref.clustering.assignment)
            assert got.objective == ref.objective  # bit-identical, no approx
            assert np.array_equal(got.node_costs, ref.node_costs)
            assert got.samples_used == ref.samples_used
        assert np.array_equal(ce.values, ref_ce.values)
        assert ce.half_width == ref_ce.half_width
        assert ce.samples_used == ref_ce.samples_used

    def test_different_seeds_differ(self, graph):
        a = expected_centrality(
            graph, measure="degree", seed=SEEDS[0], samples=200, tol=1e-9
        )
        b = expected_centrality(
            graph, measure="degree", seed=SEEDS[0] + 1000, samples=200, tol=1e-9
        )
        assert not np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# Shared-pool invariant: warm pool => zero resampling
# ---------------------------------------------------------------------------


class TestSharedPool:
    """All workloads consume one pool; warming any consumer warms all."""

    def _spy(self, monkeypatch):
        calls = []
        original = ParallelSampler.sample_chunk

        def spying(self, root, start, count):
            calls.append((start, count))
            return original(self, root, start, count)

        monkeypatch.setattr(ParallelSampler, "sample_chunk", spying)
        return calls

    def test_warm_pool_zero_sample_chunk_calls(self, monkeypatch, tmp_path):
        graph = tiny("triangles")
        store = WorldStore(tmp_path / "worlds")
        kwargs = dict(seed=SEEDS[0], chunk_size=64, store=store)
        # Warm the pool through MCP — a *different* workload family.
        mcp_clustering(graph, 2, **kwargs)
        (pool,) = store.info()
        budget = pool.n_worlds  # whatever MCP sampled is now shared
        assert budget > 0
        calls = self._spy(monkeypatch)
        km = kmedian_clustering(graph, 2, samples=budget, **kwargs)
        kc = kcenter_clustering(graph, 2, samples=budget, **kwargs)
        ce = expected_centrality(graph, measure="degree", samples=budget, tol=1e-9,
                                 **kwargs)
        assert calls == [], "warm-pool workload run resampled worlds"
        assert km.samples_used >= budget and kc.samples_used >= budget
        assert ce.samples_used >= budget

    def test_cold_pool_samples_then_stays_warm_in_memory(self, monkeypatch):
        graph = tiny("triangles")
        store = WorldStore()
        kwargs = dict(seed=SEEDS[0], chunk_size=64, store=store)
        calls = self._spy(monkeypatch)
        kmedian_clustering(graph, 2, samples=128, **kwargs)
        assert len(calls) > 0  # cold run must sample
        calls.clear()
        kcenter_clustering(graph, 2, samples=128, **kwargs)
        expected_centrality(graph, measure="harmonic", samples=128, tol=1e-9, **kwargs)
        assert calls == []


# ---------------------------------------------------------------------------
# API contracts: validation, determinism of records, cancellation
# ---------------------------------------------------------------------------


class TestWorkloadAPI:
    def test_k_validation(self):
        graph = tiny("path4")
        for bad_k in (0, 4, 7):
            with pytest.raises(ClusteringError):
                kmedian_clustering(graph, bad_k, seed=0, samples=10)
            with pytest.raises(ClusteringError):
                kcenter_clustering(graph, bad_k, seed=0, samples=10)

    def test_samples_and_iters_validation(self):
        graph = tiny("path4")
        with pytest.raises(ClusteringError):
            kmedian_clustering(graph, 2, seed=0, samples=0)
        with pytest.raises(ClusteringError):
            kmedian_clustering(graph, 2, seed=0, samples=10, max_iters=-1)

    def test_centrality_validation(self):
        graph = tiny("path4")
        with pytest.raises(ClusteringError):
            expected_centrality(graph, measure="pagerank", seed=0)
        with pytest.raises(ClusteringError):
            expected_centrality(graph, measure="degree", seed=0, tol=0.0)
        with pytest.raises(ClusteringError):
            expected_centrality(graph, measure="degree", seed=0, tol=float("nan"))
        with pytest.raises(ClusteringError):
            expected_centrality(graph, measure="degree", seed=0, samples=0)

    def test_assignment_is_complete_and_consistent(self):
        graph = tiny("triangles")
        for run in (kmedian_clustering, kcenter_clustering):
            result = run(graph, 2, seed=SEEDS[0], samples=200)
            clustering = result.clustering
            assert clustering.assignment.shape == (graph.n_nodes,)
            assert set(clustering.assignment.tolist()) <= {0, 1}
            # Each center belongs to its own cluster.
            for i, center in enumerate(clustering.centers.tolist()):
                assert clustering.assignment[center] == i
            assert result.node_costs.min() == 0.0  # centers cost nothing

    def test_progress_and_history_agree(self):
        graph = tiny("triangles")
        events = []
        result = kmedian_clustering(
            graph, 2, seed=SEEDS[0], samples=200, progress=events.append
        )
        assert len(events) == result.n_rounds
        assert [e["round"] for e in events] == list(range(result.n_rounds))
        assert all(e["phase"] in ("seed", "refine") for e in events)
        ce_events = []
        ce = expected_centrality(
            graph, measure="degree", seed=SEEDS[0], samples=200,
            progress=ce_events.append,
        )
        assert len(ce_events) == ce.n_rounds
        assert ce_events[-1]["converged"] == ce.converged
        assert ce_events[-1]["samples"] == ce.samples_used

    def test_cancel_check_aborts(self):
        graph = tiny("triangles")

        class Abort(RuntimeError):
            pass

        def cancel():
            raise Abort

        with pytest.raises(Abort):
            kmedian_clustering(graph, 2, seed=0, samples=100, cancel_check=cancel)
        with pytest.raises(Abort):
            expected_centrality(graph, seed=0, samples=100, cancel_check=cancel)

    def test_exact_oracle_short_circuits_centrality(self):
        graph = tiny("path4")
        result = expected_centrality(graph, measure="betweenness",
                                     oracle=ExactOracle(graph))
        assert result.samples_used == 0
        assert result.half_width == 0.0
        assert result.converged is True
        assert result.n_rounds == 0
        np.testing.assert_allclose(
            result.values, exact_expected_centrality(graph, "betweenness")
        )

    def test_repeat_run_is_bitwise_identical(self):
        graph = tiny("diamond8")
        a = kcenter_clustering(graph, 3, seed=SEEDS[0], samples=300)
        b = kcenter_clustering(graph, 3, seed=SEEDS[0], samples=300)
        assert np.array_equal(a.clustering.centers, b.clustering.centers)
        assert a.objective == b.objective
        assert a.history == b.history


# ---------------------------------------------------------------------------
# Word-block evaluation: read-ahead never changes a bit of the estimate
# ---------------------------------------------------------------------------


def _per_chunk_reference(oracle, measure, *, samples, tol, progress=None):
    """The estimator folded chunk by chunk over a pool grown to exactly
    each round's size, one kernel call per chunk: the layout the
    word-block evaluation must reproduce bit for bit."""
    from repro.core.schedule import resolve_guess_schedule
    from repro.sampling.sizes import PracticalSchedule
    from repro.workloads.measures import MEASURE_KERNELS

    graph, n = oracle.graph, oracle.graph.n_nodes
    pool_size_for = PracticalSchedule(max_samples=samples)
    count, folded, history = 0, 0, []
    sums, sumsq = np.zeros(n), np.zeros(n)
    for q in resolve_guess_schedule("doubling", 0.5, 1e-4):
        wanted = max(pool_size_for(q), count)
        if wanted > count or count == 0:
            oracle.ensure_samples(wanted)
            while folded < oracle.n_chunks:
                values = MEASURE_KERNELS[measure](graph, oracle.chunk_masks(folded))
                count += values.shape[0]
                sums += values.sum(axis=0)
                sumsq += np.square(values).sum(axis=0)
                folded += 1
        mean = sums / count
        half_width = np.inf
        if count > 1:
            variance = np.maximum(sumsq - count * np.square(mean), 0.0) / (count - 1)
            half_width = float(np.sqrt(variance / count).max() * 1.959963984540054)
        history.append((float(q), count, half_width, half_width <= tol))
        if progress is not None:
            progress(history[-1])
        if half_width <= tol or count >= samples:
            break
    return sums / count, half_width, tuple(history), count


def _history(result):
    return tuple((r.q, r.samples, r.half_width, r.converged) for r in result.history)


class TestWordBlockEvaluation:
    """Distance measures read ahead to the next 64-world word and run one
    packed BFS per block; the moments are still folded per chunk."""

    SEED = 17

    @pytest.fixture(scope="class")
    def graph(self):
        return random_graph(14, 0.3, np.random.default_rng(SEEDS[0] + 7),
                            prob_low=0.2, prob_high=0.9)

    def _warm_store(self, graph, worlds):
        store = WorldStore()
        MonteCarloOracle(graph, seed=self.SEED, store=store).ensure_samples(worlds)
        return store

    def _assert_same(self, result, reference):
        values, half_width, history, samples_used = reference
        assert np.array_equal(result.values, values)
        assert result.half_width == half_width
        assert _history(result) == history
        assert result.samples_used == samples_used

    @pytest.mark.parametrize("samples", [64, 200, 256])
    @pytest.mark.parametrize("chunk_size", [1, 7, 50, 64, 128, 512])
    @pytest.mark.parametrize("mode", ["warm", "partial", "cold", "pregrown"])
    def test_bit_identical_to_per_chunk_fold(self, graph, mode, chunk_size, samples):
        stored = {"warm": 300, "partial": 100, "pregrown": 300}.get(mode)
        store = None if stored is None else self._warm_store(graph, stored)

        def oracle():
            built = MonteCarloOracle(graph, seed=self.SEED, chunk_size=chunk_size, store=store)
            if mode == "pregrown":
                built.ensure_samples(57)
            return built

        reference = _per_chunk_reference(oracle(), "harmonic", samples=samples, tol=1e-12)
        caller = oracle()
        result = expected_centrality(None, measure="harmonic", oracle=caller,
                                     samples=samples, tol=1e-12)
        self._assert_same(result, reference)
        if mode in ("warm", "pregrown"):
            assert caller.cache_stats["worlds_sampled"] == 0
            # The pool never reads past the budget or the word it ends in.
            assert samples <= caller.num_samples <= -(-samples // 64) * 64

    @pytest.mark.parametrize("measure", ["degree", "betweenness"])
    @pytest.mark.parametrize("chunk_size", [7, 50, 128])
    def test_other_measures_match_and_never_read_ahead(self, graph, measure, chunk_size):
        store = self._warm_store(graph, 300)
        kwargs = dict(seed=self.SEED, chunk_size=chunk_size, store=store)
        reference = _per_chunk_reference(
            MonteCarloOracle(graph, **kwargs), measure, samples=100, tol=1e-12)
        caller = MonteCarloOracle(graph, **kwargs)
        result = expected_centrality(None, measure=measure, oracle=caller,
                                     samples=100, tol=1e-12)
        self._assert_same(result, reference)
        assert caller.num_samples == result.samples_used == 100

    def test_loose_tol_stops_at_round_one(self, graph):
        store = self._warm_store(graph, 300)
        reference = _per_chunk_reference(
            MonteCarloOracle(graph, seed=self.SEED, store=store), "harmonic",
            samples=256, tol=10.0)
        caller = MonteCarloOracle(graph, seed=self.SEED, store=store)
        result = expected_centrality(None, measure="harmonic", oracle=caller,
                                     samples=256, tol=10.0)
        self._assert_same(result, reference)
        assert result.n_rounds == 1 and result.converged
        # The first round read the rest of its word ahead: a stopped-early
        # run holds up to 63 more worlds than it averaged.
        assert result.samples_used == 50
        assert caller.num_samples == caller.cache_stats["worlds_cached"] == 64

    @pytest.mark.parametrize("max_samples", [50, 51, 63, 65, 99, 101])
    def test_max_samples_just_above_wanted(self, graph, max_samples):
        store = self._warm_store(graph, 300)

        def run(estimate):
            events = []
            try:
                outcome = estimate(events.append)
            except OracleError as error:
                outcome = str(error)
            return outcome, events

        kwargs = dict(seed=self.SEED, store=store, max_samples=max_samples)
        ref, ref_events = run(lambda progress: _per_chunk_reference(
            MonteCarloOracle(graph, **kwargs), "harmonic", samples=256, tol=1e-12,
            progress=progress))
        got, events = run(lambda progress: expected_centrality(
            graph, measure="harmonic", samples=256, tol=1e-12, progress=progress,
            **kwargs))
        assert [tuple(e.values()) for e in events] == ref_events
        if isinstance(ref, str):
            assert got == ref
        else:
            self._assert_same(got, ref)

    def test_warm_word_runs_one_bfs_and_samples_nothing(self, graph, monkeypatch):
        from repro.workloads import measures

        store = self._warm_store(graph, 64)
        calls = []
        original = measures._packed_bfs_codes

        def counting(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(measures, "_packed_bfs_codes", counting)
        caller = MonteCarloOracle(graph, seed=self.SEED, store=store)
        result = expected_centrality(None, measure="harmonic", oracle=caller,
                                     samples=64, tol=1e-12)
        assert result.n_rounds == 2 and result.samples_used == 64
        assert calls == [64]
        assert caller.cache_stats == {"worlds_cached": 64, "worlds_sampled": 0}

    def test_store_cleared_between_count_and_read(self, graph, monkeypatch, tmp_path):
        cache = tmp_path / "worlds"
        store = WorldStore(cache)
        MonteCarloOracle(graph, seed=self.SEED, store=store).ensure_samples(64)
        untouched = expected_centrality(graph, measure="harmonic", seed=self.SEED,
                                        samples=64, tol=1e-12, store=store)
        counted = MonteCarloOracle.stored_worlds
        cleared = []

        def count_then_clear(oracle):
            stored = counted.fget(oracle)
            if not cleared:
                cleared.append(WorldStore(cache).clear())  # "another process"
            return stored

        monkeypatch.setattr(MonteCarloOracle, "stored_worlds", property(count_then_clear))
        caller = MonteCarloOracle(graph, seed=self.SEED, store=store)
        result = expected_centrality(None, measure="harmonic", oracle=caller,
                                     samples=64, tol=1e-12)
        assert cleared == [1]
        assert caller.cache_stats["worlds_sampled"] > 0  # the worlds were redrawn
        assert np.array_equal(result.values, untouched.values)
        assert result.half_width == untouched.half_width
        assert result.history == untouched.history
        assert result.samples_used == untouched.samples_used
