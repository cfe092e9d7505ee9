"""Determinism suite for the world-sampling engine.

Where ``tests/test_backends.py`` pins the labels against an independent
reference, this one pins the per-edge random streams the sampler
draws from: for a fixed seed, the pool of worlds is a pure function of
the seed and the world index — independent of edge order and of the
chunking pattern that grew the pool.
"""

import argparse
import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cli import build_parser
from repro.core.acp import acp_clustering
from repro.core.common import resolve_oracle
from repro.core.mcp import mcp_clustering
from repro.exceptions import OracleError, ServiceError
from repro.experiments.config import ExperimentScale
from repro.sampling import MonteCarloOracle
from repro.sampling.deltas import derive_pool
from repro.sampling.parallel import (
    EDGE_STREAM_TAG,
    ParallelSampler,
    _edge_seed_words,
    ensure_seed_sequence,
    sample_mask_rows,
)
from repro.sampling.store import (
    PoolInfo,
    WorldStore,
    pack_mask_columns,
    packed_words,
    pool_fingerprint,
    unpack_mask_columns,
)
from repro.sampling.worlds import world_component_labels
from repro.service.app import ClusterService, normalize_job_params
from repro.service.cache import OracleCache
from repro.service.workers import ProcessJobQueue, execute_clustering
from repro.workloads.centrality import expected_centrality
from repro.workloads.kclustering import kcenter_clustering, kmedian_clustering
from tests.conftest import random_graph, sweep_seeds
from tests.stream_reference import (
    edge_seed_sequence,
    edge_stream_state,
    reference_mask_rows,
    sample_edge_column,
)


@pytest.fixture(scope="module")
def tiny_substrate():
    """An 80-node PPI-like substrate, the size the tiny presets use."""
    return random_graph(80, 0.06, np.random.default_rng(11), prob_low=0.2, prob_high=0.95)


def grown_oracle(graph, *, chunk_size, seed=99, samples=512, store=None):
    oracle = MonteCarloOracle(graph, seed=seed, chunk_size=chunk_size, store=store)
    oracle.ensure_samples(samples)
    return oracle


#: Node ids the kernel grid draws endpoints from: 0, beyond 16 bits,
#: and the largest int32.
_GRID_NODES = (0, 1, 7, 2**16, 2**16 + 5, 2**31 - 1)

#: Probabilities at the edges of the ``random() < p`` comparison: the
#: extremes, the smallest double, and one ulp either side of k * 2**-53.
_GRID_PROBS = [1.0, 0.5, 2.0**-53, 5e-324] + [
    float(np.nextafter(k * 2.0**-53, toward))
    for k in (1, 3, 2**52 + 1, 2**53 - 1)
    for toward in (0.0, 1.0)
]


def _grid_edges():
    """One edge per grid probability; odd edges have reversed endpoints."""
    src, dst = [], []
    for i in range(len(_GRID_PROBS)):
        u = _GRID_NODES[i % len(_GRID_NODES)]
        v = _GRID_NODES[(i + 1 + i // len(_GRID_NODES)) % len(_GRID_NODES)]
        u, v = min(u, v), max(u, v)
        src.append(v if i % 2 else u)
        dst.append(u if i % 2 else v)
    return np.array(src), np.array(dst), np.array(_GRID_PROBS)


def _fixed_roots():
    return {
        "zero": np.random.SeedSequence(0),
        "int63": np.random.SeedSequence(2**63 - 1),
        "int128": np.random.SeedSequence(2**127 + 12345),
        "list6": np.random.SeedSequence([1, 2**32 + 3, 5, 0, 9, 2**40]),
        "uint32-array": np.random.SeedSequence(np.array([7, 2**32 - 1, 0], dtype=np.uint32)),
        "spawn1": np.random.SeedSequence(9, spawn_key=(3,)),
        "spawn-wide": np.random.SeedSequence(5, spawn_key=(5, 2**40)),
        "generator": ensure_seed_sequence(np.random.default_rng(4)),
    }


def _sweep_root(seed: int) -> np.random.SeedSequence:
    """A random root drawn from a sweep seed: wide entropy, a spawn key."""
    rng = np.random.default_rng(seed)
    entropy = int.from_bytes(rng.bytes(int(rng.integers(1, 20))), "little")
    spawn_key = tuple(int(w) for w in rng.integers(0, 2**62, size=int(rng.integers(0, 3))))
    return np.random.SeedSequence(entropy, spawn_key=spawn_key)


_KERNEL_ROOTS = {**_fixed_roots(), **{f"sweep{s}": _sweep_root(s) for s in sweep_seeds()}}


class TestEdgeStreams:
    """The per-edge random-stream derivation the whole design rests on."""

    def test_split_draw_equals_whole_draw(self):
        """World offsets must continue an edge's stream exactly (pins
        the one-uniform-per-world jump arithmetic)."""
        root = ensure_seed_sequence(42)
        edge = (np.array([3]), np.array([9]), np.array([0.5]))
        whole = sample_mask_rows(*edge, root, 0, 50)
        parts = [sample_mask_rows(*edge, root, a, b) for a, b in [(0, 20), (20, 13), (33, 17)]]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_edges_are_independent_streams(self):
        root = ensure_seed_sequence(0)
        masks = sample_mask_rows(np.array([0, 0]), np.array([1, 2]), np.array([0.5, 0.5]), root, 0, 64)
        assert not np.array_equal(masks[:, 0], masks[:, 1])

    def test_stream_keyed_by_canonical_endpoints(self):
        """(u, v) and (v, u) are the same edge, hence the same stream."""
        root = np.random.SeedSequence(7)
        masks = sample_mask_rows(np.array([5, 2]), np.array([2, 5]), np.array([0.4, 0.4]), root, 0, 32)
        assert np.array_equal(masks[:, 0], masks[:, 1])
        assert edge_seed_sequence(root, 5, 2).spawn_key == (EDGE_STREAM_TAG, 2, 5)

    def test_stream_independent_of_column_position(self):
        """Mask bit (i, e) depends on the edge's *endpoints*, not its
        position in the edge arrays — the delta-derivation contract."""
        root = ensure_seed_sequence(5)
        src_a, dst_a = np.array([0, 1, 2]), np.array([1, 2, 3])
        src_b, dst_b = np.array([2, 0, 1]), np.array([3, 1, 2])  # permuted
        prob = np.array([0.3, 0.5, 0.7])
        a = sample_mask_rows(src_a, dst_a, prob, root, 0, 40)
        b = sample_mask_rows(src_b, dst_b, prob[[2, 0, 1]], root, 0, 40)
        assert np.array_equal(a, b[:, [1, 2, 0]])

    def test_mask_rows_match_columns(self):
        """The row kernel is the scalar column reference evaluated per edge."""
        root = ensure_seed_sequence(3)
        src, dst = np.array([0, 0, 2]), np.array([1, 3, 3])
        prob = np.array([0.2, 0.5, 0.9])
        rows = sample_mask_rows(src, dst, prob, root, 7, 25)
        for j in range(3):
            assert np.array_equal(
                rows[:, j],
                sample_edge_column(root, int(src[j]), int(dst[j]), prob[j], 7, 25),
            )

    def test_edgeless_graph(self):
        masks = sample_mask_rows(
            np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
            np.empty(0), ensure_seed_sequence(1), 0, 5,
        )
        assert masks.shape == (5, 0)

    def test_probability_extremes(self):
        """p <= 0 and NaN never draw an edge; p >= 1 always does."""
        masks = sample_mask_rows(
            np.zeros(5, dtype=np.intp), np.arange(1, 6),
            np.array([0.0, -0.5, np.nan, 1.0, 1.5]), ensure_seed_sequence(2), 3, 100,
        )
        assert not masks[:, :3].any()
        assert masks[:, 3:].all()

    def test_seed_sequence_coercions(self):
        assert ensure_seed_sequence(5).entropy == 5
        ss = np.random.SeedSequence(9)
        assert ensure_seed_sequence(ss) is ss
        gen_a = np.random.default_rng(3)
        gen_b = np.random.default_rng(3)
        assert ensure_seed_sequence(gen_a).entropy == ensure_seed_sequence(gen_b).entropy
        with pytest.raises(TypeError):
            ensure_seed_sequence("seed")


class TestStreamReference:
    """The scalar reference in ``tests/stream_reference.py`` is numpy's
    own ``SeedSequence`` -> ``PCG64`` -> ``advance`` -> ``random``."""

    def test_cached_state_matches_fresh_derivation(self):
        root = ensure_seed_sequence(11)
        state = edge_stream_state(root, 4, 7)
        assert np.array_equal(
            sample_edge_column(root, 4, 7, 0.6, 10, 30, state=state),
            sample_edge_column(root, 4, 7, 0.6, 10, 30),
        )

    def test_column_is_the_edge_generators_uniforms(self):
        root = ensure_seed_sequence(12)
        uniforms = np.random.Generator(np.random.PCG64(edge_seed_sequence(root, 3, 8))).random(40)
        assert np.array_equal(sample_edge_column(root, 8, 3, 0.35, 0, 40), uniforms < 0.35)
        assert np.array_equal(sample_edge_column(root, 3, 8, 0.35, 15, 25), uniforms[15:] < 0.35)


class TestKernelMatchesNumpy:
    """The vectorized kernel reproduces numpy's per-edge streams bit for
    bit: seed words, PCG64 seeding, jumps and the uniform comparison."""

    @pytest.mark.parametrize("name", sorted(_KERNEL_ROOTS))
    def test_seed_words_match_generate_state(self, name):
        root = _KERNEL_ROOTS[name]
        src, dst, _ = _grid_edges()
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        words = _edge_seed_words(root, lo, hi).T
        expected = np.stack([
            edge_seed_sequence(root, u, v).generate_state(4, np.uint64)
            for u, v in zip(src, dst, strict=True)
        ])
        assert np.array_equal(words, expected)

    @pytest.mark.parametrize("start", [0, 1, 64, 2**20, 2**40])
    @pytest.mark.parametrize("name", sorted(_KERNEL_ROOTS))
    def test_masks_match_reference(self, name, start):
        root = _KERNEL_ROOTS[name]
        src, dst, prob = _grid_edges()
        for rows in (0, 1, 63, 64, 65, 130):
            masks = sample_mask_rows(src, dst, prob, root, start, rows)
            assert masks.shape == (rows, len(prob))
            assert np.array_equal(masks, reference_mask_rows(src, dst, prob, root, start, rows))

    def test_threshold_exact_at_drawn_uniforms(self):
        """p equal to a world's uniform leaves the edge out; one ulp more keeps it."""
        root = ensure_seed_sequence(21)
        uniforms = np.random.Generator(np.random.PCG64(edge_seed_sequence(root, 2, 9))).random(40)
        for world in (0, 17, 39):
            u = uniforms[world]
            for p, present in [(np.nextafter(u, 0.0), False), (u, False), (np.nextafter(u, 1.0), True)]:
                bit = sample_mask_rows(np.array([9]), np.array([2]), np.array([p]), root, world, 1)
                assert bool(bit[0, 0]) is present

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 130, 700])
    def test_lanes_match_reference(self, rows):
        """Few edges over many worlds interleave the worlds over lanes."""
        root = _KERNEL_ROOTS["spawn-wide"]
        src, dst, prob = np.array([4]), np.array([2**31 - 1]), np.array([0.3])
        for start in (0, 5, 2**33 + 1):
            masks = sample_mask_rows(src, dst, prob, root, start, rows)
            assert np.array_equal(masks, reference_mask_rows(src, dst, prob, root, start, rows))

    def test_sampler_matches_reference_on_a_graph(self, tiny_substrate):
        g, root = tiny_substrate, np.random.SeedSequence(2**100 + 7)
        masks, _ = ParallelSampler(g).sample_chunk(root, 84, 167)
        expected = reference_mask_rows(g.edge_src, g.edge_dst, g.edge_prob, root, 84, 167)
        assert np.array_equal(masks, expected)

    @given(
        entropy=st.one_of(
            st.integers(0, 2**130),
            st.lists(st.integers(0, 2**70), min_size=1, max_size=7),
        ),
        spawn_key=st.lists(st.integers(0, 2**70), max_size=3),
        start=st.integers(0, 2**45),
        rows=st.integers(0, 70),
        edges=st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1),
                st.integers(0, 2**32 - 1),
                st.floats(0.0, 1.0, allow_subnormal=True),
            ),
            max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_property_matches_reference(self, entropy, spawn_key, start, rows, edges):
        root = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key))
        src = np.array([u for u, _, _ in edges], dtype=np.int64)
        dst = np.array([v for _, v, _ in edges], dtype=np.int64)
        prob = np.array([p for _, _, p in edges], dtype=np.float64)
        masks = sample_mask_rows(src, dst, prob, root, start, rows)
        assert np.array_equal(masks, reference_mask_rows(src, dst, prob, root, start, rows))


class TestKernelInputs:
    """Bad kernel inputs fail up front instead of drawing wrong masks."""

    def test_unequal_lengths_rejected(self):
        root = ensure_seed_sequence(1)
        with pytest.raises(ValueError, match="equal lengths"):
            sample_mask_rows(np.array([0, 1]), np.array([1]), np.array([0.5, 0.5]), root, 0, 4)
        with pytest.raises(ValueError, match="equal lengths"):
            sample_mask_rows(np.array([0, 1]), np.array([1, 2]), np.array([0.5]), root, 0, 4)
        with pytest.raises(ValueError, match="equal lengths"):
            sample_mask_rows(np.array([0]), np.array([1, 2]), np.array([0.5, 0.5]), root, 0, 0)

    def test_non_1d_rejected(self):
        root = ensure_seed_sequence(1)
        with pytest.raises(ValueError, match="1-D"):
            sample_mask_rows(np.array([[0, 1]]), np.array([[1, 2]]), np.array([[0.5, 0.5]]),
                             root, 0, 4)
        with pytest.raises(ValueError, match="1-D"):
            sample_mask_rows(np.array([0]), np.array([1]), np.float64(0.5), root, 0, 4)

    @pytest.mark.parametrize("node", [-1, 2**32, 2**40])
    def test_endpoints_outside_uint32_rejected(self, node):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            sample_mask_rows(np.array([0, node]), np.array([1, 3]), np.array([0.5, 0.5]),
                             ensure_seed_sequence(1), 0, 4)

    def test_largest_uint32_endpoint_accepted(self):
        src, dst, prob = np.array([0]), np.array([2**32 - 1]), np.array([0.5])
        root = ensure_seed_sequence(3)
        assert np.array_equal(
            sample_mask_rows(src, dst, prob, root, 2, 9),
            reference_mask_rows(src, dst, prob, root, 2, 9),
        )

    @pytest.mark.parametrize("start,rows", [(-1, 4), (0, -4)])
    def test_negative_window_rejected(self, start, rows):
        with pytest.raises(ValueError, match="non-negative"):
            sample_mask_rows(np.array([0]), np.array([1]), np.array([0.5]),
                             ensure_seed_sequence(1), start, rows)


class TestArrayEntropyRoots:
    """Roots whose entropy is an array sample like any other root."""

    def test_equal_array_roots_sample_repeatedly(self, tiny_substrate):
        sampler = ParallelSampler(tiny_substrate)
        first, _ = sampler.sample_chunk(np.random.SeedSequence(np.array([1, 2, 3])), 0, 4)
        again, _ = sampler.sample_chunk(np.random.SeedSequence(np.array([1, 2, 3])), 0, 4)
        from_list, _ = ParallelSampler(tiny_substrate).sample_chunk(
            np.random.SeedSequence([1, 2, 3]), 0, 4
        )
        assert np.array_equal(first, again)
        assert np.array_equal(first, from_list)


class TestChunkingInvariance:
    def test_chunking_pattern_is_invisible(self, tiny_substrate):
        """Pool content depends only on (seed, r) — not on the chunk
        boundaries of the ensure_samples calls that grew it."""
        direct = MonteCarloOracle(tiny_substrate, seed=99, chunk_size=512)
        direct.ensure_samples(300)
        stepped = MonteCarloOracle(tiny_substrate, seed=99, chunk_size=512)
        for r in (1, 70, 130, 300):
            stepped.ensure_samples(r)
        small_chunks = MonteCarloOracle(tiny_substrate, seed=99, chunk_size=64)
        small_chunks.ensure_samples(300)
        assert np.array_equal(direct.component_labels, stepped.component_labels)
        assert np.array_equal(direct.component_labels, small_chunks.component_labels)

    @pytest.mark.parametrize("chunk_size", [48, 100])
    def test_labels_identical_across_chunk_sizes(self, tiny_substrate, chunk_size):
        one_chunk = grown_oracle(tiny_substrate, chunk_size=512)
        many_chunks = grown_oracle(tiny_substrate, chunk_size=chunk_size)
        assert np.array_equal(one_chunk.component_labels, many_chunks.component_labels)

    def test_labels_identical_across_stores_and_chunk_sizes(self, tiny_substrate):
        """Cold, and warm at another chunk size, collapse to one pool."""
        store = WorldStore()
        pools = [
            grown_oracle(tiny_substrate, chunk_size=c, samples=256, store=s)
            for c in (512, 64)
            for s in (None, store)
        ]
        assert pools[1].cache_stats["worlds_sampled"] == 256
        assert pools[3].cache_stats == {"worlds_cached": 256, "worlds_sampled": 0}
        reference = pools[0].component_labels
        for oracle in pools[1:]:
            assert np.array_equal(oracle.component_labels, reference)

    def test_estimates_identical_across_chunk_sizes(self, tiny_substrate):
        one_chunk = grown_oracle(tiny_substrate, chunk_size=512)
        many_chunks = grown_oracle(tiny_substrate, chunk_size=100)
        for node in (0, 17, 79):
            assert np.array_equal(
                one_chunk.connection_to_all(node), many_chunks.connection_to_all(node)
            )
        assert np.array_equal(
            one_chunk.connection_to_all(3, depth=2),
            many_chunks.connection_to_all(3, depth=2),
        )
        assert np.array_equal(one_chunk.pairwise_matrix(), many_chunks.pairwise_matrix())


class TestClusteringEquivalence:
    """MCP/ACP return identical clusterings under every chunk size."""

    @pytest.mark.parametrize("chunk_size", [64, 100])
    def test_mcp_identical(self, tiny_substrate, chunk_size):
        first, second = [
            mcp_clustering(tiny_substrate, 6, seed=4, chunk_size=c)
            for c in (512, chunk_size)
        ]
        assert np.array_equal(first.clustering.assignment, second.clustering.assignment)
        assert np.array_equal(first.clustering.centers, second.clustering.centers)
        assert first.q_final == second.q_final
        assert first.min_prob_estimate == second.min_prob_estimate
        assert [g.q for g in first.history] == [g.q for g in second.history]

    @pytest.mark.parametrize("chunk_size", [64, 100])
    def test_acp_identical(self, tiny_substrate, chunk_size):
        first, second = [
            acp_clustering(tiny_substrate, 6, seed=4, chunk_size=c)
            for c in (512, chunk_size)
        ]
        assert np.array_equal(first.clustering.assignment, second.clustering.assignment)
        assert first.phi_best == second.phi_best
        assert first.avg_prob_estimate == second.avg_prob_estimate


class TestSampleChunk:
    """``sample_chunk_packed`` is ``sample_chunk`` plus one pack."""

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 130])
    @pytest.mark.parametrize("start", [0, 5])
    def test_packed_is_boolean_plus_one_pack(self, tiny_substrate, start, count):
        root = np.random.SeedSequence(8)
        masks, labels = ParallelSampler(tiny_substrate).sample_chunk(root, start, count)
        packed, packed_labels = ParallelSampler(tiny_substrate).sample_chunk_packed(
            root, start, count
        )
        assert masks.shape == (count, tiny_substrate.n_edges)
        assert labels.shape == (count, tiny_substrate.n_nodes)
        assert packed.shape == (tiny_substrate.n_edges, packed_words(count))
        assert np.array_equal(packed, pack_mask_columns(masks))
        assert np.array_equal(unpack_mask_columns(packed, count), masks)
        assert np.array_equal(packed_labels, labels)

    def test_negative_range_rejected(self, tiny_substrate):
        sampler = ParallelSampler(tiny_substrate)
        with pytest.raises(ValueError, match="non-negative"):
            sampler.sample_chunk(np.random.SeedSequence(1), -1, 4)
        with pytest.raises(ValueError, match="non-negative"):
            sampler.sample_chunk(np.random.SeedSequence(1), 0, -4)

    def test_phase_counters_accumulate(self, tiny_substrate):
        sampler = ParallelSampler(tiny_substrate)
        for start in (0, 64, 128):
            sampler.sample_chunk(np.random.SeedSequence(2), start, 64)
        assert sampler.chunks_produced == 3
        assert sampler.sample_seconds > 0.0
        assert sampler.label_seconds > 0.0

    def test_labels_once_per_chunk(self, tiny_substrate, labeling_calls):
        """The instrumented labeler class sees exactly one labeling call
        per chunk, with the chunk's full world count."""
        oracle = MonteCarloOracle(tiny_substrate, seed=0, chunk_size=512)
        oracle.ensure_samples(512)
        assert labeling_calls == [512]

    def test_reprs_name_no_labeler(self, tiny_substrate):
        sampler = ParallelSampler(tiny_substrate)
        assert repr(sampler) == (
            f"ParallelSampler(n_nodes=80, n_edges={tiny_substrate.n_edges})"
        )
        with MonteCarloOracle(tiny_substrate, seed=0) as oracle:
            oracle.ensure_samples(10)
            assert "backend" not in repr(oracle)
            assert "workers" not in repr(oracle)
        # Leaving the block releases nothing: the oracle stays usable.
        oracle.ensure_samples(20)
        assert oracle.num_samples == 20


class TestSamplerTelemetry:
    """The sampler series carry no labels (there is one labeler)."""

    @pytest.mark.parametrize(
        "name",
        ["repro_sampler_chunks_total", "repro_sampler_worlds_total",
         "repro_sampler_sample_seconds_total", "repro_sampler_label_seconds_total",
         "repro_sampler_chunk_seconds"],
    )
    def test_series_carry_no_labels(self, tiny_substrate, name):
        ParallelSampler(tiny_substrate).sample_chunk(np.random.SeedSequence(0), 0, 3)
        text = telemetry.get_registry().render()
        lines = [line for line in text.splitlines() if line.startswith(name)]
        assert lines
        for line in lines:
            if "{" not in line:
                continue
            labels = line[line.index("{") + 1:line.index("}")]
            names = {pair.split("=")[0] for pair in labels.split(",")} - {"le"}
            assert names == set()

    def test_worlds_counter_counts_each_chunk_once(self, tiny_substrate):
        registry = telemetry.get_registry()
        sampler = ParallelSampler(tiny_substrate)
        worlds = registry.value("repro_sampler_worlds_total")
        chunks = registry.value("repro_sampler_chunks_total")
        sampler.sample_chunk_packed(np.random.SeedSequence(0), 0, 70)
        sampler.sample_chunk(np.random.SeedSequence(0), 70, 30)
        assert registry.value("repro_sampler_worlds_total") == worlds + 100
        assert registry.value("repro_sampler_chunks_total") == chunks + 2


class TestRemovedOptions:
    """Sampling has one serial path and one labeler, so no API takes a
    worker count or a labeling backend, and no pool key a chunk size."""

    @pytest.mark.parametrize(
        "target,option",
        [
            (MonteCarloOracle, "workers"),
            (ParallelSampler, "workers"),
            (ParallelSampler, "chunk_size"),
            (ParallelSampler, "shard_worlds"),
            (sample_mask_rows, "state_cache"),
            (resolve_oracle, "workers"),
            (mcp_clustering, "workers"),
            (acp_clustering, "workers"),
            (kmedian_clustering, "workers"),
            (kcenter_clustering, "workers"),
            (expected_centrality, "workers"),
            (OracleCache.lease, "workers"),
            (execute_clustering, "workers"),
            (ProcessJobQueue, "sampling_workers"),
            (ClusterService, "sampling_workers"),
            (MonteCarloOracle, "backend"),
            (ParallelSampler, "backend"),
            (resolve_oracle, "backend"),
            (mcp_clustering, "backend"),
            (acp_clustering, "backend"),
            (kmedian_clustering, "backend"),
            (kcenter_clustering, "backend"),
            (expected_centrality, "backend"),
            (OracleCache.lease, "backend"),
            (derive_pool, "backend"),
            (derive_pool, "chunk_size"),
            (world_component_labels, "backend"),
            (pool_fingerprint, "backend_name"),
            (pool_fingerprint, "chunk_size"),
            (WorldStore.register, "backend_name"),
            (WorldStore.register, "chunk_size"),
        ],
        ids=lambda value: getattr(value, "__qualname__", value),
    )
    def test_option_is_gone(self, target, option):
        parameters = inspect.signature(target).parameters
        assert option not in parameters
        # No catch-all either, so passing the option fails loudly.
        assert all(p.kind is not p.VAR_KEYWORD for p in parameters.values())

    def test_experiment_scale_has_no_worker_count(self):
        assert "oracle_workers" not in {f.name for f in dataclasses.fields(ExperimentScale)}

    def test_experiment_scale_has_no_backend(self):
        assert "oracle_backend" not in {f.name for f in dataclasses.fields(ExperimentScale)}

    def test_pool_info_names_no_backend_or_chunk(self):
        fields = {f.name for f in dataclasses.fields(PoolInfo)}
        assert not fields & {"backend", "chunk_size"}

    def test_oracle_rejects_workers_keyword(self, tiny_substrate):
        with pytest.raises(TypeError, match="workers"):
            MonteCarloOracle(tiny_substrate, seed=0, workers=2)

    def test_oracle_rejects_backend_keyword(self, tiny_substrate):
        with pytest.raises(TypeError, match="backend"):
            MonteCarloOracle(tiny_substrate, seed=0, backend="unionfind")
        oracle = MonteCarloOracle(tiny_substrate, seed=0)
        assert not hasattr(oracle, "backend")
        assert not hasattr(oracle, "backend_name")

    def test_no_cli_subcommand_takes_backend(self):
        parser = build_parser()
        subcommands = next(
            action.choices for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        options = {
            name: {flag for action in sub._actions for flag in action.option_strings}
            for name, sub in subcommands.items()
        }
        assert {"estimate", "cluster", "kmedian", "kcenter", "centrality", "mutate"} <= set(options)
        for name, flags in options.items():
            assert "--backend" not in flags, name
        assert "--chunk-size" not in options["mutate"]

    @pytest.mark.parametrize("algorithm", ["mcp", "acp", "kmedian", "kcenter", "centrality"])
    def test_no_job_takes_backend(self, algorithm):
        with pytest.raises(ServiceError, match="unknown job fields"):
            normalize_job_params({"graph": "g", "algorithm": algorithm, "backend": "unionfind"})
        params = normalize_job_params({"graph": "g", "algorithm": algorithm})
        assert "backend" not in params


class TestMaxSamplesGuard:
    """Regression: an over-budget request must fail before any sampling."""

    def test_rejected_request_leaves_pool_untouched(self, two_triangles, labeling_calls):
        oracle = MonteCarloOracle(two_triangles, seed=0, chunk_size=32, max_samples=100)
        oracle.ensure_samples(64)
        calls_before = list(labeling_calls)
        with pytest.raises(OracleError, match="max_samples"):
            oracle.ensure_samples(150)
        # No chunk was drawn or labeled for the rejected request.
        assert labeling_calls == calls_before
        assert oracle.num_samples == 64
        assert oracle.component_labels.shape[0] == 64

    def test_budget_boundary_is_inclusive(self, two_triangles):
        oracle = MonteCarloOracle(two_triangles, seed=0, chunk_size=32, max_samples=100)
        oracle.ensure_samples(100)
        assert oracle.num_samples == 100
