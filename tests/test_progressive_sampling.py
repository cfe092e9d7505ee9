"""Progressive-sampling invariants (paper Section 4).

The Monte Carlo pool must only ever *grow*, and growth must never
re-label worlds already in the pool — lowering the threshold ``q``
reuses all previous work.  A spy on the labeler class observes exactly
what the oracle asks it to label, with and without a (cold) world store
attached.
"""

import numpy as np
import pytest

from repro.core.mcp import mcp_clustering
from repro.sampling import MonteCarloOracle, WorldStore


@pytest.fixture(params=["no-store", "cold-store"])
def store(request):
    return WorldStore() if request.param == "cold-store" else None


class TestEnsureSamplesNeverRelabels:
    def test_growth_labels_only_the_difference(self, two_triangles, store, labeling_calls):
        oracle = MonteCarloOracle(two_triangles, seed=0, chunk_size=32, store=store)
        oracle.ensure_samples(100)
        assert sum(labeling_calls) == 100
        oracle.ensure_samples(260)
        # Only the 160 new worlds were labeled, in fresh chunks.
        assert sum(labeling_calls) == 260
        assert oracle.num_samples == 260

    def test_shrinking_request_is_a_no_op(self, two_triangles, store, labeling_calls):
        oracle = MonteCarloOracle(two_triangles, seed=0, chunk_size=32, store=store)
        oracle.ensure_samples(96)
        calls_before = list(labeling_calls)
        oracle.ensure_samples(50)
        oracle.ensure_samples(96)
        oracle.ensure_samples(0)
        assert labeling_calls == calls_before
        assert oracle.num_samples == 96

    def test_chunks_are_append_only(self, two_triangles, store, labeling_calls):
        oracle = MonteCarloOracle(two_triangles, seed=0, chunk_size=32, store=store)
        oracle.ensure_samples(64)
        first_labels = oracle.component_labels
        oracle.ensure_samples(128)
        grown = oracle.component_labels
        # The earlier worlds are a byte-identical prefix of the pool.
        assert np.array_equal(grown[: len(first_labels)], first_labels)

    def test_call_sizes_respect_chunking(self, two_triangles, store, labeling_calls):
        oracle = MonteCarloOracle(two_triangles, seed=0, chunk_size=32, store=store)
        oracle.ensure_samples(70)
        assert labeling_calls == [32, 32, 6]


class TestHistorySampleCounts:
    def test_mcp_history_is_monotone(self, two_triangles):
        result = mcp_clustering(two_triangles, 2, seed=1, chunk_size=32)
        samples = [guess.samples for guess in result.history]
        assert samples, "history must record every min-partial invocation"
        assert all(a <= b for a, b in zip(samples, samples[1:], strict=False))
        assert result.samples_used == samples[-1]

    def test_mcp_history_monotone_even_when_partial(self, two_triangles):
        # Force a bottom-out: one cluster cannot span the flaky bridge at
        # thresholds >= 0.5, so the schedule ends without covering.
        result = mcp_clustering(
            two_triangles, 1, seed=1, chunk_size=32, p_lower=0.5,
            guess_schedule=[1.0, 0.9, 0.5],
        )
        assert not result.covers_all
        samples = [guess.samples for guess in result.history]
        assert all(a <= b for a, b in zip(samples, samples[1:], strict=False))
