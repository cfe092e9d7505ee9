"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import UncertainGraph
from repro.sampling import ExactOracle
from repro.sampling.backends import UnionFindWorldBackend

#: Base offset for seed-parametrized tests.  The seed-sweep CI workflow
#: runs the whole tier-1 suite at REPRO_TEST_SEED=0/1/2 so that
#: seed-dependent assertions are exercised at shifted seeds, not just
#: the ones they were written against.
REPRO_TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))


def sweep_seeds(count: int = 4) -> list[int]:
    """Seeds ``REPRO_TEST_SEED .. REPRO_TEST_SEED + count - 1``."""
    return [REPRO_TEST_SEED + i for i in range(count)]


@pytest.fixture
def two_triangles() -> UncertainGraph:
    """Two reliable triangles joined by a flaky bridge (6 nodes, 7 edges)."""
    return UncertainGraph.from_edges(
        [
            (0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.8),
            (3, 4, 0.85), (4, 5, 0.85), (3, 5, 0.75),
            (2, 3, 0.05),
        ]
    )


@pytest.fixture
def two_triangles_oracle(two_triangles) -> ExactOracle:
    return ExactOracle(two_triangles)


@pytest.fixture
def path4() -> UncertainGraph:
    """Path 0-1-2-3 with probabilities 0.9, 0.5, 0.8."""
    return UncertainGraph.from_edges([(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.8)])


def random_graph(
    n: int,
    edge_fraction: float,
    rng: np.random.Generator,
    *,
    prob_low: float = 0.1,
    prob_high: float = 1.0,
) -> UncertainGraph:
    """Random uncertain graph helper used across tests.

    ``edge_fraction`` of all possible pairs become edges (at least a
    spanning path is NOT guaranteed — tests that need connectivity
    should check it).
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = max(1, int(edge_fraction * len(pairs)))
    chosen = rng.choice(len(pairs), size=min(count, len(pairs)), replace=False)
    edges = [
        (pairs[int(c)][0], pairs[int(c)][1], float(rng.uniform(prob_low, prob_high)))
        for c in chosen
    ]
    return UncertainGraph.from_edges(edges, nodes=range(n))


@pytest.fixture
def labeling_calls(monkeypatch) -> list[int]:
    """World counts of every ``UnionFindWorldBackend.component_labels``
    call made while the test runs (the seam the labeler is reached by)."""
    calls: list[int] = []
    original = UnionFindWorldBackend.component_labels

    def spy(self, graph, masks):
        calls.append(int(np.shape(masks)[0]))
        return original(self, graph, masks)

    monkeypatch.setattr(UnionFindWorldBackend, "component_labels", spy)
    return calls
