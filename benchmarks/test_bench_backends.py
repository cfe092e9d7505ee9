"""Throughput of the world labeler.

Records ``ensure_samples`` cost (mask sampling + labeling) and the raw
labeling-kernel cost of every labeler in
:data:`repro.sampling.backends.BACKENDS` (one: ``unionfind``) on two
synthetic substrates:

* ``sparse1500`` — n=1500, avg degree ~4, low-confidence edges
  (probabilities 0.05–0.35, PPI-like): sampled worlds are subcritical,
  the regime progressive sampling lives in.
* ``denser1000`` — n=1000, avg degree ~4, mixed probabilities
  (0.1–0.9): supercritical worlds with a giant component.

The union-find labeler never materializes an ``(r*n, r*n)``
block-diagonal sparse matrix: its per-chunk state is int32 endpoint
arrays plus one flat parent vector.  The cells keep their
``<kind>/<substrate>/unionfind`` names so ``compare.py`` pairs them
with earlier artifacts.
"""

import numpy as np
import pytest

from benchmarks.record import record_pytest_benchmark
from repro.datasets.synthetic import gnm_uncertain
from repro.sampling import MonteCarloOracle
from repro.sampling.backends import BACKENDS
from repro.sampling.worlds import sample_edge_masks
from tests.scipy_reference import scipy_component_labels

R = 512  # worlds per measured ensure_samples call

BACKEND_NAMES = sorted(BACKENDS)


def _substrate(name):
    if name == "sparse1500":
        return gnm_uncertain(1500, 3000, seed=7, prob_low=0.05, prob_high=0.35)
    if name == "denser1000":
        return gnm_uncertain(1000, 2000, seed=7, prob_low=0.1, prob_high=0.9)
    raise ValueError(name)


@pytest.fixture(scope="module", params=["sparse1500", "denser1000"])
def substrate(request):
    return request.param, _substrate(request.param)


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_ensure_samples_throughput(benchmark, substrate, backend_name):
    substrate_name, graph = substrate

    def run():
        oracle = MonteCarloOracle(graph, seed=1, chunk_size=R)
        oracle.ensure_samples(R)
        return oracle

    oracle = benchmark(run)
    assert oracle.num_samples == R
    record_pytest_benchmark(
        "backends",
        f"ensure_samples/{substrate_name}/{backend_name}",
        benchmark,
        items=R,
        meta={"backend": backend_name, "substrate": substrate_name, "r": R},
    )


@pytest.mark.parametrize("backend_name", BACKEND_NAMES)
def test_labeling_kernel(benchmark, substrate, backend_name):
    substrate_name, graph = substrate
    masks = sample_edge_masks(graph.edge_prob, R, rng=1)
    backend = BACKENDS[backend_name]()
    labels = benchmark(backend.component_labels, graph, masks)
    assert labels.shape == (R, graph.n_nodes)
    record_pytest_benchmark(
        "backends",
        f"labeling_kernel/{substrate_name}/{backend_name}",
        benchmark,
        items=R,
        meta={"backend": backend_name, "substrate": substrate_name, "r": R},
    )


def test_labels_match_reference(substrate):
    """The equivalence the suite pins, re-checked on the bench substrate."""
    _, graph = substrate
    masks = sample_edge_masks(graph.edge_prob, 64, rng=3)
    reference = scipy_component_labels(graph, masks)
    for name in BACKEND_NAMES:
        assert np.array_equal(BACKENDS[name]().component_labels(graph, masks), reference), name
