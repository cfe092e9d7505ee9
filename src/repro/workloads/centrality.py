"""Expected centrality over the world pool with confidence stopping.

Per Pfeiffer & Neville's sampled-centrality line of work (PAPERS.md),
the expected centrality of a node in an uncertain graph is the
expectation of its per-world centrality over possible worlds.  The
estimator here averages the per-world kernels of
:mod:`repro.workloads.measures` over the shared Monte Carlo pool —
the same packed masks every other workload consumes, so a warm pool
means zero resampling and the estimate is a pure function of the seed.

Progressive sampling reuses the guess-schedule machinery of the
clustering drivers (:mod:`repro.core.schedule`): the threshold ramp
``q = 1, 1 - gamma, 1 - 2 gamma, ...`` is mapped through
:class:`~repro.sampling.sizes.PracticalSchedule` into a growing pool
size, and after each round the estimator computes a normal-approximation
confidence half-width ``z * std / sqrt(r)`` per node from running
moments.  The run stops at the first round where the worst-case
half-width drops to ``tol`` (absolute, on the measure's own scale), or
when the sample budget is exhausted — ``converged`` records which.

Per-world values are computed once, on blocks of new worlds, and
folded into the running moments chunk by chunk.  Distance measures
(the packed BFS costs the same for 1 or 64 worlds) read ahead: when a
round grows the pool and the store already holds the next worlds, the
pool grows to the next multiple of 64 worlds (capped at the budget,
the stored count and the oracle's ``max_samples``), so a ramp such as
``50, 64`` runs one BFS, not two.  The moments are folded over the
chunks :meth:`~repro.sampling.oracle.MonteCarloOracle.ensure_samples`
cuts when the pool grows to exactly each round's size, never over a
whole block: float sums depend on how rows are grouped, so the
estimate, its half-width and the round history do not depend on the
read-ahead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core.common import is_exact, resolve_oracle
from repro.core.schedule import resolve_guess_schedule
from repro.exceptions import ClusteringError
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.sizes import PracticalSchedule
from repro.sampling.store import WORD_BITS, unpack_mask_columns
from repro.workloads.measures import DISTANCE_KERNELS, MEASURE_KERNELS, MEASURE_NAMES

#: Two-sided normal quantile of the 95% confidence half-width.
_Z_95 = 1.959963984540054


@dataclass(frozen=True)
class CentralityRound:
    """One progressive-sampling round of :func:`expected_centrality`."""

    q: float
    samples: int
    half_width: float
    converged: bool


@dataclass(frozen=True)
class CentralityResult:
    """Outcome of :func:`expected_centrality`.

    Attributes
    ----------
    values:
        Per-node expected centrality estimates, shape ``(n,)``.
    measure:
        The measure estimated (``degree``/``harmonic``/``betweenness``).
    samples_used:
        Worlds the final estimate averages over (0 for an exact oracle).
        A distance measure that stops early may leave up to 63 more
        worlds read ahead in the oracle's pool.
    half_width:
        Final worst-case 95% confidence half-width across nodes
        (0 for an exact oracle).
    converged:
        Whether ``half_width <= tol`` was reached within the budget.
    history:
        One :class:`CentralityRound` per progressive round.
    """

    values: np.ndarray = field(repr=False)
    measure: str
    samples_used: int
    half_width: float
    converged: bool
    history: tuple[CentralityRound, ...] = field(repr=False)

    @property
    def n_rounds(self) -> int:
        return len(self.history)


def expected_centrality(
    graph: UncertainGraph | None,
    *,
    measure: str = "degree",
    oracle=None,
    seed=None,
    samples: int = 2000,
    tol: float = 0.05,
    gamma: float = 0.5,
    p_lower: float = 1e-4,
    guess_schedule="doubling",
    chunk_size: int = 512,
    max_samples: int = 1_000_000,
    store=None,
    cache_dir=None,
    cancel_check=None,
    progress=None,
) -> CentralityResult:
    """Estimate per-node expected centrality with confidence stopping.

    Parameters
    ----------
    graph:
        The uncertain graph (may be ``None`` when ``oracle`` is given).
    measure:
        ``"degree"``, ``"harmonic"`` or ``"betweenness"`` (see
        :mod:`repro.workloads.measures`).
    oracle:
        Optional pre-built oracle.  A
        :class:`~repro.sampling.exact.ExactOracle` short-circuits the
        sampling loop entirely: the result is the exact enumeration
        value with ``half_width`` 0.
    samples:
        Sample budget — the pool size the progressive ramp may grow to.
    tol:
        Stop once every node's 95% confidence half-width is at most
        this (absolute, on the measure's own scale).
    gamma, p_lower, guess_schedule:
        The threshold ramp reused from the clustering drivers
        (:func:`repro.core.schedule.resolve_guess_schedule`); each
        threshold ``q`` is mapped to a pool size by
        :class:`~repro.sampling.sizes.PracticalSchedule`.
    store, cache_dir:
        Monte Carlo oracle configuration as in
        :func:`repro.core.mcp.mcp_clustering`; ignored when ``oracle``
        is given.
    cancel_check:
        Called before every round; raise from it to abort cooperatively.
    progress:
        Called after every round with a JSON-safe dict
        ``{"q", "samples", "half_width", "converged"}``.

    Examples
    --------
    >>> g = UncertainGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
    >>> result = expected_centrality(g, measure="degree", seed=0, samples=100)
    >>> result.values.tolist()  # certain path: degrees are exact
    [1.0, 2.0, 1.0]
    >>> result.converged
    True
    """
    if measure not in MEASURE_NAMES:
        raise ClusteringError(
            f"measure must be one of {MEASURE_NAMES}, got {measure!r}"
        )
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise ClusteringError(f"tol must be a positive number, got {tol!r}")
    oracle = resolve_oracle(
        graph, oracle, seed=seed, chunk_size=chunk_size, max_samples=max_samples,
        store=store, cache_dir=cache_dir,
    )
    target = oracle.graph

    if is_exact(oracle):
        from repro.workloads.exact import exact_expected_centrality

        values = exact_expected_centrality(target, measure)
        return CentralityResult(
            values=values, measure=measure, samples_used=0,
            half_width=0.0, converged=True, history=(),
        )

    if samples < 1:
        raise ClusteringError(f"samples must be >= 1, got {samples}")
    n = target.n_nodes
    schedule = resolve_guess_schedule(guess_schedule, gamma, p_lower)
    pool_size_for = PracticalSchedule(max_samples=samples)
    chunk_size = oracle.chunk_size
    # Blocks of at most this many worlds bound the per-world values held.
    block_worlds = -(-chunk_size // WORD_BITS) * WORD_BITS

    def evaluate(lo: int, hi: int) -> np.ndarray:
        packed = oracle.packed_worlds(lo, hi)
        if measure in DISTANCE_KERNELS:
            return oracle.timed_distance(DISTANCE_KERNELS[measure], target, packed, hi - lo)
        return MEASURE_KERNELS[measure](target, unpack_mask_columns(packed, hi - lo))

    count = 0
    sums = np.zeros(n, dtype=np.float64)
    sumsq = np.zeros(n, dtype=np.float64)
    # Chunks to fold, first those of a pool the caller already grew.
    slices: list[tuple[int, int]] = []
    for index in range(oracle.n_chunks):
        start = slices[-1][1] if slices else 0
        slices.append((start, start + oracle.chunk_worlds(index)))
    grown = oracle.num_samples  # the pool size without read-ahead
    # Per-world values of worlds [values_lo, values_lo + len(world_values)).
    world_values = np.zeros((0, n), dtype=np.float64)
    values_lo = 0
    history: list[CentralityRound] = []
    converged = False
    half_width = math.inf
    for q in schedule:
        if cancel_check is not None:
            cancel_check()
        with telemetry.get_tracer().span("centrality.round", q=float(q)) as span:
            wanted = max(pool_size_for(q), count)
            if wanted > count or count == 0:
                stored = oracle.stored_worlds
                slices += _chunk_slices(grown, wanted, chunk_size, stored)
                grown = max(grown, wanted)
                target_size = grown
                if measure in DISTANCE_KERNELS and grown > oracle.num_samples:
                    ahead = -(-grown // WORD_BITS) * WORD_BITS
                    ahead = min(ahead, samples, stored, oracle.max_samples)
                    target_size = max(grown, ahead)
                oracle.ensure_samples(target_size)
                for lo, hi in slices:
                    while values_lo + len(world_values) < hi:
                        block_lo = values_lo + len(world_values)
                        block_hi = min(oracle.num_samples, block_lo + block_worlds)
                        world_values = np.concatenate(
                            [world_values[lo - values_lo:], evaluate(block_lo, block_hi)]
                        )
                        values_lo = lo
                    chunk_values = world_values[lo - values_lo:hi - values_lo]
                    count += hi - lo
                    sums += chunk_values.sum(axis=0)
                    sumsq += np.square(chunk_values).sum(axis=0)
                slices = []
            mean = sums / count
            if count > 1:
                variance = np.maximum(sumsq - count * np.square(mean), 0.0) / (count - 1)
                half_width = float(np.sqrt(variance / count).max() * _Z_95)
            else:
                half_width = math.inf
            converged = half_width <= tol
            span.set("samples", count)
            span.set("half_width", half_width)
            span.set("converged", converged)
        record = CentralityRound(
            q=float(q), samples=count, half_width=half_width, converged=converged
        )
        history.append(record)
        if progress is not None:
            progress({"q": record.q, "samples": record.samples,
                      "half_width": record.half_width, "converged": record.converged})
        if converged or count >= samples:
            break

    return CentralityResult(
        values=sums / count,
        measure=measure,
        samples_used=count,
        half_width=half_width,
        converged=converged,
        history=tuple(history),
    )


def _chunk_slices(start: int, stop: int, chunk_size: int, stored: int) -> list[tuple[int, int]]:
    """The chunks ``ensure_samples(stop)`` cuts a pool of ``start`` worlds
    into when ``stored`` worlds are in the store: chunks of at most
    ``chunk_size`` worlds, the last stored one ending at ``stored``."""
    slices = []
    while start < stop:
        end = min(start + chunk_size, stop)
        if start < stored:
            end = min(end, stored)
        slices.append((start, end))
        start = end
    return slices
