"""The one table of job families behind the CLI and the service.

Per family, :data:`FAMILIES` holds the parameters it takes (defaults
and bounds), one ``run`` call, and whether it leases a Monte Carlo
oracle over the ``(graph, seed)`` world pool.  ``repro cluster`` /
``kmedian`` / ``kcenter`` / ``centrality`` and ``POST /v1/jobs`` both go
through it, so the two surfaces accept the same inputs and give the
same results.  A bad parameter raises a 400
:class:`~repro.exceptions.ServiceError`: the service answers it, the
CLI prints it and exits 2.

>>> FAMILIES["kmedian"].normalize({"k": "3"})
{'k': 3, 'seed': 0, 'samples': 1000, 'chunk_size': 512}
>>> FAMILIES["mcl"].normalize({"k": 3})   # mcl takes no k
{'inflation': 2.0}
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.baselines.gmm import gmm_clustering
from repro.baselines.mcl import mcl_clustering
from repro.core.acp import acp_clustering
from repro.core.mcp import mcp_clustering
from repro.exceptions import ServiceError
from repro.sampling.sizes import PracticalSchedule
from repro.workloads.centrality import expected_centrality
from repro.workloads.kclustering import kcenter_clustering, kmedian_clustering
from repro.workloads.measures import MEASURE_NAMES

#: Upper bound on requested sample budgets, and the ``max_samples`` of
#: every oracle a family runs on.  This is the library's default
#: ``max_samples`` oracle guard: letting a request raise its own cap
#: would turn one HTTP call into an arbitrarily large uninterruptible
#: sampling run on a worker.
MAX_REQUEST_SAMPLES = 1_000_000


def integer(value, name: str, *, minimum: int = 1, maximum: int | None = None) -> int:
    """``value`` as an int in ``[minimum, maximum]``.

    Integer strings pass (query-string values arrive as text); booleans
    and non-integral floats do not, so ``2.7`` never becomes ``2``.

    >>> integer("3", "k"), integer(4.0, "k")
    (3, 4)
    """
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        value = int(value)
    except (TypeError, ValueError):
        raise ServiceError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ServiceError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ServiceError(f"{name} must be <= {maximum}, got {value}")
    return value


def _number(value, name: str, *, positive: bool = False) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ServiceError(f"{name} must be a number") from None
    if not math.isfinite(value) or (positive and value <= 0):
        kind = "positive" if positive else "finite"
        raise ServiceError(f"{name} must be a {kind} number, got {value}")
    return value


def _measure(value, name: str) -> str:
    if value not in MEASURE_NAMES:
        raise ServiceError(f"{name} must be one of {MEASURE_NAMES}, got {value!r}")
    return value


# (name, default, parse) of the parameters families share.  mcp, acp
# and centrality grow their pool on a progressive schedule that starts
# at 50 worlds (PracticalSchedule's min_samples), so a smaller budget
# could only fail mid-run; kmedian and kcenter would run on fewer
# worlds, but the service has always asked every family for 50 or more.
_K = ("k", 10, integer)
_SEED = ("seed", 0, functools.partial(integer, minimum=0))
_DEPTH = ("depth", None, lambda value, name: None if value is None else integer(value, name))
_SAMPLES = ("samples", 1000, functools.partial(integer, minimum=50, maximum=MAX_REQUEST_SAMPLES))
_CHUNK_SIZE = ("chunk_size", 512, integer)


@dataclass(frozen=True)
class Family:
    """One job family.

    ``params`` are ``(name, default, parse)`` triples in normalized
    order.  ``run(graph, oracle, params, cancel_check, progress)``
    returns ``(clustering or None, fields)``, the result fields in
    payload order; ``oracle`` is a Monte Carlo oracle over the
    ``(graph, params["seed"])`` pool when ``leases_oracle``, else
    ``None``.  ``summary(fields)`` is the CLI's one-line report.
    """

    params: tuple
    run: Callable
    leases_oracle: bool
    summary: Callable | None = None

    def normalize(self, values) -> dict:
        """The family's parameters from ``values``, defaults filled in
        and other fields dropped, so equal computations normalize equal."""
        return {name: parse(values.get(name, default), name)
                for name, default, parse in self.params}


def _run_threshold(algorithm, graph, oracle, params, cancel_check, progress):
    run = mcp_clustering if algorithm == "mcp" else acp_clustering
    result = run(graph, params["k"], oracle=oracle, seed=params["seed"], depth=params["depth"],
                 sample_schedule=PracticalSchedule(max_samples=params["samples"]),
                 cancel_check=cancel_check, progress=progress)
    fields = {"k": params["k"], "seed": params["seed"], "q_final": result.q_final,
              "samples_used": result.samples_used, "n_guesses": result.n_guesses}
    if algorithm == "mcp":
        fields.update(min_prob=result.min_prob_estimate, covers_all=result.covers_all)
    else:
        fields.update(avg_prob=result.avg_prob_estimate, phi_best=result.phi_best)
    return result.clustering, fields


def _run_kclustering(algorithm, graph, oracle, params, cancel_check, progress):
    run = kmedian_clustering if algorithm == "kmedian" else kcenter_clustering
    result = run(graph, params["k"], oracle=oracle, samples=params["samples"],
                 cancel_check=cancel_check, progress=progress)
    return result.clustering, {"k": params["k"], "seed": params["seed"],
                               "objective": result.objective,
                               "samples_used": result.samples_used,
                               "n_rounds": result.n_rounds}


def _run_centrality(graph, oracle, params, cancel_check, progress):
    result = expected_centrality(graph, measure=params["measure"], oracle=oracle,
                                 samples=params["samples"], tol=params["tol"],
                                 cancel_check=cancel_check, progress=progress)
    return None, {"measure": params["measure"], "seed": params["seed"], "tol": params["tol"],
                  "values": np.asarray(result.values, dtype=float).tolist(),
                  "half_width": result.half_width, "converged": result.converged,
                  "samples_used": result.samples_used, "n_rounds": result.n_rounds}


def _centrality_summary(fields: dict) -> str:
    status = "converged" if fields["converged"] else "budget exhausted"
    return (f"centrality: measure={fields['measure']} half-width~={fields['half_width']:.4f} "
            f"({status}, {fields['samples_used']} worlds, {fields['n_rounds']} rounds)")


def _run_mcl(graph, oracle, params, cancel_check, progress):
    result = mcl_clustering(graph, inflation=params["inflation"])
    return result.clustering, {"inflation": params["inflation"], "n_clusters": result.n_clusters}


def _run_gmm(graph, oracle, params, cancel_check, progress):
    clustering = gmm_clustering(graph, params["k"], seed=params["seed"])
    return clustering, {"k": params["k"], "seed": params["seed"]}


#: The job families by name, in the order the service lists them.
FAMILIES: dict[str, Family] = {
    "mcp": Family((_K, _SEED, _DEPTH, _SAMPLES, _CHUNK_SIZE),
                  functools.partial(_run_threshold, "mcp"), True,
                  "mcp: k={k} min-prob~={min_prob:.3f} q={q_final:.4f}".format_map),
    "acp": Family((_K, _SEED, _DEPTH, _SAMPLES, _CHUNK_SIZE),
                  functools.partial(_run_threshold, "acp"), True,
                  "acp: k={k} avg-prob~={avg_prob:.3f}".format_map),
    "mcl": Family((("inflation", 2.0, _number),), _run_mcl, False,
                  "mcl: inflation={inflation} -> {n_clusters} clusters".format_map),
    "gmm": Family((_K, _SEED), _run_gmm, False),
    "kmedian": Family((_K, _SEED, _SAMPLES, _CHUNK_SIZE),
                      functools.partial(_run_kclustering, "kmedian"), True,
                      "kmedian: k={k} mean-expected-distance~={objective:.3f} "
                      "[{samples_used} worlds]".format_map),
    "kcenter": Family((_K, _SEED, _SAMPLES, _CHUNK_SIZE),
                      functools.partial(_run_kclustering, "kcenter"), True,
                      "kcenter: k={k} max-expected-distance~={objective:.3f} "
                      "[{samples_used} worlds]".format_map),
    "centrality": Family((_SEED, ("measure", "degree", _measure),
                          ("tol", 0.05, functools.partial(_number, positive=True)),
                          _SAMPLES, _CHUNK_SIZE),
                         _run_centrality, True, _centrality_summary),
}


def phase_breakdown(total_s: float, phases: dict | None, stats: dict | None) -> dict:
    """The per-job ``timings`` payload: wall ms per phase plus world counts.

    ``store_write_ms`` is the oracle appending freshly sampled chunks
    to the world store.  ``distance_ms`` is the oracle's packed BFS
    kernel (expected distances, depth-limited connection, harmonic
    closeness).  ``cluster_ms`` is everything the sampling, store and
    distance phases do not account for (threshold guesses, greedy
    rounds, the degree and betweenness kernels, estimator math).
    mcl/gmm jobs sample no worlds, so their breakdown is all
    ``cluster_ms``.

    Examples
    --------
    >>> out = phase_breakdown(0.25, {"sample_s": 0.1, "label_s": 0.05,
    ...                              "store_read_s": 0.0, "store_write_s": 0.01,
    ...                              "distance_s": 0.06, "chunks": 2},
    ...                       {"worlds_cached": 0, "worlds_sampled": 1024})
    >>> out["sample_ms"], out["store_write_ms"], out["distance_ms"], out["cluster_ms"]
    (100.0, 10.0, 60.0, 30.0)
    >>> out["worlds_sampled"]
    1024
    """
    phases = phases or {}
    sample_s = phases.get("sample_s", 0.0)
    label_s = phases.get("label_s", 0.0)
    store_read_s = phases.get("store_read_s", 0.0)
    store_write_s = phases.get("store_write_s", 0.0)
    distance_s = phases.get("distance_s", 0.0)
    cluster_s = max(
        total_s - sample_s - label_s - store_read_s - store_write_s - distance_s, 0.0
    )
    return {
        "total_ms": round(total_s * 1000.0, 3),
        "sample_ms": round(sample_s * 1000.0, 3),
        "label_ms": round(label_s * 1000.0, 3),
        "store_read_ms": round(store_read_s * 1000.0, 3),
        "store_write_ms": round(store_write_s * 1000.0, 3),
        "distance_ms": round(distance_s * 1000.0, 3),
        "cluster_ms": round(cluster_s * 1000.0, 3),
        "worlds_sampled": int(stats["worlds_sampled"]) if stats else 0,
        "worlds_reused": int(stats["worlds_cached"]) if stats else 0,
    }
