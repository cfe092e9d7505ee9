"""Async clustering service: an HTTP/JSON API over the whole pipeline.

The library-and-CLI reproduction grown into a long-lived process
(``repro serve``): a graph registry, synchronous endpoints for cheap
queries, a background job queue for mcp/acp/mcl/gmm clustering runs —
in-process threads or spawned worker processes — and per-process
oracle caches (LRU byte budget over a shared
:class:`~repro.sampling.store.WorldStore`) that amortize Monte Carlo
world pools across requests — a warm repeated request samples zero new
worlds and returns bit-identical labels.  The HTTP surface is
versioned under ``/v1`` (legacy paths answer with a ``Deprecation``
header), every response carries an ``X-Request-Id``, errors share one
envelope, job progress streams over SSE, and admission control fronts
the queue — see ``docs/API.md``.

Modules
-------
:mod:`repro.service.http`
    Dependency-free asyncio HTTP/1.1 server, router, and SSE streams.
:mod:`repro.service.cache`
    :class:`OracleCache` — the pool cache keyed by ``pool_fingerprint``.
:mod:`repro.service.jobs`
    :class:`JobQueue` — the job-queue core (coalescing, admission,
    cancellation, progress events) over its thread executor, and
    pagination helpers.
:mod:`repro.service.workers`
    :class:`ProcessJobQueue` — the same core over the worker-process
    executor, and the shared clustering runner.
:mod:`repro.service.admission`
    :class:`AdmissionControl` — rate limits and queue backpressure.
:mod:`repro.service.app`
    :class:`ClusterService` — registry, handlers, and the entry points.
:mod:`repro.service.loadgen`
    The ``repro bench-serve`` load generator and asyncio client.
"""

from repro.service.admission import AdmissionControl
from repro.service.app import BackgroundServer, ClusterService, GraphRegistry, serve
from repro.service.cache import OracleCache
from repro.service.http import EventStream, HttpServer, Request, Router
from repro.service.jobs import Job, JobQueue, canonical_key, paginate_jobs
from repro.service.workers import ProcessJobQueue, execute_clustering

__all__ = [
    "AdmissionControl",
    "BackgroundServer",
    "ClusterService",
    "EventStream",
    "GraphRegistry",
    "HttpServer",
    "Job",
    "JobQueue",
    "OracleCache",
    "ProcessJobQueue",
    "Request",
    "Router",
    "canonical_key",
    "execute_clustering",
    "paginate_jobs",
    "serve",
]
