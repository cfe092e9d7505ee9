"""The async clustering service: registry, endpoints, jobs, cache.

:class:`ClusterService` wires the whole pipeline behind a versioned
HTTP/JSON API (served by :mod:`repro.service.http`).  Every route
lives under ``/v1`` (see ``docs/API.md`` for the full surface,
including status codes and the SSE event schema):

====== ================================= ======================================
method endpoint                          purpose
====== ================================= ======================================
GET    ``/v1/healthz``                   liveness + queue/cache counters
GET    ``/v1/version``                   package version
GET    ``/v1/graphs``                    list registered graphs
PUT    ``/v1/graphs/{name}``             upload a graph (``.uel`` text or JSON)
GET    ``/v1/graphs/{name}``             graph statistics
DELETE ``/v1/graphs/{name}``             unregister a graph
PATCH  ``/v1/graphs/{name}/edges``       mutate edges (add/remove/update)
GET    ``/v1/graphs/{name}/estimate``    synchronous reliability estimate
POST   ``/v1/jobs``                      submit a clustering job (202)
GET    ``/v1/jobs``                      list jobs (``state``/``limit``/``cursor``)
GET    ``/v1/jobs/{id}``                 job status (``?wait=`` long-polls)
GET    ``/v1/jobs/{id}/events``          job progress stream (SSE)
GET    ``/v1/jobs/{id}/result``          job result (409 until ``done``)
DELETE ``/v1/jobs/{id}``                 cancel a job
GET    ``/v1/cache``                     oracle-cache statistics
GET    ``/v1/metrics``                   Prometheus text metrics (whole fleet)
POST   ``/v1/shutdown``                  drain in-flight jobs, then stop
====== ================================= ======================================

Cheap queries (estimates, stats) run synchronously — but off the event
loop, on the default executor.  Clustering jobs go through a job queue
(coalescing, cancellation, progress events): one
:class:`~repro.service.jobs.JobQueue` core that runs jobs on in-process
threads by default, or — with ``worker_processes >= 1`` — the
:class:`~repro.service.workers.ProcessJobQueue`, the same core
dispatching to spawned worker processes each holding its own oracle
cache over the same on-disk world store.  Either way a warm repeated
request samples zero new worlds and returns labels bit-identical to
the equivalent direct library call — see ``docs/ARCHITECTURE.md`` for
the invariants and ``tests/test_service.py`` for the pins.

Admission control (:class:`~repro.service.admission.AdmissionControl`)
fronts every request: optional per-client token-bucket rate limits,
queue-depth backpressure, and a per-client jobs-in-flight bound — all
reported as 429 with ``Retry-After``.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import math
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import __version__, telemetry
from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.exceptions import GraphValidationError, ReproError, ServiceError
from repro.graph.io import parse_uncertain_graph_text
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.store import WorldStore
from repro.service.admission import AdmissionControl
from repro.service.cache import OracleCache
from repro.service.http import (
    EventStream,
    HttpServer,
    Request,
    Response,
    Router,
    sse_event,
)
from repro.service.jobs import MAX_WAIT_S, TERMINAL_STATES, JobQueue, paginate_jobs
from repro.service.workers import ProcessJobQueue, execute_clustering
from repro.workloads.families import FAMILIES, MAX_REQUEST_SAMPLES, integer

_JOB_ALGORITHMS = tuple(FAMILIES)
#: Every field some family takes; any other body field is a 400.
_JOB_FIELDS = {"graph", "algorithm"} | {
    name for family in FAMILIES.values() for name, _default, _parse in family.params}

#: Query keys ``GET /v1/graphs/{name}/estimate`` accepts; any other key
#: is a 400, as unknown job fields are.
_ESTIMATE_QUERY_KEYS = frozenset({"u", "v", "samples", "seed", "depth"})

#: Ancestor revisions the registry keeps per graph for pool derivation.
#: Nearest first; the oracle cache derives from the first one whose
#: pool is still warm, so a short chain covers bursts of mutations.
MAX_ANCESTORS = 4


@dataclass
class _GraphEntry:
    """One registry slot: a loaded graph or a lazy builtin loader."""

    name: str
    source: str
    revision: int
    graph: UncertainGraph | None = None
    loader: object = None
    #: Earlier revisions of this graph, nearest first — the lineage the
    #: oracle cache derives world pools from after a PATCH mutation.
    ancestors: tuple = ()
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


class GraphRegistry:
    """Named uncertain graphs served by the service.

    Built-in datasets are registered as lazy loaders (generated on
    first use, so startup stays instant); uploads are held directly.
    All operations are thread-safe — jobs resolve graphs from executor
    threads.

    Every (re-)registration — uploads *and* ``PATCH`` mutations — gets
    a fresh *revision* number.  Job coalescing keys include it, so a
    job submitted against a graph that was later re-uploaded or mutated
    under the same name never coalesces with (or serves results for)
    the replaced contents.  Mutations additionally record the replaced
    graph in the entry's ancestor lineage (up to :data:`MAX_ANCESTORS`,
    nearest first) so the oracle cache can derive the new revision's
    world pool instead of cold-resampling it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict[str, _GraphEntry] = {}
        self._revisions = itertools.count(1)

    def register_graph(self, name: str, graph: UncertainGraph, *, source: str = "upload") -> None:
        """Insert or replace the graph stored under ``name``."""
        with self._lock:
            self._entries[name] = _GraphEntry(
                name=name, source=source, revision=next(self._revisions), graph=graph
            )

    def register_loader(self, name: str, loader, *, source: str = "builtin") -> None:
        """Register a zero-argument callable that builds the graph lazily."""
        with self._lock:
            self._entries[name] = _GraphEntry(
                name=name, source=source, revision=next(self._revisions), loader=loader
            )

    def get(self, name: str) -> UncertainGraph:
        """The graph under ``name`` (loading it first if lazy).

        Raises a 404 :class:`ServiceError` for unknown names; a loader
        failure surfaces as a 500 with the underlying message.
        """
        return self.resolve_with_ancestors(name)[0]

    def resolve_with_ancestors(self, name: str) -> tuple[UncertainGraph, int, tuple]:
        """``(graph, revision, ancestors)``, loading lazily (404 miss).

        ``ancestors`` are the graph's replaced revisions, nearest first
        — empty unless the entry has been mutated.  Pass them to
        :meth:`repro.service.cache.OracleCache.lease` to enable pool
        derivation.
        """
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ServiceError(f"no such graph: {name}", status=404)
        if entry.graph is None:
            with entry.lock:
                if entry.graph is None:
                    try:
                        entry.graph = entry.loader()
                    except Exception as error:
                        raise ServiceError(
                            f"loading graph {name!r} failed: {error}", status=500
                        ) from error
        return entry.graph, entry.revision, entry.ancestors

    def mutate(self, name: str, *, add=(), remove=(), update=()):
        """Apply edge mutations to the graph under ``name``.

        Returns ``(graph, revision, counts)`` — the new graph object,
        its fresh registry revision (so in-flight jobs against the old
        revision can never coalesce with post-mutation submissions),
        and the ``{"added", "removed", "updated"}`` op counts of
        :meth:`UncertainGraph.mutate`.  The
        replaced graph is pushed onto the entry's ancestor lineage for
        pool derivation.  Validation failures surface as 400
        :class:`ServiceError`; the registry entry is only replaced on
        success (mutations are atomic under the registry lock).
        """
        self.resolve_with_ancestors(name)  # 404 for unknown names; loads lazy builtins
        with self._lock:
            entry = self._entries.get(name)
            if entry is None or entry.graph is None:  # pragma: no cover - race window
                raise ServiceError(f"no such graph: {name}", status=404)
            try:
                graph, counts = entry.graph.mutate(add=add, remove=remove, update=update)
            except GraphValidationError as error:
                raise ServiceError(f"invalid mutation: {error}", status=400) from error
            ancestors = (entry.graph,) + entry.ancestors[: MAX_ANCESTORS - 1]
            revision = next(self._revisions)
            self._entries[name] = _GraphEntry(
                name=name, source=entry.source, revision=revision,
                graph=graph, ancestors=ancestors,
            )
        return graph, revision, counts

    def remove(self, name: str) -> None:
        """Unregister ``name`` (404 :class:`ServiceError` when unknown)."""
        with self._lock:
            if name not in self._entries:
                raise ServiceError(f"no such graph: {name}", status=404)
            del self._entries[name]

    def describe(self) -> list[dict]:
        """JSON-safe summaries, loaded graphs with node/edge counts."""
        with self._lock:
            entries = list(self._entries.values())
        rows = []
        for entry in sorted(entries, key=lambda e: e.name):
            row = {"name": entry.name, "source": entry.source,
                   "revision": entry.revision, "loaded": entry.graph is not None}
            if entry.graph is not None:
                row["nodes"] = entry.graph.n_nodes
                row["edges"] = entry.graph.n_edges
            rows.append(row)
        return rows

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _edge_triples(edges):
    """Yield upload edges, each checked to be a ``[u, v, p]`` triple.

    ``from_edges`` checks each probability (the decoded ``NaN`` and
    ``Infinity`` literals included) and names the edge's position.
    """
    for position, edge in enumerate(edges, start=1):
        if not isinstance(edge, (list, tuple)) or len(edge) != 3:
            raise ServiceError(f"edge {position}: expected a [u, v, p] triple, got {edge!r}")
        yield edge


def normalize_job_params(body: dict) -> dict:
    """Validate a job-submission body into canonical parameters.

    Checks the graph name and the algorithm here; the family table
    (:data:`~repro.workloads.families.FAMILIES`) fills every default
    and drops fields the algorithm ignores, so two requests that mean
    the same computation get the same coalescing key.

    Examples
    --------
    >>> a = normalize_job_params({"graph": "toy", "k": 2})
    >>> b = normalize_job_params({"graph": "toy", "k": 2, "seed": 0})
    >>> a == b
    True
    >>> normalize_job_params({"graph": "toy", "algorithm": "mcl", "k": 3})
    {'graph': 'toy', 'algorithm': 'mcl', 'inflation': 2.0}
    """
    if not isinstance(body, dict):
        raise ServiceError("job body must be a JSON object")
    unknown = set(body) - _JOB_FIELDS
    if unknown:
        raise ServiceError(f"unknown job fields: {sorted(unknown)}")
    graph = body.get("graph")
    if not isinstance(graph, str) or not graph:
        raise ServiceError("job field 'graph' (string) is required")
    algorithm = body.get("algorithm", "mcp")
    if algorithm not in _JOB_ALGORITHMS:
        # Stable code so clients can branch on "this algorithm does not
        # exist here" without parsing the message.
        raise ServiceError(
            f"algorithm must be one of {_JOB_ALGORITHMS}, got {algorithm!r}",
            code="unknown_algorithm",
        )
    return {"graph": graph, "algorithm": algorithm, **FAMILIES[algorithm].normalize(body)}


class ClusterService:
    """Application state and request handlers of the clustering service.

    Parameters
    ----------
    world_cache:
        Optional directory for a disk-backed
        :class:`~repro.sampling.store.WorldStore`; ``None`` keeps the
        pool cache purely in memory.  With worker processes, this is
        the directory every worker's store shares.
    cache_bytes:
        LRU byte budget of the oracle cache (per process).
    job_workers:
        Concurrent clustering jobs in thread mode (executor threads).
    worker_processes:
        ``0`` (default) executes jobs on the in-process thread queue;
        ``>= 1`` spawns that many worker processes
        (:class:`~repro.service.workers.ProcessJobQueue`) and
        dispatches jobs to them.
    admission:
        The :class:`~repro.service.admission.AdmissionControl` policy;
        default enables queue-depth and per-client job bounds but no
        token-bucket rate limit.
    shutdown_grace_s:
        Default drain grace of ``POST /v1/shutdown`` (a request body
        may override it per call).
    datasets:
        Built-in dataset names to pre-register as lazy loaders.
    dataset_scale:
        ``scale=`` used when a built-in dataset is first loaded.
    trace_log:
        Optional span-log path (JSON lines).  Configures the process
        tracer and is handed to every worker process, so one file
        collects the whole fleet's spans (the per-line ``trace_id``
        keeps requests apart).
    """

    def __init__(
        self,
        *,
        world_cache=None,
        cache_bytes: int = 256 << 20,
        job_workers: int = 2,
        worker_processes: int = 0,
        admission: AdmissionControl | None = None,
        shutdown_grace_s: float = 5.0,
        datasets=DATASET_NAMES,
        dataset_scale: float = 1.0,
        trace_log: str | None = None,
    ):
        if trace_log is not None:
            telemetry.get_tracer().configure(str(trace_log))
        self.cache = OracleCache(WorldStore(world_cache), max_bytes=cache_bytes)
        # The one code path behind both GET /v1/cache and the
        # repro_cache_* metric series — the two views cannot drift.
        self.cache.attach_metrics()
        self.graphs = GraphRegistry()
        self.worker_processes = int(worker_processes)
        if self.worker_processes > 0:
            self.jobs = ProcessJobQueue(
                workers=self.worker_processes,
                world_cache=world_cache,
                cache_bytes=cache_bytes,
                trace_log=None if trace_log is None else str(trace_log),
            )
        else:
            self.jobs = JobQueue(self._run_job, workers=job_workers)
        self.admission = admission if admission is not None else AdmissionControl()
        self._grace_s = float(shutdown_grace_s)
        self._draining = False
        self._drain_task = None
        self._started = time.monotonic()
        self._started_wall = time.time()
        self.shutdown_event = asyncio.Event()
        for name in datasets:
            self.graphs.register_loader(
                name,
                functools.partial(self._load_builtin, name, dataset_scale),
                source="builtin",
            )
        self.router = self._build_router()

    @staticmethod
    def _load_builtin(name: str, scale: float) -> UncertainGraph:
        graph, _complexes = load_dataset(name, seed=0, scale=scale)
        return graph

    @property
    def draining(self) -> bool:
        """Whether a graceful shutdown drain is in progress."""
        return self._draining

    def close(self) -> None:
        """Stop the job queue (cancelling outstanding jobs)."""
        self.jobs.shutdown()

    # ------------------------------------------------------------------
    # Routing and admission
    # ------------------------------------------------------------------

    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/v1/healthz", self._handle_health)
        router.add("GET", "/v1/version", self._handle_version)
        router.add("GET", "/v1/graphs", self._handle_graphs_list)
        router.add("PUT", "/v1/graphs/{name}", self._handle_graph_upload)
        router.add("POST", "/v1/graphs/{name}", self._handle_graph_upload)
        router.add("GET", "/v1/graphs/{name}", self._handle_graph_stats)
        router.add("DELETE", "/v1/graphs/{name}", self._handle_graph_delete)
        router.add("PATCH", "/v1/graphs/{name}/edges", self._handle_graph_mutate)
        router.add("GET", "/v1/graphs/{name}/estimate", self._handle_estimate)
        router.add("POST", "/v1/jobs", self._handle_job_submit)
        router.add("GET", "/v1/jobs", self._handle_jobs_list)
        router.add("GET", "/v1/jobs/{id}", self._handle_job_status)
        router.add("GET", "/v1/jobs/{id}/events", self._handle_job_events)
        router.add("GET", "/v1/jobs/{id}/result", self._handle_job_result)
        router.add("DELETE", "/v1/jobs/{id}", self._handle_job_cancel)
        router.add("GET", "/v1/cache", self._handle_cache_stats)
        router.add("GET", "/v1/metrics", self._handle_metrics)
        router.add("POST", "/v1/shutdown", self._handle_shutdown)
        return router

    async def middleware(self, request: Request) -> None:
        """Pre-routing hook: drain-mode 503s, then admission control.

        Mid-drain the service still answers reads (``GET`` — clients
        must be able to poll the jobs they are waiting on), job
        cancellations (they speed the drain), and repeat ``shutdown``
        calls; everything that would *create* work is rejected 503.
        """
        if self._draining:
            allowed = (
                request.method == "GET"
                or request.path == "/v1/shutdown"
                or (request.method == "DELETE" and request.path.startswith("/v1/jobs/"))
            )
            if not allowed:
                raise ServiceError(
                    "service is draining for shutdown", status=503,
                    code="draining", headers={"Retry-After": "1"},
                )
        await self.admission(request)

    # ------------------------------------------------------------------
    # Meta endpoints
    # ------------------------------------------------------------------

    async def _handle_health(self, request: Request):
        states = {}
        for job in self.jobs.list():
            states[job.status] = states.get(job.status, 0) + 1
        uptime = time.monotonic() - self._started
        return 200, {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "started_at": self._started_wall,
            "uptime_seconds": uptime,
            "uptime_s": uptime,  # pre-telemetry spelling, kept for clients
            "graphs": len(self.graphs),
            "jobs": states,
            "workers": self.jobs.workers,
            "mode": "process" if self.worker_processes else "thread",
        }

    async def _handle_version(self, request: Request):
        return 200, {"version": __version__}

    async def _handle_cache_stats(self, request: Request):
        # With worker processes this reports the front door's cache
        # (estimates); each worker holds its own, not aggregated here.
        return 200, self.cache.stats()

    async def _handle_metrics(self, request: Request):
        """``GET /v1/metrics``: the whole fleet, Prometheus text format.

        In process mode the registry already holds every worker's
        shipped counter/histogram deltas (merged by the event drainer),
        so one scrape of the front door covers the fleet.
        """
        return Response(
            200,
            telemetry.get_registry().render(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _handle_shutdown(self, request: Request):
        """``POST /v1/shutdown``: drain in-flight jobs, then stop.

        Optional body ``{"grace_s": seconds}`` overrides the configured
        grace period.  The first call starts the drain (new work is
        rejected 503 from that point); repeats report progress.  The
        server exits once every job is terminal or the grace expires —
        leftover jobs are then cancelled, never abandoned.
        """
        body = request.json()
        if not isinstance(body, dict):
            raise ServiceError("shutdown body must be a JSON object")
        raw = body.get("grace_s", self._grace_s)
        try:
            grace = math.nan if isinstance(raw, bool) else float(raw)
        except (TypeError, ValueError):
            grace = math.nan
        # NaN fails the comparison, so NaN, inf and bools all land here.
        if not 0 <= grace < math.inf:
            raise ServiceError(f"grace_s must be a finite number of seconds >= 0, got {raw!r}")
        active = self.jobs.active_count()
        if not self._draining:
            self._draining = True
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain_then_stop(grace)
            )
        return 202, {"status": "draining", "grace_s": grace, "active_jobs": active}

    async def _drain_then_stop(self, grace_s: float) -> None:
        deadline = time.monotonic() + grace_s
        while True:
            # Re-listed each round: a submission that was already past
            # the middleware when the drain began can still add a job.
            pending = [job for job in self.jobs.list() if job.status not in TERMINAL_STATES]
            remaining = deadline - time.monotonic()
            if not pending or remaining <= 0:
                break
            await asyncio.gather(*(job.wait_terminal(remaining) for job in pending))
        self.shutdown_event.set()

    # ------------------------------------------------------------------
    # Graph endpoints
    # ------------------------------------------------------------------

    async def _handle_graphs_list(self, request: Request):
        return 200, {"graphs": self.graphs.describe()}

    async def _handle_graph_upload(self, request: Request):
        name = request.params["name"]
        # Parsing is CPU-bound (bodies may be tens of MB), so it runs on
        # the executor like every other heavy handler.
        loop = asyncio.get_running_loop()
        graph = await loop.run_in_executor(None, self._parse_upload_sync, request)
        self.graphs.register_graph(name, graph)
        return 200, {"name": name, "nodes": graph.n_nodes, "edges": graph.n_edges}

    @staticmethod
    def _parse_upload_sync(request: Request) -> UncertainGraph:
        content_type = request.headers.get("content-type", "").split(";")[0].strip()
        try:
            if content_type == "application/json":
                body = request.json()
                if not isinstance(body, dict):
                    raise ServiceError("JSON upload body must be an object with an 'edges' list")
                edges = body.get("edges")
                if not isinstance(edges, list):
                    raise ServiceError("JSON uploads need an 'edges' list of [u, v, p] triples")
                return UncertainGraph.from_edges(
                    _edge_triples(edges), merge=body.get("merge", "error")
                )
            return parse_uncertain_graph_text(request.text())
        except ServiceError:
            raise
        except (ReproError, TypeError, ValueError) as error:
            raise ServiceError(f"invalid graph upload: {error}") from error

    async def _handle_graph_stats(self, request: Request):
        name = request.params["name"]
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._graph_stats_sync, name)

    def _graph_stats_sync(self, name: str):
        graph = self.graphs.get(name)
        lcc = graph.largest_component()
        payload = {
            "name": name,
            "nodes": graph.n_nodes,
            "edges": graph.n_edges,
            "expected_edges": graph.expected_edge_count(),
            "largest_component": {"nodes": lcc.n_nodes, "edges": lcc.n_edges},
        }
        if graph.n_edges:
            degrees = graph.degrees()
            prob = graph.edge_prob
            payload["degree"] = {"mean": float(degrees.mean()), "max": int(degrees.max())}
            payload["edge_probability"] = {
                "min": float(prob.min()),
                "median": float(np.median(prob)),
                "max": float(prob.max()),
            }
        return 200, payload

    async def _handle_graph_delete(self, request: Request):
        name = request.params["name"]
        self.graphs.remove(name)
        return 200, {"name": name, "removed": True}

    async def _handle_graph_mutate(self, request: Request):
        """``PATCH /v1/graphs/{name}/edges``: apply edge mutations.

        Body: ``{"ops": [{"op": "add"|"remove"|"update", "u": ...,
        "v": ..., "p": ...}, ...]}`` (or a bare ops list).  The
        mutation bumps the registry revision — so post-mutation job
        submissions never coalesce with pre-mutation ones — and records
        the replaced graph as an ancestor, letting the oracle cache
        derive the new revision's world pool instead of resampling it.
        """
        name = request.params["name"]
        body = request.json()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._mutate_sync, name, body)

    def _mutate_sync(self, name: str, body):
        graph = self.graphs.get(name)  # 404 first; also loads lazy builtins
        add, remove, update = self._parse_mutation_ops(graph, body)
        graph, revision, counts = self.graphs.mutate(
            name, add=add, remove=remove, update=update
        )
        return 200, {
            "name": name,
            "revision": revision,
            "graph_revision": graph.revision,
            "nodes": graph.n_nodes,
            "edges": graph.n_edges,
            "delta": counts,
        }

    @classmethod
    def _parse_mutation_ops(cls, graph: UncertainGraph, body):
        """Validate a PATCH body into ``(add, remove, update)`` label ops."""
        ops = body.get("ops") if isinstance(body, dict) else body
        if not isinstance(ops, list) or not ops:
            raise ServiceError(
                "PATCH body must be {'ops': [...]} (or a bare list) with at "
                "least one {'op': 'add'|'remove'|'update', 'u': ..., 'v': ..., 'p': ...} entry"
            )
        add, remove, update = [], [], []
        for position, op in enumerate(ops, start=1):
            if not isinstance(op, dict):
                raise ServiceError(f"op {position}: expected an object, got {op!r}")
            kind = op.get("op")
            if kind not in ("add", "remove", "update"):
                raise ServiceError(
                    f"op {position}: 'op' must be 'add', 'remove' or 'update', got {kind!r}"
                )
            if "u" not in op or "v" not in op:
                raise ServiceError(f"op {position}: 'u' and 'v' are required")
            # UncertainGraph.index_of is the one token rule, so "3" and 3
            # name the same node here as on the CLI.
            u = graph.label_of(cls._node_index(graph, op["u"]))
            v = graph.label_of(cls._node_index(graph, op["v"]))
            if kind == "remove":
                if op.get("p") is not None:
                    raise ServiceError(f"op {position}: remove takes no probability")
                remove.append((u, v))
                continue
            if "p" not in op:
                raise ServiceError(f"op {position}: {kind} needs a probability 'p'")
            # UncertainGraph.mutate checks p; the registry answers 400.
            (add if kind == "add" else update).append((u, v, op["p"]))
        return add, remove, update

    # ------------------------------------------------------------------
    # Synchronous estimates
    # ------------------------------------------------------------------

    async def _handle_estimate(self, request: Request):
        name = request.params["name"]
        query = request.query
        unknown = set(query) - _ESTIMATE_QUERY_KEYS
        if unknown:
            raise ServiceError(f"unknown estimate query parameters: {sorted(unknown)}")
        if "u" not in query or "v" not in query:
            raise ServiceError("estimate needs 'u' and 'v' query parameters")
        samples = integer(query.get("samples", 2000), "samples", maximum=MAX_REQUEST_SAMPLES)
        seed = integer(query.get("seed", 0), "seed", minimum=0)
        depth = query.get("depth")
        depth = None if depth is None else integer(depth, "depth")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None,
            functools.partial(
                self._estimate_sync, name, query["u"], query["v"],
                samples=samples, seed=seed, depth=depth,
            ),
        )

    def _estimate_sync(self, name, u_label, v_label, *, samples, seed, depth):
        graph, _revision, ancestors = self.graphs.resolve_with_ancestors(name)
        u = self._node_index(graph, u_label)
        v = self._node_index(graph, v_label)
        with self.cache.lease(
            graph, seed=seed, max_samples=MAX_REQUEST_SAMPLES, ancestors=ancestors
        ) as oracle:
            oracle.ensure_samples(samples)
            estimate = oracle.connection(u, v, depth=depth)
            stats = oracle.cache_stats
        return 200, {
            "graph": name,
            "u": u_label,
            "v": v_label,
            "estimate": estimate,
            "samples": samples,
            "seed": seed,
            "depth": depth,
            "worlds_cached": stats["worlds_cached"],
            "worlds_sampled": stats["worlds_sampled"],
        }

    @staticmethod
    def _node_index(graph: UncertainGraph, label) -> int:
        """:meth:`UncertainGraph.index_of`, answering 404 for no node."""
        try:
            return graph.index_of(label)
        except KeyError:
            raise ServiceError(f"no such node: {label!r}", status=404) from None

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    async def _handle_job_submit(self, request: Request):
        params = normalize_job_params(request.json())
        # Resolve the graph now so unknown names fail the submission
        # with a 404 instead of a failed job discovered by polling (in
        # the executor: first touch of a lazy builtin generates it).
        # The resolved object (plus its ancestor lineage, for pool
        # derivation) is captured on the job and its revision folded
        # into the coalescing key: a later re-upload or PATCH mutation
        # under the same name neither coalesces with nor redirects
        # this job.
        loop = asyncio.get_running_loop()
        graph, revision, ancestors = await loop.run_in_executor(
            None, self.graphs.resolve_with_ancestors, params["graph"]
        )
        job, coalesced = self.jobs.submit(
            params, key_suffix=f"rev{revision}", context=(graph, ancestors),
            client=request.client_key, trace_id=request.request_id,
            admit=self.admission.admit_job,
        )
        return 202, {"job": job.id, "status": job.status, "coalesced": coalesced}

    async def _handle_jobs_list(self, request: Request):
        """``GET /v1/jobs``: list with ``state``/``limit``/``cursor``."""
        page, next_cursor = paginate_jobs(
            self.jobs.list(),
            state=request.query.get("state"),
            limit=request.query.get("limit"),
            cursor=request.query.get("cursor"),
        )
        return 200, {
            "jobs": [job.describe() for job in page],
            "next_cursor": next_cursor,
        }

    async def _handle_job_status(self, request: Request):
        """``GET /v1/jobs/{id}``: the job's status summary.

        ``?wait=<seconds>`` (at most :data:`~repro.service.jobs.MAX_WAIT_S`)
        long-polls: the answer comes as soon as the job is terminal, or
        with the still-running description once the wait elapses.
        """
        job = self.jobs.get(request.params["id"])
        raw = request.query.get("wait")
        if raw is not None:
            try:
                wait = float(raw)
            except ValueError:
                wait = None
            # NaN fails both bounds, and infinity the cap.
            if wait is None or not 0 <= wait <= MAX_WAIT_S:
                raise ServiceError(
                    f"wait must be a number of seconds in [0, {MAX_WAIT_S:g}], got {raw!r}"
                )
            await job.wait_terminal(wait)
        return 200, job.describe()

    async def _handle_job_events(self, request: Request):
        """``GET /v1/jobs/{id}/events``: stream the job's events as SSE.

        Replays the job's recorded history from the first event, then
        tails live ones; the stream ends after the terminal event
        (``done``/``failed``/``cancelled``) is delivered, so a client
        connecting after completion still receives the full record.
        Each event carries the *stream* request's id.
        """
        job = self.jobs.get(request.params["id"])
        request_id = request.request_id

        async def stream():
            seq = 0
            while True:
                while seq < len(job.events):
                    record = dict(job.events[seq])
                    record["job"] = job.id
                    record["request_id"] = request_id
                    yield sse_event(record, event=record["event"],
                                    event_id=record["seq"])
                    seq += 1
                    if record["event"] in TERMINAL_STATES:
                        return
                await job.wait_events(seq)

        return EventStream(stream())

    async def _handle_job_result(self, request: Request):
        job = self.jobs.get(request.params["id"])
        if job.status != "done":
            raise ServiceError(
                f"job {job.id} is {job.status}, not done", status=409
            )
        return 200, job.result

    async def _handle_job_cancel(self, request: Request):
        job = self.jobs.cancel(request.params["id"])
        return 202, job.describe()

    def _run_job(self, job) -> dict:
        """Execute one clustering job on a thread-executor thread."""
        # The graph (and its derivation lineage) captured at submission.
        graph, ancestors = job.context
        return execute_clustering(
            job.id, job.params, graph, ancestors, self.cache,
            cancelled=job.cancel_event.is_set,
            progress=functools.partial(job.add_event, "progress"),
        )


class BackgroundServer:
    """Run a :class:`ClusterService` HTTP server on a daemon thread.

    The in-process harness used by the test suite and the service
    benchmark: it owns a private event loop, binds to an ephemeral port
    by default, and tears everything down on exit.  The service's
    shutdown event (set by ``POST /v1/shutdown`` after its drain) stops
    the loop, so graceful shutdown works here exactly as under
    :func:`serve`.

    Use as a context manager::

        with BackgroundServer(service) as server:
            requests to server.base_url ...
    """

    def __init__(self, service: ClusterService, *, host: str = "127.0.0.1", port: int = 0):
        self._service = service
        self._host = host
        self._port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: HttpServer | None = None

    @property
    def base_url(self) -> str:
        """``http://host:port`` of the running server."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return f"http://{self._host}:{self._server.port}"

    @property
    def port(self) -> int:
        """The bound port of the running server."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.port

    def start(self) -> "BackgroundServer":
        """Start the loop thread and wait until the socket is bound."""
        started = threading.Event()
        failure: list[BaseException] = []
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                server = HttpServer(
                    self._service.router, host=self._host, port=self._port,
                    middleware=self._service.middleware,
                )
                self._server = self._loop.run_until_complete(server.start())
            except BaseException as error:  # pragma: no cover - bind failure
                failure.append(error)
                started.set()
                return
            started.set()

            async def watch_shutdown() -> None:
                await self._service.shutdown_event.wait()
                self._loop.stop()

            watcher = self._loop.create_task(watch_shutdown())
            self._loop.run_forever()
            watcher.cancel()
            # Drain: open keep-alive connections hold handler tasks;
            # cancel them before closing the loop or they leak noisily.
            self._loop.run_until_complete(server.close())
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

        self._thread = threading.Thread(target=run, name="repro-serve", daemon=True)
        self._thread.start()
        started.wait(timeout=30)
        if failure:  # pragma: no cover - bind failure
            raise failure[0]
        return self

    def stop(self) -> None:
        """Stop the server, join the thread, shut the job queue down."""
        if self._loop is not None and self._thread is not None:
            # Stop through the shutdown event, as POST /shutdown does, so
            # the loop is stopped once: a second stop() would cut short
            # the teardown a drain that just finished has started.  The
            # loop may already be gone if that teardown is done.
            if not self._loop.is_closed():
                try:
                    self._loop.call_soon_threadsafe(self._service.shutdown_event.set)
                except RuntimeError:  # pragma: no cover - closed in between
                    pass
            self._thread.join(timeout=30)
        self._service.close()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


async def serve_async(service: ClusterService, *, host: str = "127.0.0.1",
                      port: int = 8722, ready=None) -> None:
    """Serve ``service`` until its shutdown event fires.

    ``ready`` (optional callable) is invoked with the bound
    :class:`HttpServer` once the socket is listening — the CLI uses it
    to print the address, tests to discover an ephemeral port.
    SIGINT/SIGTERM trigger the same graceful shutdown as
    ``POST /v1/shutdown`` (without the drain — signals mean *stop*).
    """
    server = await HttpServer(
        service.router, host=host, port=port, middleware=service.middleware
    ).start()
    loop = asyncio.get_running_loop()
    try:
        import signal

        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, service.shutdown_event.set)
    except (ImportError, NotImplementedError, RuntimeError):  # pragma: no cover
        pass
    if ready is not None:
        ready(server)
    try:
        await service.shutdown_event.wait()
    finally:
        await server.close()
        service.close()


def serve(service: ClusterService, *, host: str = "127.0.0.1", port: int = 8722) -> int:
    """Blocking entry point for ``repro serve``; returns the exit code."""

    def announce(server: HttpServer) -> None:
        print(
            f"repro service listening on http://{server.host}:{server.port}",
            file=sys.stderr,
            flush=True,
        )

    asyncio.run(serve_async(service, host=host, port=port, ready=announce))
    print("repro service shut down cleanly", file=sys.stderr, flush=True)
    return 0
