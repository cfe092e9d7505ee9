"""Multi-process job execution for the clustering service.

The thread-pool :class:`~repro.service.jobs.JobQueue` keeps every job
inside the service process, where the GIL serializes the numpy-light
parts of mcp/acp — one heavy job starves the rest.  This module scales
the service *horizontally*: a front-door asyncio process keeps the HTTP
listener, graph registry, and admission control, and dispatches
clustering jobs to N spawned **worker processes**
(:class:`WorkerPool`), each holding its own
:class:`~repro.service.cache.OracleCache` over the *same* on-disk
:class:`~repro.sampling.store.WorldStore` — the flock append protocol
makes concurrent writers safe, so two workers cold-sampling one digest
converge on a single consistent pool.

Routing (the cross-process coalescing ledger)
    Identical in-flight submissions are already coalesced by the
    front door (one :class:`Job` per canonical key).  On top of that,
    the pool keeps an LRU *affinity ledger* mapping a job's world-pool
    identity ``(graph, revision, seed)`` to the
    worker that last served it, so repeat jobs land on the worker whose
    in-memory cache is already warm — zero sampling, bit-identical
    labels — instead of warming N caches.

Cancellation
    Workers poll a per-job *cancel flag file* in the pool's spool
    directory from the ``cancel_check`` hook; the front door creates
    the file on ``DELETE /v1/jobs/{id}``.  This is the cross-process
    analogue of the in-process ``threading.Event``.

Events
    Workers push ``running`` / ``progress`` / terminal events onto one
    shared queue; a drainer thread in the front door applies them to
    the :class:`Job` records, which the SSE endpoint then streams.

:func:`execute_clustering` is the single clustering runner shared by
both execution models, so thread mode and process mode cannot drift.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.baselines.gmm import gmm_clustering
from repro.baselines.mcl import mcl_clustering
from repro.core.acp import acp_clustering
from repro.core.mcp import mcp_clustering
from repro.exceptions import JobCancelledError, ServiceError
from repro.sampling.sizes import PracticalSchedule
from repro.service.jobs import (
    _JOB_SECONDS,
    _JOBS_COALESCED,
    _JOBS_COMPLETED,
    _JOBS_SUBMITTED,
    _QUEUE_DEPTH,
    TERMINAL_STATES,
    Job,
    _algorithm_of,
    canonical_key,
    job_number,
    prune_terminal_jobs,
)
from repro.workloads import (
    expected_centrality,
    kcenter_clustering,
    kmedian_clustering,
)

#: Upper bound on request-supplied sample budgets.  This is the
#: library's default ``max_samples`` oracle guard: letting a request
#: raise its own cap would turn one HTTP call into an arbitrarily large
#: uninterruptible sampling run on a worker.
MAX_REQUEST_SAMPLES = 1_000_000

#: Affinity-ledger capacity (distinct warm pools the router remembers).
_LEDGER_CAPACITY = 256


def _phase_breakdown(total_s: float, phases: dict | None, stats: dict | None) -> dict:
    """The per-job ``timings`` payload: wall ms per phase plus world counts.

    ``distance_ms`` is the oracle's packed BFS kernel (expected
    distances, depth-limited connection, harmonic closeness).
    ``cluster_ms`` is everything the sampling and distance phases do not
    account for (threshold guesses, greedy rounds, the degree and
    betweenness kernels, estimator math).
    mcl/gmm jobs sample no worlds, so their breakdown is all
    ``cluster_ms``.

    Examples
    --------
    >>> out = _phase_breakdown(0.25, {"sample_s": 0.1, "label_s": 0.05,
    ...                               "store_read_s": 0.0, "distance_s": 0.06,
    ...                               "chunks": 2},
    ...                        {"worlds_cached": 0, "worlds_sampled": 1024})
    >>> out["sample_ms"], out["distance_ms"], out["cluster_ms"], out["worlds_sampled"]
    (100.0, 60.0, 40.0, 1024)
    """
    phases = phases or {}
    sample_s = phases.get("sample_s", 0.0)
    label_s = phases.get("label_s", 0.0)
    store_read_s = phases.get("store_read_s", 0.0)
    distance_s = phases.get("distance_s", 0.0)
    cluster_s = max(total_s - sample_s - label_s - store_read_s - distance_s, 0.0)
    return {
        "total_ms": round(total_s * 1000.0, 3),
        "sample_ms": round(sample_s * 1000.0, 3),
        "label_ms": round(label_s * 1000.0, 3),
        "store_read_ms": round(store_read_s * 1000.0, 3),
        "distance_ms": round(distance_s * 1000.0, 3),
        "cluster_ms": round(cluster_s * 1000.0, 3),
        "worlds_sampled": int(stats["worlds_sampled"]) if stats else 0,
        "worlds_reused": int(stats["worlds_cached"]) if stats else 0,
    }


def execute_clustering(job_id: str, params: dict, graph, ancestors, cache, *,
                       cancel_check=None, progress=None) -> dict:
    """Run one normalized clustering job and return its result payload.

    The single runner behind both execution models: the in-process
    thread queue and the spawned worker processes call exactly this
    function, so results (including the warm/cold cache accounting and
    the bit-identical assignment guarantees) cannot differ between
    them.

    Parameters
    ----------
    job_id:
        Recorded in the payload (``payload["job"]``).
    params:
        Normalized job parameters (see ``normalize_job_params``).
    graph, ancestors:
        The resolved graph and its mutation lineage (for oracle-cache
        pool derivation).
    cache:
        The executing side's :class:`~repro.service.cache.OracleCache`.
    cancel_check, progress:
        Threaded through to the algorithm driver (mcp/acp, the
        k-median/k-center/centrality workloads); ``progress`` receives
        one JSON-safe dict per threshold guess (mcp/acp), greedy round
        (kmedian/kcenter) or sampling round (centrality).
    """
    algorithm = params["algorithm"]
    started = time.perf_counter()
    if cancel_check is not None:
        cancel_check()
    payload = {"job": job_id, "algorithm": algorithm, "graph": params["graph"]}
    with telemetry.get_tracer().span("job", job=job_id, algorithm=algorithm,
                                     graph=params["graph"]):
        payload.update(_execute_algorithm(
            job_id, algorithm, params, graph, ancestors, cache,
            cancel_check=cancel_check, progress=progress,
        ))
        phases = payload.pop("_phases", None)
        stats = payload.pop("_stats", None)
    if cancel_check is not None:
        cancel_check()
    total_s = time.perf_counter() - started
    payload["elapsed_s"] = total_s
    payload["timings"] = _phase_breakdown(total_s, phases, stats)
    return payload


def _execute_algorithm(job_id: str, algorithm: str, params: dict, graph,
                       ancestors, cache, *, cancel_check, progress) -> dict:
    """The per-algorithm body of :func:`execute_clustering`.

    Returns the algorithm's payload fields plus the private
    ``_phases``/``_stats`` keys (this job's oracle phase timings and
    world accounting) that the caller folds into ``timings``.
    """
    payload = {}
    phases = stats = None
    if algorithm in ("mcp", "acp"):
        schedule = PracticalSchedule(max_samples=params["samples"])
        with cache.lease(
            graph,
            seed=params["seed"],
            chunk_size=params["chunk_size"],
            max_samples=MAX_REQUEST_SAMPLES,
            ancestors=ancestors,
        ) as oracle:
            run = mcp_clustering if algorithm == "mcp" else acp_clustering
            result = run(
                None,
                params["k"],
                oracle=oracle,
                seed=params["seed"],
                depth=params["depth"],
                sample_schedule=schedule,
                cancel_check=cancel_check,
                progress=progress,
            )
            stats = oracle.cache_stats
            phases = oracle.phase_timings
        clustering = result.clustering
        payload.update(
            k=params["k"],
            seed=params["seed"],
            q_final=result.q_final,
            samples_used=result.samples_used,
            n_guesses=result.n_guesses,
            worlds_cached=stats["worlds_cached"],
            worlds_sampled=stats["worlds_sampled"],
            warm=stats["worlds_sampled"] == 0 and stats["worlds_cached"] > 0,
            pool_digest=oracle.pool_digest,
        )
        if algorithm == "mcp":
            payload["min_prob"] = result.min_prob_estimate
            payload["covers_all"] = result.covers_all
        else:
            payload["avg_prob"] = result.avg_prob_estimate
            payload["phi_best"] = result.phi_best
    elif algorithm in ("kmedian", "kcenter"):
        with cache.lease(
            graph,
            seed=params["seed"],
            chunk_size=params["chunk_size"],
            max_samples=MAX_REQUEST_SAMPLES,
            ancestors=ancestors,
        ) as oracle:
            run = kmedian_clustering if algorithm == "kmedian" else kcenter_clustering
            result = run(
                None,
                params["k"],
                oracle=oracle,
                samples=params["samples"],
                cancel_check=cancel_check,
                progress=progress,
            )
            stats = oracle.cache_stats
            phases = oracle.phase_timings
        clustering = result.clustering
        payload.update(
            k=params["k"],
            seed=params["seed"],
            objective=result.objective,
            samples_used=result.samples_used,
            n_rounds=result.n_rounds,
            worlds_cached=stats["worlds_cached"],
            worlds_sampled=stats["worlds_sampled"],
            warm=stats["worlds_sampled"] == 0 and stats["worlds_cached"] > 0,
            pool_digest=oracle.pool_digest,
        )
    elif algorithm == "centrality":
        with cache.lease(
            graph,
            seed=params["seed"],
            chunk_size=params["chunk_size"],
            max_samples=MAX_REQUEST_SAMPLES,
            ancestors=ancestors,
        ) as oracle:
            result = expected_centrality(
                None,
                measure=params["measure"],
                oracle=oracle,
                samples=params["samples"],
                tol=params["tol"],
                cancel_check=cancel_check,
                progress=progress,
            )
            stats = oracle.cache_stats
            phases = oracle.phase_timings
        clustering = None
        payload.update(
            measure=params["measure"],
            seed=params["seed"],
            tol=params["tol"],
            values=np.asarray(result.values, dtype=float).tolist(),
            half_width=result.half_width,
            converged=result.converged,
            samples_used=result.samples_used,
            n_rounds=result.n_rounds,
            worlds_cached=stats["worlds_cached"],
            worlds_sampled=stats["worlds_sampled"],
            warm=stats["worlds_sampled"] == 0 and stats["worlds_cached"] > 0,
            pool_digest=oracle.pool_digest,
        )
    elif algorithm == "mcl":
        result = mcl_clustering(graph, inflation=params["inflation"])
        clustering = result.clustering
        payload.update(inflation=params["inflation"], n_clusters=result.n_clusters)
    else:  # gmm
        clustering = gmm_clustering(graph, params["k"], seed=params["seed"])
        payload.update(k=params["k"], seed=params["seed"])
    if clustering is not None:
        payload["assignment"] = np.asarray(clustering.assignment).astype(int).tolist()
        payload["centers"] = np.asarray(clustering.centers).astype(int).tolist()
    payload["_phases"] = phases
    payload["_stats"] = stats
    return payload


@dataclass(frozen=True)
class WorkerConfig:
    """Picklable startup configuration of one worker process."""

    world_cache: str | None
    cache_bytes: int
    spool_dir: str
    #: Span log shared by the whole fleet (append-only JSON lines);
    #: ``None`` leaves tracing disabled in the worker.
    trace_log: str | None = None


def pool_affinity_key(params: dict, key_suffix: str) -> str:
    """The world-pool identity a job's oracle lease resolves to.

    Jobs with equal keys reuse one sampled pool, so the router sends
    them to the same worker.  ``key_suffix`` carries the graph-registry
    revision (as in the coalescing key), so mutated graphs get fresh
    affinity.  mcl/gmm jobs sample no worlds; their key still routes
    repeats of the same graph together, which is harmless.
    """
    identity = {"graph": params.get("graph"), "seed": params.get("seed")}
    return canonical_key(identity) + f"#{key_suffix}"


def _worker_main(worker_id: int, tasks, events, config: WorkerConfig) -> None:
    """Entry point of one spawned worker process.

    Builds the worker's own WorldStore + OracleCache (sharing the
    on-disk cache directory with every sibling — the flock append
    protocol makes the concurrent writes safe), then executes tasks
    ``(job_id, params, graph, ancestors, trace_id)`` off ``tasks``
    until the ``None`` sentinel, reporting lifecycle and progress
    events on ``events`` as ``(job_id, kind, data)``.

    Telemetry: the worker's own registry accumulates every counter the
    instrumented layers touch; after each job the movement since the
    last ship is sent as a ``(None, "metrics", delta)`` event *before*
    the job's terminal event, so by the time the front door marks a job
    terminal the fleet-level ``GET /v1/metrics`` already includes the
    job's contribution.
    """
    # Imported here (not at module top) only for clarity of what the
    # worker side actually needs; spawn re-imports this module anyway.
    from repro.sampling.store import WorldStore
    from repro.service.cache import OracleCache

    if config.trace_log:
        telemetry.get_tracer().configure(config.trace_log)
    store = WorldStore(config.world_cache)
    cache = OracleCache(store, max_bytes=config.cache_bytes)
    cache.attach_metrics()
    registry = telemetry.get_registry()
    registry.take_delta()  # baseline: don't re-ship pre-fork/import counts

    def ship_metrics() -> None:
        delta = registry.take_delta()
        if delta["counters"] or delta["histograms"]:
            events.put((None, "metrics", delta))

    events.put((None, "ready", {"worker": worker_id}))
    while True:
        task = tasks.get()
        if task is None:
            break
        job_id, params, graph, ancestors, trace_id = task
        cancel_path = os.path.join(config.spool_dir, f"{job_id}.cancel")

        def cancel_check(path=cancel_path, job=job_id) -> None:
            if os.path.exists(path):
                raise JobCancelledError(f"job {job} cancelled")

        def progress(data, job=job_id) -> None:
            events.put((job, "progress", data))

        events.put((job_id, "running", {"worker": worker_id}))
        try:
            with telemetry.get_tracer().trace(trace_id or job_id):
                result = execute_clustering(
                    job_id, params, graph, ancestors, cache,
                    cancel_check=cancel_check, progress=progress,
                )
        except JobCancelledError as error:
            ship_metrics()
            events.put((job_id, "cancelled", {"error": str(error) or "cancelled"}))
        except Exception as error:  # noqa: BLE001 - job boundary
            ship_metrics()
            events.put((job_id, "failed", {"error": f"{type(error).__name__}: {error}"}))
        else:
            ship_metrics()
            events.put((job_id, "done", {"result": result, "worker": worker_id}))


class ProcessJobQueue:
    """Job queue dispatching to spawned worker processes.

    API-compatible with :class:`~repro.service.jobs.JobQueue` (submit /
    get / list / cancel / shutdown / active_count), so
    :class:`~repro.service.app.ClusterService` treats the two
    interchangeably.  Jobs are routed per-worker through the affinity
    ledger (see the module docstring); each worker has a private task
    queue so affinity is preserved even under contention.

    A worker that dies hard (segfault, OOM kill) takes its queued jobs
    with it — they stay ``running``/``queued`` until shutdown cancels
    them.  The grace-period drain in ``POST /v1/shutdown`` bounds the
    damage; supervising and respawning workers is out of scope here.

    Parameters
    ----------
    workers:
        Worker *process* count (>= 1).
    world_cache:
        Shared on-disk world-store directory (or ``None`` for
        per-worker in-memory stores — pools are then warm only via the
        affinity ledger, never shared across workers).
    cache_bytes:
        Per-worker oracle-cache budget.
    retain:
        Terminal jobs kept for result retrieval (as in
        :class:`~repro.service.jobs.JobQueue`).
    trace_log:
        Span-log path handed to every worker process (``None`` disables
        tracing in the workers).
    """

    def __init__(self, *, workers: int = 2, world_cache=None,
                 cache_bytes: int = 256 << 20, retain: int = 256,
                 trace_log: str | None = None):
        import multiprocessing as mp

        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if retain <= 0:
            raise ValueError(f"retain must be positive, got {retain}")
        self.workers = int(workers)
        self._retain = int(retain)
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, str] = {}  # canonical key -> job id
        self._client_active: dict[str, int] = {}
        self._next_id = 1
        self._spool_dir = tempfile.mkdtemp(prefix="repro-spool-")
        self._ledger: OrderedDict[str, int] = OrderedDict()
        self._load = [0] * self.workers  # outstanding jobs per worker
        self._closed = False

        ctx = mp.get_context("spawn")
        config = WorkerConfig(
            world_cache=None if world_cache is None else str(world_cache),
            cache_bytes=int(cache_bytes),
            spool_dir=self._spool_dir,
            trace_log=None if trace_log is None else str(trace_log),
        )
        self._events = ctx.Queue()
        self._tasks = [ctx.Queue() for _ in range(self.workers)]
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(worker_id, self._tasks[worker_id], self._events, config),
                name=f"repro-worker-{worker_id}",
                daemon=True,
            )
            for worker_id in range(self.workers)
        ]
        for proc in self._procs:
            proc.start()
        self._drainer = threading.Thread(
            target=self._drain_events, name="repro-job-events", daemon=True
        )
        self._drainer.start()

    # ------------------------------------------------------------------
    # Front-door API (mirrors JobQueue)
    # ------------------------------------------------------------------

    def submit(self, params: dict, *, key_suffix: str = "",
               context: object = None, client: str = "", trace_id: str = "",
               admit=None) -> tuple[Job, bool]:
        """Enqueue ``params`` or coalesce onto an identical in-flight job.

        Semantics match :meth:`repro.service.jobs.JobQueue.submit`
        (coalescing, ``admit`` under the lock for new jobs only); the
        job is dispatched to the worker the affinity ledger selects.
        """
        key = canonical_key(params) + (f"#{key_suffix}" if key_suffix else "")
        if isinstance(context, tuple):
            graph, ancestors = context
        else:
            graph, ancestors = context, ()
        with self._lock:
            if self._closed:
                raise ServiceError("job queue is shut down", status=503)
            existing_id = self._inflight.get(key)
            if existing_id is not None:
                job = self._jobs[existing_id]
                job.coalesced += 1
                _JOBS_COALESCED.labels(algorithm=_algorithm_of(params)).inc()
                return job, True
            if admit is not None:
                admit(self._snapshot_locked(client))
            job = Job(id=f"job-{self._next_id:06d}", key=key, params=dict(params),
                      context=context, client=client, trace_id=trace_id)
            self._next_id += 1
            worker_id = self._route_locked(params, key_suffix)
            job.add_event("queued", {"params": job.params, "worker": worker_id})
            self._jobs[job.id] = job
            self._inflight[key] = job.id
            self._load[worker_id] += 1
            if client:
                self._client_active[client] = self._client_active.get(client, 0) + 1
            _JOBS_SUBMITTED.labels(algorithm=_algorithm_of(params)).inc()
            _QUEUE_DEPTH.set(sum(self._load))
            prune_terminal_jobs(self._jobs, self._retain)
            self._tasks[worker_id].put(
                (job.id, params, graph, ancestors, trace_id or job.id)
            )
        return job, False

    def _route_locked(self, params: dict, key_suffix: str) -> int:
        """Pick a worker: ledger affinity first, least-loaded otherwise."""
        affinity = pool_affinity_key(params, key_suffix)
        worker_id = self._ledger.get(affinity)
        if worker_id is None:
            worker_id = min(range(self.workers), key=lambda w: self._load[w])
        self._ledger[affinity] = worker_id
        self._ledger.move_to_end(affinity)
        while len(self._ledger) > _LEDGER_CAPACITY:
            self._ledger.popitem(last=False)
        return worker_id

    def _snapshot_locked(self, client: str) -> dict:
        queued = running = 0
        for job in self._jobs.values():
            if job.status == "queued":
                queued += 1
            elif job.status == "running":
                running += 1
        return {
            "queued": queued,
            "running": running,
            "client_active": self._client_active.get(client, 0) if client else 0,
            "workers": self.workers,
        }

    def get(self, job_id: str) -> Job:
        """The job with ``job_id``, or a 404 :class:`ServiceError`."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"no such job: {job_id}", status=404)
        return job

    def list(self) -> list[Job]:
        """All retained jobs, in submission (job id) order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job_number(job.id))

    def active_count(self) -> int:
        """Number of non-terminal jobs (queued + running)."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values() if job.status not in TERMINAL_STATES
            )

    def cancel(self, job_id: str) -> Job:
        """Cancel ``job_id`` cooperatively; terminal jobs are untouched.

        Drops the cancel flag file the executing worker polls from its
        ``cancel_check`` hook, so a queued job is cancelled when the
        worker dequeues it and a running one at its next threshold
        guess — callers may see ``queued``/``running`` for a short
        while.  Coalescing against the job stops immediately.
        """
        job = self.get(job_id)
        with self._lock:
            if job.status in TERMINAL_STATES:
                return job
            job.cancel_event.set()
            if self._inflight.get(job.key) == job.id:
                del self._inflight[job.key]
            self._write_cancel_flag(job.id)
        return job

    def _write_cancel_flag(self, job_id: str) -> None:
        try:
            with open(os.path.join(self._spool_dir, f"{job_id}.cancel"), "w") as flag:
                flag.write("cancelled\n")
        except OSError:  # pragma: no cover - spool dir removed mid-shutdown
            pass

    def shutdown(self, *, grace_s: float = 5.0) -> None:
        """Stop the pool: cancel outstanding jobs, then stop workers.

        Outstanding jobs get cancel flags and the workers a ``None``
        sentinel; workers that fail to exit within ``grace_s`` seconds
        are terminated.  Jobs still non-terminal after that are marked
        ``cancelled`` by the front door so no client polls forever.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            outstanding = [
                job for job in self._jobs.values()
                if job.status not in TERMINAL_STATES
            ]
            for job in outstanding:
                job.cancel_event.set()
                if self._inflight.get(job.key) == job.id:
                    del self._inflight[job.key]
                self._write_cancel_flag(job.id)
        for tasks in self._tasks:
            tasks.put(None)
        deadline = time.monotonic() + max(grace_s, 0.0)
        for proc in self._procs:
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        self._events.put(None)  # stop the drainer
        self._drainer.join(timeout=5)
        with self._lock:
            for job in self._jobs.values():
                if job.status not in TERMINAL_STATES:
                    self._finish_locked(job, "cancelled", error="cancelled at shutdown")
        for queue in (*self._tasks, self._events):
            queue.close()
            queue.cancel_join_thread()
        shutil.rmtree(self._spool_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Event drainer (front-door thread)
    # ------------------------------------------------------------------

    def _drain_events(self) -> None:
        while True:
            try:
                event = self._events.get()
            except (EOFError, OSError):  # pragma: no cover - queue closed
                return
            if event is None:
                return
            job_id, kind, data = event
            if job_id is None:  # pool-level events ("ready", "metrics")
                if kind == "metrics":
                    # A worker shipped its counter/histogram movement;
                    # fold it into the front door's registry so
                    # GET /v1/metrics reflects the whole fleet.
                    telemetry.get_registry().merge_delta(data)
                continue
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or job.status in TERMINAL_STATES:
                    # Pruned or already finalized (e.g. cancelled at
                    # shutdown while the worker still reported): drop.
                    continue
                if kind == "running":
                    job.status = "running"
                    job.started_at = time.time()
                    job.add_event("running", data)
                elif kind == "progress":
                    job.add_event("progress", data)
                elif kind == "done":
                    job.result = data["result"]
                    self._finish_locked(job, "done")
                elif kind in ("failed", "cancelled"):
                    self._finish_locked(job, kind, error=data.get("error"))

    def _finish_locked(self, job: Job, status: str, *, error: str | None = None) -> None:
        job.status = status
        job.error = error
        job.finished_at = time.time()
        if job.started_at is None:
            job.started_at = job.finished_at
        if self._inflight.get(job.key) == job.id:
            del self._inflight[job.key]
        if job.client:
            remaining = self._client_active.get(job.client, 0) - 1
            if remaining > 0:
                self._client_active[job.client] = remaining
            else:
                self._client_active.pop(job.client, None)
        # Free the routing load slot of the worker that ran the job.
        worker_id = job.events[0]["data"].get("worker") if job.events else None
        if worker_id is not None and 0 <= worker_id < self.workers:
            self._load[worker_id] = max(self._load[worker_id] - 1, 0)
        flag = os.path.join(self._spool_dir, f"{job.id}.cancel")
        if os.path.exists(flag):
            try:
                os.unlink(flag)
            except OSError:  # pragma: no cover
                pass
        algorithm = _algorithm_of(job.params)
        _JOBS_COMPLETED.labels(algorithm=algorithm, status=status).inc()
        _JOB_SECONDS.labels(algorithm=algorithm).observe(
            job.finished_at - job.started_at)
        _QUEUE_DEPTH.set(sum(self._load))
        data = {"status": status, "error": error}
        if isinstance(job.result, dict) and job.result.get("timings") is not None:
            data["timings"] = job.result["timings"]
        job.add_event(status, data)
