"""Worker-process executor of the job queue, and the shared clustering runner.

:class:`~repro.service.jobs.JobQueue` keeps all job bookkeeping; this
module supplies its second executor.  The thread executor keeps every
job inside the service process, where the GIL serializes the
numpy-light parts of mcp/acp — one heavy job starves the rest.
:class:`WorkerPool` scales the service *horizontally*: the front-door
asyncio process keeps the HTTP listener, graph registry, admission
control and the job queue, and dispatches jobs to N spawned **worker
processes**, each holding its own
:class:`~repro.service.cache.OracleCache` over the *same* on-disk
:class:`~repro.sampling.store.WorldStore` — the flock append protocol
makes concurrent writers safe, so two workers cold-sampling one digest
converge on a single consistent pool.  :class:`ProcessJobQueue` is a
job queue wired to a worker pool.

Routing (the cross-process coalescing ledger)
    Identical in-flight submissions are already coalesced by the
    queue (one :class:`~repro.service.jobs.Job` per canonical key).  On
    top of that, the pool keeps an LRU *affinity ledger* mapping a
    job's world-pool identity ``(graph, revision, seed)`` to the
    worker that last served it, so repeat jobs land on the worker whose
    in-memory cache is already warm — zero sampling, bit-identical
    labels — instead of warming N caches.

Cancellation
    Workers poll a per-job *cancel flag file* in the pool's spool
    directory from the ``cancel_check`` hook; the pool creates the file
    when the queue cancels the job (``DELETE /v1/jobs/{id}``).  This is
    the cross-process analogue of the in-process ``threading.Event``.
    A queued job is therefore cancelled only when its worker dequeues
    it, after a ``running`` event.

Events
    Workers push ``running`` / ``progress`` / terminal events onto one
    shared queue; a drainer thread in the front door hands them to the
    job queue's callbacks, which update the job records the SSE
    endpoint streams.  Each job ends in exactly one terminal message
    (``done`` / ``failed`` / ``cancelled``) that also carries the
    worker's metric delta, merged before the job turns terminal.
    Recording that event (:meth:`~repro.service.jobs.Job.add_event`)
    wakes the front door's waiters — long-polls, SSE tails, the
    shutdown drain — on the event loop, so no client polls for it.

:func:`execute_clustering` is the single clustering runner shared by
both executors, so thread mode and process mode cannot drift.
"""

from __future__ import annotations

import functools
import os
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.exceptions import JobCancelledError
from repro.service.jobs import JobQueue, canonical_key
from repro.workloads.families import FAMILIES, MAX_REQUEST_SAMPLES, phase_breakdown

#: Affinity-ledger capacity (distinct warm pools the router remembers).
_LEDGER_CAPACITY = 256


def execute_clustering(job_id: str, params: dict, graph, ancestors, cache, *,
                       cancelled=None, progress=None) -> dict:
    """Run one normalized clustering job and return its result payload.

    The single runner behind both executors: the thread executor (via
    the service's runner) and the spawned worker processes call exactly
    this function, so results (including the warm/cold cache accounting
    and the bit-identical assignment guarantees) cannot differ between
    them.  A family that samples (see
    :data:`~repro.workloads.families.FAMILIES`) runs on one oracle
    leased from ``cache``; mcl and gmm run on the graph itself.

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
    cancelled:
        A predicate; once it returns true the job raises
        :class:`~repro.exceptions.JobCancelledError` at its next check
        (its start and end, and before every threshold guess, greedy
        round or sampling round).
    progress:
        Receives one JSON-safe dict per threshold guess (mcp/acp),
        greedy round (kmedian/kcenter) or sampling round (centrality).
    """
    algorithm = params["algorithm"]
    family = FAMILIES[algorithm]
    started = time.perf_counter()

    def cancel_check() -> None:
        if cancelled is not None and cancelled():
            raise JobCancelledError(f"job {job_id} cancelled")

    cancel_check()
    payload = {"job": job_id, "algorithm": algorithm, "graph": params["graph"]}
    phases = stats = None
    with telemetry.get_tracer().span("job", job=job_id, algorithm=algorithm,
                                     graph=params["graph"]):
        if not family.leases_oracle:  # mcl / gmm run on the graph itself
            clustering, fields = family.run(graph, None, params, cancel_check, progress)
            payload.update(fields)
        else:
            with cache.lease(
                graph,
                seed=params["seed"],
                chunk_size=params["chunk_size"],
                max_samples=MAX_REQUEST_SAMPLES,
                ancestors=ancestors,
            ) as oracle:
                clustering, fields = family.run(graph, oracle, params, cancel_check, progress)
                stats = oracle.cache_stats
                phases = oracle.phase_timings
            payload.update(
                fields,
                worlds_cached=stats["worlds_cached"],
                worlds_sampled=stats["worlds_sampled"],
                warm=stats["worlds_sampled"] == 0 and stats["worlds_cached"] > 0,
                pool_digest=oracle.pool_digest,
            )
        if clustering is not None:
            payload["assignment"] = np.asarray(clustering.assignment).astype(int).tolist()
            payload["centers"] = np.asarray(clustering.centers).astype(int).tolist()
    cancel_check()
    total_s = time.perf_counter() - started
    payload["elapsed_s"] = total_s
    payload["timings"] = phase_breakdown(total_s, phases, stats)
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
    instrumented layers touch; the movement since the previous job
    rides in the job's terminal event as ``data["metrics"]``, and the
    front door merges it before marking the job terminal, so the
    fleet-level ``GET /v1/metrics`` already includes a job once it
    reads terminal.  The worker never renders its registry, so the
    cache's scrape-time collector is not attached here.
    """
    # Imported here (not at module top) only for clarity of what the
    # worker side actually needs; spawn re-imports this module anyway.
    from repro.sampling.store import WorldStore
    from repro.service.cache import OracleCache

    if config.trace_log:
        telemetry.get_tracer().configure(config.trace_log)
    store = WorldStore(config.world_cache)
    cache = OracleCache(store, max_bytes=config.cache_bytes)
    registry = telemetry.get_registry()
    registry.take_delta()  # baseline: don't re-ship pre-fork/import counts

    while True:
        task = tasks.get()
        if task is None:
            break
        job_id, params, graph, ancestors, trace_id = task
        cancel_path = os.path.join(config.spool_dir, f"{job_id}.cancel")

        def progress(data, job=job_id) -> None:
            events.put((job, "progress", data))

        events.put((job_id, "running", {"worker": worker_id}))
        try:
            with telemetry.get_tracer().trace(trace_id or job_id):
                result = execute_clustering(
                    job_id, params, graph, ancestors, cache,
                    cancelled=functools.partial(os.path.exists, cancel_path),
                    progress=progress,
                )
        except JobCancelledError as error:
            kind, data = "cancelled", {"error": str(error) or "cancelled"}
        except Exception as error:  # noqa: BLE001 - job boundary
            kind, data = "failed", {"error": f"{type(error).__name__}: {error}"}
        else:
            kind, data = "done", {"result": result}
        data["metrics"] = registry.take_delta()
        events.put((job_id, kind, data))


class WorkerPool:
    """Executor of a :class:`~repro.service.jobs.JobQueue` over spawned worker processes.

    Implements the executor seam described on
    :class:`~repro.service.jobs.ThreadExecutor`.  It spawns the workers,
    routes each job through the affinity ledger (see the module
    docstring) onto that worker's private task queue — so affinity
    holds even under contention — drops cancel flag files, and drains
    the workers' events into the queue's callbacks.  It keeps only
    routing state (the ledger, per-worker load, and which worker runs
    each job); job state stays with the queue.

    A worker that dies hard (segfault, OOM kill) takes its queued jobs
    with it — they stay ``running``/``queued`` until shutdown cancels
    them.  The grace-period drain in ``POST /v1/shutdown`` bounds the
    damage; supervising and respawning workers is out of scope here.
    """

    #: Seconds :meth:`shutdown` waits for workers before terminating them.
    SHUTDOWN_GRACE_S = 5.0

    def __init__(self, queue, *, world_cache=None, cache_bytes: int = 256 << 20,
                 trace_log: str | None = None):
        import multiprocessing as mp

        self._queue = queue
        self.workers = queue.workers
        self._spool_dir = tempfile.mkdtemp(prefix="repro-spool-")
        self._ledger: OrderedDict[str, int] = OrderedDict()
        self._load = [0] * self.workers  # outstanding jobs per worker
        self._worker_of: dict[str, int] = {}  # job id -> worker running it

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

    def submit(self, job, key_suffix: str) -> dict:
        """Route ``job`` to a worker; the ``queued`` event names it."""
        worker_id = self._route(job.params, key_suffix)
        self._load[worker_id] += 1
        self._worker_of[job.id] = worker_id
        graph, ancestors = job.context
        self._tasks[worker_id].put(
            (job.id, job.params, graph, ancestors, job.trace_id or job.id)
        )
        return {"worker": worker_id}

    def _route(self, params: dict, key_suffix: str) -> int:
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

    def withdraw(self, job) -> bool:
        """Drop the cancel flag the job's worker polls; never withdraws.

        A queued job is cancelled when its worker dequeues it, a
        running one at its next ``cancel_check``.
        """
        try:
            with open(self._flag_path(job.id), "w") as flag:
                flag.write("cancelled\n")
        except OSError:  # pragma: no cover - spool dir removed mid-shutdown
            pass
        return False

    def release(self, job) -> None:
        """Free the routing slot of the worker that ran ``job``."""
        worker_id = self._worker_of.pop(job.id, None)
        if worker_id is not None:
            self._load[worker_id] = max(self._load[worker_id] - 1, 0)
        try:
            os.unlink(self._flag_path(job.id))
        except OSError:
            pass

    def _flag_path(self, job_id: str) -> str:
        return os.path.join(self._spool_dir, f"{job_id}.cancel")

    def shutdown(self) -> None:
        """Stop the workers, then the drainer; remove the spool directory.

        Workers get a ``None`` sentinel; those that fail to exit within
        :attr:`SHUTDOWN_GRACE_S` seconds are terminated.
        """
        for tasks in self._tasks:
            tasks.put(None)
        deadline = time.monotonic() + self.SHUTDOWN_GRACE_S
        for proc in self._procs:
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        self._events.put(None)  # stop the drainer
        self._drainer.join(timeout=5)
        for queue in (*self._tasks, self._events):
            queue.close()
            queue.cancel_join_thread()
        shutil.rmtree(self._spool_dir, ignore_errors=True)

    def _drain_events(self) -> None:
        """Front-door thread: apply worker events through the queue."""
        queue = self._queue
        while True:
            try:
                event = self._events.get()
            except (EOFError, OSError):  # pragma: no cover - queue closed
                return
            if event is None:
                return
            job_id, kind, data = event
            if kind == "running":
                queue.job_started(job_id, data)
            elif kind == "progress":
                queue.job_progress(job_id, data)
            else:  # "done" / "failed" / "cancelled"
                # Fold the worker's counter/histogram movement in first,
                # so GET /v1/metrics covers a job once it reads terminal.
                telemetry.get_registry().merge_delta(data["metrics"])
                queue.job_finished(job_id, kind, result=data.get("result"),
                                   error=data.get("error"))


class ProcessJobQueue(JobQueue):
    """A :class:`~repro.service.jobs.JobQueue` executed by a :class:`WorkerPool`.

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
        Terminal jobs kept for result retrieval.
    trace_log:
        Span-log path handed to every worker process (``None`` disables
        tracing in the workers).
    """

    def __init__(self, *, workers: int = 2, world_cache=None,
                 cache_bytes: int = 256 << 20, retain: int = 256,
                 trace_log: str | None = None):
        super().__init__(None, workers=workers, retain=retain)
        self._executor = WorkerPool(self, world_cache=world_cache,
                                    cache_bytes=cache_bytes, trace_log=trace_log)
