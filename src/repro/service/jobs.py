"""Background job queue: one bookkeeping core, two executors.

Long-running requests (mcp/acp clustering, k-median/k-center,
centrality, and the mcl/gmm baselines) do not block the event loop:
:class:`JobQueue` records each one as a :class:`Job` and hands it to an
*executor*, while HTTP clients long-poll ``GET /v1/jobs/{id}?wait=``, stream
``/v1/jobs/{id}/events``, and fetch ``/v1/jobs/{id}/result``.

The queue owns every piece of job state: ids, the coalescing ledger,
per-client counts and the admission snapshot, cancel, retain/prune,
and finishing a job (metrics plus the terminal event).  An executor
only runs jobs and reports back through the queue's callbacks
(:meth:`JobQueue.job_started`, :meth:`~JobQueue.job_progress`,
:meth:`~JobQueue.job_finished`); it never changes a job itself.  Two
executors exist:

* :class:`ThreadExecutor` (here) runs ``runner(job)`` on a
  :class:`~concurrent.futures.ThreadPoolExecutor` inside the service
  process — the library default and ``repro serve --workers 0``;
* :class:`repro.service.workers.WorkerPool` dispatches jobs to spawned
  worker processes (``repro serve --workers N``);
  :class:`~repro.service.workers.ProcessJobQueue` is a :class:`JobQueue`
  wired to one.

Coalescing invariant
    Jobs are keyed by the canonical JSON of their *normalized*
    parameters (:func:`canonical_key`).  Submitting a job whose key
    matches a job that is still queued or running returns the existing
    job instead of enqueueing a duplicate — N identical in-flight
    requests share one computation (and, through the shared world
    store, one sampled pool).  A job that has finished is never
    coalesced against: a repeat after completion is a fresh job, which
    the oracle cache then serves warm with zero new sampling.

Cancellation
    ``cancel()`` sets the job's event, and the job stops being a
    coalescing target at once.  The thread executor withdraws a job
    that has not started and marks it ``cancelled`` synchronously.  The
    worker pool cannot reach into a worker's task queue: it drops a
    cancel flag file, so a queued job is cancelled when its worker
    dequeues it (after a ``running`` event).  Under either executor a
    running job is unwound cooperatively at its next ``cancel_check``
    (between threshold guesses in mcp/acp) via
    :class:`~repro.exceptions.JobCancelledError`.

Events
    Every lifecycle transition (and every progress report from the
    clustering progress hook) is appended to ``job.events`` with a
    monotone per-job ``seq`` — the replayable record the SSE endpoint
    streams.  :meth:`Job.add_event` is the one place both executors
    record events, so it is also where waiting ends: coroutines parked
    in :meth:`Job.wait_events` / :meth:`Job.wait_terminal` (the
    long-poll ``GET /v1/jobs/{id}?wait=``, the SSE tail, the shutdown
    drain) are woken on their own event loop through
    ``loop.call_soon_threadsafe``, whichever thread records the event.

Admission
    ``submit(..., admit=...)`` invokes the admission callback under the
    queue lock *only when a brand-new job would be created* — coalesced
    resubmissions are never rejected (they add no load), and the check
    is race-free against concurrent submissions.

Shutdown
    ``shutdown()`` closes the queue first: a later submission answers
    503 before anything is registered.  Outstanding jobs are then
    cancelled, the executor is stopped, and any job still not terminal
    is marked ``cancelled`` so no client waits forever.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from collections import Counter
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import telemetry
from repro.exceptions import JobCancelledError, ServiceError

_JOBS_SUBMITTED = telemetry.get_registry().counter(
    "repro_jobs_submitted_total",
    "New jobs enqueued (coalesced resubmissions not included), by algorithm.",
    ("algorithm",),
)
_JOBS_COALESCED = telemetry.get_registry().counter(
    "repro_jobs_coalesced_total",
    "Submissions folded onto an identical in-flight job, by algorithm.",
    ("algorithm",),
)
_JOBS_COMPLETED = telemetry.get_registry().counter(
    "repro_jobs_completed_total",
    "Jobs reaching a terminal state, by algorithm and outcome.",
    ("algorithm", "status"),
)
_JOB_SECONDS = telemetry.get_registry().histogram(
    "repro_job_seconds",
    "Job wall time from start to terminal state, by algorithm.",
    ("algorithm",),
    buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0),
)
_QUEUE_DEPTH = telemetry.get_registry().gauge(
    "repro_jobs_queue_depth",
    "Jobs currently queued or running.",
)


def _algorithm_of(params: dict) -> str:
    return str(params.get("algorithm", "unknown"))


#: Every state a job can be in; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: The states a job never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Default / maximum page sizes of :func:`paginate_jobs`.
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 1000

#: Longest ``?wait=`` (seconds) a job-status long-poll may ask for.
MAX_WAIT_S = 60.0


def canonical_key(params: dict) -> str:
    """Canonical JSON of normalized job parameters (the coalescing key).

    Two parameter dicts with the same contents — regardless of key
    order — produce the same key, so identical requests coalesce.

    Examples
    --------
    >>> canonical_key({"k": 2, "graph": "toy"}) == canonical_key(
    ...     {"graph": "toy", "k": 2})
    True
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def job_number(job_id: str) -> int:
    """The monotone sequence number behind a ``job-NNNNNN`` id.

    Raises a 400 :class:`ServiceError` for malformed ids (the
    pagination cursor is a job id supplied by the client).

    Examples
    --------
    >>> job_number("job-000042")
    42
    """
    prefix, sep, digits = job_id.partition("-")
    if prefix != "job" or not sep or not digits.isdigit():
        raise ServiceError(f"malformed job id: {job_id!r}", status=400)
    return int(digits)


@dataclass
class Job:
    """One background clustering request and its lifecycle state."""

    id: str
    key: str
    params: dict
    status: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    result: dict | None = None
    error: str | None = None
    #: Extra identical submissions folded into this job while in flight.
    coalesced: int = 0
    #: Admission-control identity of the submitting client.
    client: str = ""
    #: Trace id of the submitting request (``X-Request-Id``); spans
    #: emitted while the job runs nest under this trace.
    trace_id: str = ""
    #: Replayable event log (lifecycle transitions + progress reports).
    events: list[dict] = field(default_factory=list)
    cancel_event: threading.Event = field(default_factory=threading.Event, repr=False)
    #: Payload captured at submission: the service stores the resolved
    #: ``(graph, ancestors)`` here so a job is immune to the registry
    #: entry being replaced mid-flight.  Never serialized.
    context: object = field(default=None, repr=False)
    _events_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: Futures of coroutines parked in :meth:`wait_events`; the next
    #: :meth:`add_event` resolves them all.
    _waiters: list[asyncio.Future] = field(default_factory=list, repr=False)

    def add_event(self, event: str, data: dict | None = None) -> dict:
        """Append an event record ``{"seq", "event", "data", "ts"}``.

        ``seq`` is monotone per job, so the SSE endpoint can replay the
        history and then tail new events without duplication.  Every
        waiter parked in :meth:`wait_events` is woken on its own loop.
        """
        with self._events_lock:
            record = {
                "seq": len(self.events),
                "event": event,
                "data": dict(data) if data else {},
                "ts": time.time(),
            }
            self.events.append(record)
            waiters, self._waiters = self._waiters, []
        for future in waiters:
            try:
                future.get_loop().call_soon_threadsafe(_wake, future)
            except RuntimeError:  # the waiter's loop has closed
                pass
        return record

    async def wait_events(self, count: int, timeout: float | None = None) -> bool:
        """Wait until the job holds more than ``count`` events.

        Returns False if ``timeout`` seconds (``None``: no limit) pass
        first.  A waiter that times out or is cancelled unregisters
        itself, so nothing is left on the job.
        """
        future = asyncio.get_running_loop().create_future()
        with self._events_lock:
            if len(self.events) > count:
                return True
            self._waiters.append(future)
        try:
            await asyncio.wait_for(future, timeout)
            return True
        except TimeoutError:
            return False
        finally:
            with self._events_lock:
                if future in self._waiters:
                    self._waiters.remove(future)

    async def wait_terminal(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for a terminal status; True once reached."""
        deadline = time.monotonic() + timeout
        while True:
            # Count before reading the status: a job turns terminal
            # before its terminal event is appended, so a status seen
            # non-terminal means that event lies beyond ``seen``.
            seen = len(self.events)
            if self.status in TERMINAL_STATES:
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not await self.wait_events(seen, remaining):
                return self.status in TERMINAL_STATES

    def describe(self) -> dict:
        """JSON-safe status summary (no result payload).

        ``timings`` is the per-job phase breakdown recorded by the
        runner (sample/label/cluster wall ms, worlds sampled vs
        reused); ``None`` until the job finishes successfully.
        """
        elapsed = None
        if self.started_at is not None:
            elapsed = (self.finished_at or time.time()) - self.started_at
        timings = None
        if isinstance(self.result, dict):
            timings = self.result.get("timings")
        return {
            "id": self.id,
            "status": self.status,
            "params": self.params,
            "coalesced": self.coalesced,
            "error": self.error,
            "elapsed_s": elapsed,
            "events": len(self.events),
            "timings": timings,
        }


def _wake(future: asyncio.Future) -> None:
    if not future.done():
        future.set_result(None)


def paginate_jobs(jobs, *, state: str | None = None, limit=None,
                  cursor: str | None = None) -> tuple[list[Job], str | None]:
    """Filter, order, and paginate a job collection.

    Jobs are ordered by their monotone id (submission order) so pages
    are stable: pruning can only remove jobs, never reorder them, and a
    ``cursor`` (the last job id of the previous page) always resumes
    *after* that id even if the job itself has been pruned meanwhile.

    Returns ``(page, next_cursor)`` where ``next_cursor`` is ``None``
    on the last page.  Raises a 400 :class:`ServiceError` for an
    unknown ``state``, a malformed ``cursor``, or an out-of-range
    ``limit``.
    """
    if state is not None and state not in JOB_STATES:
        raise ServiceError(
            f"state must be one of {', '.join(JOB_STATES)}, got {state!r}", status=400
        )
    if limit is None:
        limit = DEFAULT_PAGE_LIMIT
    try:
        limit = int(limit)
    except (TypeError, ValueError):
        raise ServiceError(f"malformed limit: {limit!r}", status=400) from None
    if not 1 <= limit <= MAX_PAGE_LIMIT:
        raise ServiceError(
            f"limit must be in [1, {MAX_PAGE_LIMIT}], got {limit}", status=400
        )
    after = job_number(cursor) if cursor is not None else -1
    matching = sorted(
        (
            job for job in jobs
            if job_number(job.id) > after
            and (state is None or job.status == state)
        ),
        key=lambda job: job_number(job.id),
    )
    page = matching[:limit]
    next_cursor = page[-1].id if len(matching) > limit else None
    return page, next_cursor


def prune_terminal_jobs(jobs: dict[str, Job], retain: int) -> None:
    """Delete the oldest terminal jobs of ``jobs`` beyond ``retain``.

    Queues insert jobs in job-number order and never reinsert one, so
    walking the dict in order meets the oldest terminal jobs first;
    queued and running jobs are never removed.

    Examples
    --------
    >>> jobs = {f"job-{i:06d}": Job(id=f"job-{i:06d}", key=str(i), params={})
    ...         for i in (1, 2, 3)}
    >>> jobs["job-000001"].status = jobs["job-000003"].status = "done"
    >>> prune_terminal_jobs(jobs, retain=1)
    >>> list(jobs)
    ['job-000002', 'job-000003']
    """
    excess = sum(job.status in TERMINAL_STATES for job in jobs.values()) - retain
    if excess > 0:
        terminal = (job_id for job_id, job in jobs.items() if job.status in TERMINAL_STATES)
        for job_id in list(itertools.islice(terminal, excess)):
            del jobs[job_id]




class JobQueue:
    """Job bookkeeping — coalescing, admission, cancel, finish — over an executor.

    Parameters
    ----------
    runner:
        ``runner(job) -> dict`` run by the :class:`ThreadExecutor` on a
        worker thread; its return value becomes ``job.result``.
        Raising :class:`JobCancelledError` marks the job ``cancelled``;
        any other exception marks it ``failed`` with the message
        recorded.  ``None`` leaves the executor to a subclass
        (:class:`~repro.service.workers.ProcessJobQueue`).
    workers:
        How many jobs run concurrently (executor threads, or worker
        processes for the worker pool).
    retain:
        How many *terminal* jobs to keep for result retrieval; the
        oldest (by job id, deterministically) are pruned beyond this.
    """

    def __init__(self, runner: Callable[[Job], dict] | None, *, workers: int = 2,
                 retain: int = 256):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if retain <= 0:
            raise ValueError(f"retain must be positive, got {retain}")
        self.workers = int(workers)
        self._retain = int(retain)
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, str] = {}  # canonical key -> job id
        self._ids = itertools.count(1)
        self._active = 0  # queued + running (mirrors the depth gauge)
        self._client_active: Counter[str] = Counter()
        self._closed = False
        self._executor = None if runner is None else ThreadExecutor(self, runner)

    def submit(self, params: dict, *, key_suffix: str = "",
               context: object = None, client: str = "", trace_id: str = "",
               admit: Callable[[dict], None] | None = None) -> tuple[Job, bool]:
        """Enqueue ``params`` (or coalesce onto an identical in-flight job).

        Returns ``(job, coalesced)`` — ``coalesced`` is True when an
        existing queued/running job with the same canonical key was
        returned instead of a new one.  ``key_suffix`` extends the
        coalescing key with identity the params alone cannot carry (the
        service passes the graph-registry revision, so jobs against a
        re-uploaded graph never coalesce across contents); ``context``
        is attached to the job for the executor (the service passes
        ``(graph, ancestors)``); ``client`` is the submitting client's
        admission identity.

        ``admit`` (if given) is called under the queue lock with a
        snapshot ``{"queued", "running", "client_active", "workers"}``
        before a *new* job is created; raising
        :class:`~repro.exceptions.ServiceError` from it rejects the
        submission race-free.  Coalesced submissions skip the check.
        A queue that has been shut down rejects every submission with
        a 503 before registering anything.
        """
        key = canonical_key(params) + (f"#{key_suffix}" if key_suffix else "")
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
            job = Job(id=f"job-{next(self._ids):06d}", key=key, params=dict(params),
                      context=context, client=client, trace_id=trace_id)
            # The executor cannot report back before the lock is
            # released, so "queued" is always the job's first event.
            placement = self._executor.submit(job, key_suffix)
            job.add_event("queued", {"params": job.params, **placement})
            self._jobs[job.id] = job
            self._inflight[key] = job.id
            if client:
                self._client_active[client] += 1
            _JOBS_SUBMITTED.labels(algorithm=_algorithm_of(params)).inc()
            self._active += 1
            _QUEUE_DEPTH.set(self._active)
            prune_terminal_jobs(self._jobs, self._retain)
        return job, False

    def _snapshot_locked(self, client: str) -> dict:
        states = Counter(job.status for job in self._jobs.values())
        return {
            "queued": states["queued"],
            "running": states["running"],
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
            return self._active

    def cancel(self, job_id: str) -> Job:
        """Cancel ``job_id``; terminal jobs are left untouched.

        The job stops being a coalescing target immediately — a fresh
        identical submission gets a fresh job rather than latching onto
        one that is doomed to finish ``cancelled``.  When the job
        reaches ``cancelled`` depends on the executor (see the module
        docstring), so callers may still see ``queued``/``running``
        briefly.
        """
        job = self.get(job_id)
        with self._lock:
            if job.status not in TERMINAL_STATES:
                self._cancel_locked(job)
        return job

    def _cancel_locked(self, job: Job) -> None:
        job.cancel_event.set()
        if self._inflight.get(job.key) == job.id:
            del self._inflight[job.key]
        if self._executor.withdraw(job):
            self._finish_locked(job, "cancelled", error="cancelled before start")

    def shutdown(self) -> None:
        """Close the queue, cancel outstanding jobs, and stop the executor."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for job in list(self._jobs.values()):
                if job.status not in TERMINAL_STATES:
                    self._cancel_locked(job)
        self._executor.shutdown()
        with self._lock:
            for job in self._jobs.values():
                if job.status not in TERMINAL_STATES:
                    self._finish_locked(job, "cancelled", error="cancelled at shutdown")

    # ------------------------------------------------------------------
    # Executor callbacks
    # ------------------------------------------------------------------

    def job_started(self, job_id: str, data: dict | None = None) -> bool:
        """Move a queued job to ``running``; False if it is not queued."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status != "queued":
                return False
            job.status = "running"
            job.started_at = time.time()
            job.add_event("running", data)
        return True

    def job_progress(self, job_id: str, data: dict) -> None:
        """Record a progress report of a job that is still in flight."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and job.status not in TERMINAL_STATES:
                job.add_event("progress", data)

    def job_finished(self, job_id: str, status: str, *, result: dict | None = None,
                     error: str | None = None) -> None:
        """Move a job to terminal ``status``.

        A job that is already terminal (withdrawn, or cancelled at
        shutdown while its worker still reported) or pruned is left as
        it is.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status in TERMINAL_STATES:
                return
            if result is not None:
                job.result = result
            self._finish_locked(job, status, error=error)

    def _finish_locked(self, job: Job, status: str, *, error: str | None = None) -> None:
        job.status = status
        job.error = error
        job.finished_at = time.time()
        if job.started_at is None:
            job.started_at = job.finished_at
        if self._inflight.get(job.key) == job.id:
            del self._inflight[job.key]
        if job.client:
            self._client_active[job.client] -= 1
            if self._client_active[job.client] <= 0:
                del self._client_active[job.client]
        self._executor.release(job)
        algorithm = _algorithm_of(job.params)
        _JOBS_COMPLETED.labels(algorithm=algorithm, status=status).inc()
        _JOB_SECONDS.labels(algorithm=algorithm).observe(
            job.finished_at - job.started_at)
        self._active -= 1
        _QUEUE_DEPTH.set(self._active)
        data = {"status": status, "error": error}
        if isinstance(job.result, dict) and job.result.get("timings") is not None:
            data["timings"] = job.result["timings"]
        job.add_event(status, data)


class ThreadExecutor:
    """Runs a :class:`JobQueue`'s jobs on threads of the service process.

    The executor seam every executor implements, all called with the
    queue lock held: ``submit(job, key_suffix)`` starts a job and
    returns extra ``queued`` event data; ``withdraw(job)`` returns True
    if the job was stopped before it started; ``release(job)`` drops
    the executor's own record of a finished job.  ``shutdown()`` runs
    without the lock and returns once no job is executing.

    ``runner`` is the test seam for thread mode: swapping it changes
    what jobs submitted afterwards run.
    """

    def __init__(self, queue: JobQueue, runner: Callable[[Job], dict]):
        self.runner = runner
        self._queue = queue
        self._futures: dict[str, Future] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=queue.workers, thread_name_prefix="repro-job"
        )

    def submit(self, job: Job, key_suffix: str) -> dict:
        self._futures[job.id] = self._pool.submit(self._run, job)
        return {}

    def withdraw(self, job: Job) -> bool:
        future = self._futures.get(job.id)
        return future is not None and future.cancel()

    def release(self, job: Job) -> None:
        self._futures.pop(job.id, None)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)

    def _run(self, job: Job) -> None:
        queue = self._queue
        if job.cancel_event.is_set():  # cancelled after its thread picked it up
            queue.job_finished(job.id, "cancelled", error="cancelled before start")
            return
        if not queue.job_started(job.id):
            return
        try:
            with telemetry.get_tracer().trace(job.trace_id or job.id):
                result = self.runner(job)
        except JobCancelledError as error:
            queue.job_finished(job.id, "cancelled", error=str(error) or "cancelled")
        except Exception as error:  # noqa: BLE001 - job boundary
            queue.job_finished(job.id, "failed", error=f"{type(error).__name__}: {error}")
        else:
            queue.job_finished(job.id, "done", result=result)
