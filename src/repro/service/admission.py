"""Admission control for the clustering service.

Three independent guards keep an overloaded service answering fast
429s (with ``Retry-After``) instead of queueing unboundedly:

per-client token bucket (:class:`TokenBucket` / :class:`RateLimiter`)
    Every request (health/version probes exempted) draws one token
    from its client's bucket — clients are keyed by the ``X-Client-Id``
    header when present, peer address otherwise.  The bucket refills at
    ``rate_limit`` requests/second up to a ``burst`` capacity.
    Disabled by default (``rate_limit=None``): it is a deployment
    policy knob, not something a library default should impose.

queue-depth backpressure (``max_queued``)
    A job submission that would create a *new* job while ``max_queued``
    jobs are already queued is rejected 429 with a ``Retry-After``
    estimated from the backlog per worker.  Coalesced resubmissions
    are never rejected — they add no load.  The check runs inside the
    job queue's lock (via the ``admit`` callback of ``submit``), so
    the bound holds exactly under concurrent submissions.

per-client job bound (``max_jobs_per_client``)
    Caps the non-terminal jobs any single client may hold, so one
    client cannot monopolize the whole queue allowance.

Body size is bounded separately by the HTTP layer
(:data:`repro.service.http.MAX_BODY_BYTES`).
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict

from repro import telemetry
from repro.exceptions import ServiceError

#: Distinct clients tracked before the oldest bucket is evicted.
_MAX_TRACKED_CLIENTS = 1024

#: Paths exempt from rate limiting (probes and scrapes must always
#: answer — a monitoring pull must not consume a client's tokens).
EXEMPT_PATHS = frozenset({"/v1/healthz", "/v1/version", "/v1/metrics"})

_REJECTIONS = telemetry.get_registry().counter(
    "repro_admission_rejections_total",
    "Requests rejected 429, by reason (rate_limit, queue_full, "
    "client_jobs).",
    ("reason",),
)
_TRACKED_CLIENTS = telemetry.get_registry().gauge(
    "repro_admission_tracked_clients",
    "Distinct clients currently holding a token bucket.",
)


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/s, capacity ``burst``.

    Examples
    --------
    >>> bucket = TokenBucket(rate=10.0, burst=2)
    >>> bucket.acquire(now=0.0), bucket.acquire(now=0.0)
    (None, None)
    >>> retry = bucket.acquire(now=0.0)  # bucket drained
    >>> round(retry, 1)
    0.1
    >>> bucket.acquire(now=0.2) is None  # refilled
    True
    """

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError(f"rate and burst must be positive, got {rate}, {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._updated = None

    def acquire(self, *, now: float | None = None) -> float | None:
        """Draw one token: ``None`` when admitted, else seconds to wait."""
        if now is None:
            now = time.monotonic()
        if self._updated is not None:
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated) * self.rate
            )
        self._updated = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return None
        return (1.0 - self._tokens) / self.rate


class RateLimiter:
    """Per-client token buckets behind one lock (LRU-bounded)."""

    def __init__(self, rate: float, burst: float):
        self._rate = float(rate)
        self._burst = float(burst)
        self._lock = threading.Lock()
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()

    def check(self, client: str) -> float | None:
        """``None`` when ``client`` is admitted, else retry-after seconds."""
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self._rate, self._burst)
                self._buckets[client] = bucket
            self._buckets.move_to_end(client)
            while len(self._buckets) > _MAX_TRACKED_CLIENTS:
                self._buckets.popitem(last=False)
            _TRACKED_CLIENTS.set(len(self._buckets))
            return bucket.acquire()


def _too_many(message: str, retry_after_s: float) -> ServiceError:
    return ServiceError(
        message,
        status=429,
        code="rate_limited",
        headers={"Retry-After": str(max(1, math.ceil(retry_after_s)))},
    )


class AdmissionControl:
    """The service's admission policy: rate limit + job-queue bounds.

    Parameters
    ----------
    rate_limit:
        Per-client sustained requests/second (``None`` disables the
        token bucket entirely).
    burst:
        Bucket capacity; defaults to ``max(2 * rate_limit, 4)``.
    max_queued:
        Upper bound on *queued* (not yet running) jobs across all
        clients; ``None`` disables queue backpressure.
    max_jobs_per_client:
        Upper bound on one client's non-terminal jobs; ``None``
        disables the per-client bound.
    """

    def __init__(self, *, rate_limit: float | None = None, burst: float | None = None,
                 max_queued: int | None = 64, max_jobs_per_client: int | None = 32):
        self._limiter = None
        if rate_limit is not None:
            if burst is None:
                burst = max(2.0 * rate_limit, 4.0)
            self._limiter = RateLimiter(rate_limit, burst)
        self.max_queued = None if max_queued is None else int(max_queued)
        self.max_jobs_per_client = (
            None if max_jobs_per_client is None else int(max_jobs_per_client)
        )

    async def __call__(self, request) -> None:
        """HTTP middleware: draw a token for every non-exempt request."""
        if self._limiter is None or request.path in EXEMPT_PATHS:
            return
        retry_after = self._limiter.check(request.client_key)
        if retry_after is not None:
            _REJECTIONS.labels(reason="rate_limit").inc()
            raise _too_many(
                f"rate limit exceeded for client {request.client_key!r}", retry_after
            )

    def admit_job(self, snapshot: dict) -> None:
        """Job-queue ``admit`` callback: enforce the queue bounds.

        ``snapshot`` is the queue's race-free view ``{"queued",
        "running", "client_active", "workers"}``; raising here rejects
        the submission before a job is created.
        """
        if self.max_queued is not None and snapshot["queued"] >= self.max_queued:
            backlog = snapshot["queued"] + snapshot["running"]
            _REJECTIONS.labels(reason="queue_full").inc()
            raise _too_many(
                f"job queue is full ({snapshot['queued']} queued, bound {self.max_queued})",
                backlog / max(snapshot["workers"], 1),
            )
        if (self.max_jobs_per_client is not None
                and snapshot["client_active"] >= self.max_jobs_per_client):
            _REJECTIONS.labels(reason="client_jobs").inc()
            raise _too_many(
                f"client has {snapshot['client_active']} jobs in flight "
                f"(bound {self.max_jobs_per_client})",
                1.0,
            )
