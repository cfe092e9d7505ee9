"""Load generator for the clustering service (``repro bench-serve``).

Drives a running service over plain asyncio sockets (keep-alive
HTTP/1.1, no third-party client) and measures the numbers the service
exists for:

``job/<algo>/cold``
    Wall time of one clustering job submitted against an empty oracle
    cache — sampling included.
``job/<algo>/warm``
    Wall time of the identical job repeated — served from the cached
    pool with zero new sampling (the measurement asserts the service
    reports ``warm`` when the first run sampled fresh worlds).
``estimate/sustained``
    Requests per second over ``duration`` seconds of ``concurrency``
    keep-alive connections issuing reliability estimates against the
    warm pool, with latency quantiles; the cell's ``seconds`` is the
    window per request, so a seconds gate follows the throughput.
``job/mixed`` (``--mixed-jobs``)
    Jobs per second of a mixed cold/warm/mutate stream — the
    throughput-vs-workers scaling cell.

Two probes ride along: the warm job's SSE stream is consumed
(:func:`collect_job_events`) and must deliver at least the recorded
lifecycle events with the stream's request id echoed in each; and an
optional burst phase (:func:`run_burst`) verifies admission control
answers 429 + ``Retry-After`` once the queue bound is exceeded.

Results are written as a schema-1 ``BENCH_service.json`` artifact
(same layout as :mod:`benchmarks.record`, which cannot be imported
from the installed package) and summarized on stdout.  The exit code
is non-zero when any request fails — which is what makes the CI smoke
job an assertion, not just a timing.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import time
from urllib.parse import urlsplit

import numpy

from repro.exceptions import ServiceError
from repro.service.jobs import MAX_WAIT_S, TERMINAL_STATES
from repro.telemetry import parse_prometheus_text


class ServiceClient:
    """A minimal keep-alive HTTP/JSON client on asyncio streams.

    One client owns one connection; open more clients for concurrency.
    All request methods return ``(status, payload)`` with the payload
    JSON-decoded; the response headers of the most recent request are
    kept on :attr:`last_headers` (lower-cased names) — that is where
    ``Retry-After``, ``X-Request-Id``, and ``Deprecation`` live.
    """

    def __init__(self, host: str, port: int, *, client_id: str | None = None):
        self._host = host
        self._port = port
        self._client_id = client_id
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        #: Response headers of the last request, lower-cased.
        self.last_headers: dict[str, str] = {}

    async def connect(self) -> "ServiceClient":
        """Open the TCP connection."""
        self._reader, self._writer = await asyncio.open_connection(self._host, self._port)
        return self

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            self._writer = None
            self._reader = None

    async def request(self, method: str, path: str, body: object = None) -> tuple[int, object]:
        """Issue one request on the persistent connection."""
        if self._writer is None:
            await self.connect()
        payload = b""
        content_type = ""
        if body is not None:
            if isinstance(body, (bytes, str)):
                payload = body.encode("utf-8") if isinstance(body, str) else body
                content_type = "text/plain"
            else:
                payload = json.dumps(body).encode("utf-8")
                content_type = "application/json"
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            f"Content-Length: {len(payload)}\r\n"
        )
        if content_type:
            head += f"Content-Type: {content_type}\r\n"
        if self._client_id:
            head += f"X-Client-Id: {self._client_id}\r\n"
        head += "\r\n"
        self._writer.write(head.encode("ascii") + payload)
        await self._writer.drain()
        status_line = await self._reader.readline()
        parts = status_line.decode("latin-1").split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ServiceError(f"malformed response status line: {status_line!r}", status=502)
        status = int(parts[1])
        headers: dict[str, str] = {}
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        self.last_headers = headers
        raw = await self._reader.readexactly(length) if length else b""
        if not raw:
            return status, None
        if headers.get("content-type", "").startswith("application/json"):
            return status, json.loads(raw)
        return status, raw.decode("utf-8")


async def wait_ready(host: str, port: int, *, timeout: float = 30.0) -> None:
    """Poll ``/v1/healthz`` until the service answers 200 (or raise)."""
    deadline = time.monotonic() + timeout
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        client = ServiceClient(host, port)
        try:
            status, _payload = await client.request("GET", "/v1/healthz")
            if status == 200:
                return
            last_error = ServiceError(f"healthz returned {status}", status=502)
        except (OSError, asyncio.IncompleteReadError, ServiceError) as error:
            last_error = error
        finally:
            await client.close()
        await asyncio.sleep(0.1)
    raise ServiceError(f"service at {host}:{port} never became healthy: {last_error}", status=502)


async def run_job(client: ServiceClient, job_params: dict, *,
                  poll_interval: float = 0.02, timeout: float = 600.0) -> dict:
    """Submit a job, long-poll it to completion, and return its result payload.

    Each status request asks the service to answer once the job is
    terminal (``GET /v1/jobs/{id}?wait=``, at most
    :data:`~repro.service.jobs.MAX_WAIT_S` seconds), so a job normally
    costs one status request.  ``poll_interval`` is only the pause
    after an answer that is still not terminal: a wait that elapsed, or
    a server that ignores ``wait``.

    The result dict additionally carries the job id under ``"job"``
    (the service includes it in every result payload).
    """
    status, submitted = await client.request("POST", "/v1/jobs", job_params)
    if status != 202:
        raise ServiceError(f"job submission failed ({status}): {submitted}", status=502)
    job_id = submitted["job"]
    deadline = time.monotonic() + timeout
    while True:
        wait = min(MAX_WAIT_S, max(deadline - time.monotonic(), 0.0))
        status, described = await client.request("GET", f"/v1/jobs/{job_id}?wait={wait:.3f}")
        if status != 200:
            raise ServiceError(f"job poll failed ({status}): {described}", status=502)
        if described["status"] in TERMINAL_STATES:
            break
        if time.monotonic() > deadline:
            raise ServiceError(f"job {job_id} timed out", status=502)
        await asyncio.sleep(poll_interval)
    if described["status"] != "done":
        raise ServiceError(
            f"job {job_id} finished {described['status']}: {described.get('error')}",
            status=502,
        )
    status, result = await client.request("GET", f"/v1/jobs/{job_id}/result")
    if status != 200:
        raise ServiceError(f"result fetch failed ({status}): {result}", status=502)
    return result


async def collect_job_events(host: str, port: int, job_id: str, *,
                             max_events: int = 10_000,
                             timeout: float = 60.0) -> list[dict]:
    """Consume ``GET /v1/jobs/{id}/events`` (SSE) until the job ends.

    Returns the decoded ``data:`` payloads in order.  The stream
    replays the job's history, so a terminal job still yields its full
    record.  Raises :class:`ServiceError` on a non-200 response or a
    stream that goes silent for ``timeout`` seconds.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\nConnection: close\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout)
        status = int(head.split(b" ", 2)[1])
        if status != 200:
            raise ServiceError(f"event stream for {job_id} answered {status}", status=502)
        events: list[dict] = []
        data_lines: list[str] = []
        while len(events) < max_events:
            line = await asyncio.wait_for(reader.readline(), timeout)
            if not line:
                break
            text = line.decode("utf-8").rstrip("\r\n")
            if text.startswith("data: "):
                data_lines.append(text[len("data: "):])
            elif not text and data_lines:
                events.append(json.loads("\n".join(data_lines)))
                data_lines = []
                if events[-1].get("event") in TERMINAL_STATES:
                    break
        return events
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def _estimate_worker(host: str, port: int, path: str, stop_at: float,
                           latencies: list, failures: list) -> None:
    client = await ServiceClient(host, port).connect()
    try:
        while time.monotonic() < stop_at:
            begin = time.perf_counter()
            status, payload = await client.request("GET", path)
            if status != 200:
                # Record the response body, not just the code — a bare
                # "[400]" in the failure summary tells the operator
                # nothing about *which* validation failed.
                failures.append(describe_failure(status, payload))
                return
            latencies.append(time.perf_counter() - begin)
    finally:
        await client.close()


def describe_failure(status: int, payload) -> str:
    """One-line summary of a non-2xx response: status plus its body.

    The service answers every error with the uniform envelope
    ``{"error": {"code", "message", "request_id"}}``; surface the code
    and message (truncated) so the failure summary is actionable.
    Legacy plain-string ``error`` bodies are handled too.

    Examples
    --------
    >>> describe_failure(400, {"error": {"code": "bad_request",
    ...     "message": "estimate needs u and v", "request_id": "ab-01"}})
    '400 [bad_request]: estimate needs u and v'
    >>> describe_failure(400, {"error": "estimate needs u and v"})
    '400: estimate needs u and v'
    >>> describe_failure(503, None)
    '503: <no body>'
    """
    code = None
    if isinstance(payload, dict) and "error" in payload:
        error = payload["error"]
        if isinstance(error, dict):
            code = error.get("code")
            body = str(error.get("message", error))
        else:
            body = str(error)
    elif payload is None:
        body = "<no body>"
    else:
        body = json.dumps(payload, sort_keys=True)
    if len(body) > 200:
        body = body[:197] + "..."
    prefix = f"{status} [{code}]" if code else f"{status}"
    return f"{prefix}: {body}"


def _quantile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


def _split_url(url: str) -> tuple[str, int]:
    split = urlsplit(url if "//" in url else f"http://{url}")
    return split.hostname or "127.0.0.1", split.port or 80


async def run_load(url: str, *, graph: str, algorithm: str = "mcp", k: int = 4,
                   samples: int = 500, seed: int = 0, duration: float = 3.0,
                   concurrency: int = 4, upload: str | None = None,
                   u: str = "0", v: str = "1") -> dict:
    """Run the full measurement against a live service.

    Returns a dict with the benchmark cells plus request totals; raises
    :class:`ServiceError` when any request misbehaves.  With ``upload``
    set, the file's ``.uel`` text is uploaded under ``graph`` first.
    The warm job's SSE stream is consumed and verified as part of the
    run (at least the lifecycle events, each echoing the stream's
    request id).
    """
    host, port = _split_url(url)
    await wait_ready(host, port)
    client = await ServiceClient(host, port).connect()
    try:
        if upload is not None:
            with open(upload, "r", encoding="utf-8") as handle:
                text = handle.read()
            status, payload = await client.request("PUT", f"/v1/graphs/{graph}", text)
            if status != 200:
                raise ServiceError(f"graph upload failed ({status}): {payload}", status=502)
        job_params = {"graph": graph, "algorithm": algorithm, "k": k,
                      "samples": samples, "seed": seed}

        begin = time.perf_counter()
        cold = await run_job(client, job_params)
        cold_seconds = time.perf_counter() - begin

        begin = time.perf_counter()
        warm = await run_job(client, job_params)
        warm_seconds = time.perf_counter() - begin
        if cold.get("worlds_sampled", 0) > 0 and not warm.get("warm", False):
            raise ServiceError(
                "warm repeat was not served from the oracle cache "
                f"(cold sampled {cold.get('worlds_sampled')}, "
                f"warm sampled {warm.get('worlds_sampled')})",
                status=502,
            )
        if warm.get("assignment") != cold.get("assignment"):
            raise ServiceError("warm labels differ from cold labels", status=502)

        events = await collect_job_events(host, port, warm["job"])
        if not events:
            raise ServiceError(
                f"event stream for {warm['job']} delivered no events", status=502
            )
        if any(not event.get("request_id") for event in events):
            raise ServiceError(
                "SSE events are missing the stream request id", status=502
            )

        estimate_path = (
            f"/v1/graphs/{graph}/estimate?u={u}&v={v}&samples={samples}&seed={seed}"
        )
        status, payload = await client.request("GET", estimate_path)
        if status != 200:
            raise ServiceError(f"estimate failed ({status}): {payload}", status=502)
        latencies: list = []
        failures: list = []
        stop_at = time.monotonic() + duration
        await asyncio.gather(*(
            _estimate_worker(host, port, estimate_path, stop_at, latencies, failures)
            for _ in range(concurrency)
        ))
        if failures:
            raise ServiceError(
                "sustained load saw non-200 responses: " + "; ".join(failures),
                status=502,
            )
        if not latencies:
            raise ServiceError("sustained load completed zero requests", status=502)
        latencies.sort()
    finally:
        await client.close()
    return {
        "algorithm": algorithm,
        "graph": graph,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_worlds_sampled": cold.get("worlds_sampled"),
        "warm_worlds_sampled": warm.get("worlds_sampled"),
        "warm": warm.get("warm"),
        "sse_events": len(events),
        "sustained_requests": len(latencies),
        "sustained_duration_s": duration,
        "requests_per_second": len(latencies) / duration,
        "latency_p50_s": _quantile(latencies, 0.50),
        "latency_p95_s": _quantile(latencies, 0.95),
        "latency_p99_s": _quantile(latencies, 0.99),
        "concurrency": concurrency,
    }


async def scrape_metrics(url: str) -> dict[str, float]:
    """Scrape ``GET /v1/metrics`` and return the flattened series.

    Keys are ``name`` or ``name{label="value",...}`` exactly as exposed
    (see :func:`repro.telemetry.parse_prometheus_text`); the snapshot
    rides along in the ``BENCH_service.json`` artifact so a benchmark
    run records what the service actually did, not just how fast.
    """
    host, port = _split_url(url)
    client = await ServiceClient(host, port).connect()
    try:
        status, text = await client.request("GET", "/v1/metrics")
        if status != 200 or not isinstance(text, str):
            raise ServiceError(f"metrics scrape failed ({status})", status=502)
    finally:
        await client.close()
    return parse_prometheus_text(text)


async def _toggle_edge(client: ServiceClient, graph: str, u: str, v: str,
                       state: dict) -> None:
    """Alternately add and remove the synthetic edge ``(u, v)``.

    The first attempt may guess the edge's presence wrong (it might
    pre-exist in the graph); it flips and retries once, then tracks the
    state locally.
    """
    op = "remove" if state.get("present") else "add"
    ops = [{"op": op, "u": u, "v": v, **({"p": 0.5} if op == "add" else {})}]
    status, payload = await client.request("PATCH", f"/v1/graphs/{graph}/edges", {"ops": ops})
    if status != 200 and not state.get("probed"):
        state["present"] = not state.get("present")
        state["probed"] = True
        return await _toggle_edge(client, graph, u, v, state)
    if status != 200:
        raise ServiceError(
            f"mutation failed: {describe_failure(status, payload)}", status=502
        )
    state["probed"] = True
    state["present"] = op == "add"


async def run_mixed_load(url: str, *, graph: str, k: int = 4, samples: int = 500,
                         seed: int = 0, jobs: int = 12, concurrency: int = 4,
                         u: str = "0", v: str = "1",
                         client_id: str | None = None) -> dict:
    """Throughput of a mixed cold/warm/mutate job stream (jobs/second).

    Every fourth job is preceded by an edge mutation (invalidating the
    warm pool, exercising ancestor derivation), every other job
    repeats the fixed seed (warm path), and the rest use fresh seeds
    (cold path).  ``concurrency`` submitter connections drive the
    stream; the returned ``jobs_per_s`` is the scaling-vs-workers
    benchmark cell.
    """
    host, port = _split_url(url)
    await wait_ready(host, port)
    kinds = []
    for index in range(jobs):
        if index % 4 == 3:
            kinds.append("mutate")
        elif index % 2 == 1:
            kinds.append("warm")
        else:
            kinds.append("cold")
    queue: asyncio.Queue = asyncio.Queue()
    for index, kind in enumerate(kinds):
        queue.put_nowait((index, kind))
    mutate_lock = asyncio.Lock()
    mutate_state: dict = {}
    counts = {"cold": 0, "warm": 0, "mutate": 0}
    failures: list[str] = []

    async def submitter() -> None:
        client = await ServiceClient(host, port, client_id=client_id).connect()
        try:
            while True:
                try:
                    index, kind = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                params = {"graph": graph, "algorithm": "mcp", "k": k,
                          "samples": samples, "seed": seed}
                try:
                    if kind == "cold":
                        params["seed"] = seed + 1000 + index
                    elif kind == "mutate":
                        # One mutation at a time: the toggle state must
                        # match the graph's actual contents.
                        async with mutate_lock:
                            await _toggle_edge(client, graph, u, v, mutate_state)
                    await run_job(client, params)
                    counts[kind] += 1
                except ServiceError as error:
                    failures.append(f"{kind} job {index}: {error}")
                    return
        finally:
            await client.close()

    begin = time.perf_counter()
    await asyncio.gather(*(submitter() for _ in range(concurrency)))
    elapsed = time.perf_counter() - begin
    if failures:
        raise ServiceError(
            "mixed load saw failures: " + "; ".join(failures[:5]), status=502
        )
    return {
        "jobs": jobs,
        "seconds": elapsed,
        "jobs_per_s": jobs / elapsed,
        "concurrency": concurrency,
        "counts": counts,
    }


async def run_burst(url: str, *, graph: str, count: int = 16, k: int = 4,
                    samples: int = 200_000, seed: int = 0,
                    client_id: str | None = None) -> dict:
    """Burst ``count`` distinct submissions to probe admission control.

    Jobs use distinct seeds (so none coalesce) and a large sample
    budget (so they stay queued); once the queue bound fills, the
    service must answer 429 with a ``Retry-After`` header instead of
    queueing without bound.  All accepted jobs are cancelled before
    returning.  Returns acceptance/rejection counts; the caller
    decides whether a rejection was required (``--require-429``).
    """
    host, port = _split_url(url)
    await wait_ready(host, port)
    client = await ServiceClient(host, port, client_id=client_id).connect()
    accepted: list[str] = []
    rejected = 0
    retry_after_present = True
    try:
        for index in range(count):
            params = {"graph": graph, "algorithm": "mcp", "k": k,
                      "samples": samples, "seed": seed + 5000 + index}
            status, payload = await client.request("POST", "/v1/jobs", params)
            if status == 202:
                accepted.append(payload["job"])
            elif status == 429:
                rejected += 1
                if "retry-after" not in client.last_headers:
                    retry_after_present = False
            else:
                raise ServiceError(
                    f"burst submission {index} answered "
                    f"{describe_failure(status, payload)}", status=502,
                )
        for job_id in accepted:
            await client.request("DELETE", f"/v1/jobs/{job_id}")
    finally:
        await client.close()
    return {
        "submitted": count,
        "accepted": len(accepted),
        "rejected_429": rejected,
        "retry_after_present": retry_after_present,
    }


def write_artifact(results: dict, path) -> None:
    """Write ``results`` as a schema-1 ``BENCH_service.json`` artifact.

    The layout matches ``benchmarks/record.py`` so
    ``benchmarks/compare.py`` can diff service artifacts against the
    committed baseline like any other suite.  Mixed-load and burst
    phases (when run) are recorded as extra cells/metadata.
    """
    algo = results["algorithm"]
    benchmarks = {
        f"job/{algo}/cold": {
            "seconds": results["cold_seconds"],
            "items": 1,
            "throughput": 1.0 / results["cold_seconds"],
            "meta": {"graph": results["graph"], "worlds_sampled": results["cold_worlds_sampled"]},
        },
        f"job/{algo}/warm": {
            "seconds": results["warm_seconds"],
            "items": 1,
            "throughput": 1.0 / results["warm_seconds"],
            "meta": {"graph": results["graph"], "worlds_sampled": results["warm_worlds_sampled"]},
        },
        "estimate/sustained": {
            "seconds": results["sustained_duration_s"] / max(results["sustained_requests"], 1),
            "items": 1,
            "throughput": results["requests_per_second"],
            "meta": {
                "concurrency": results["concurrency"],
                "window_s": results["sustained_duration_s"],
                "requests": results["sustained_requests"],
                "latency_p50_s": results["latency_p50_s"],
                "latency_p95_s": results["latency_p95_s"],
                "latency_p99_s": results.get("latency_p99_s", 0.0),
            },
        },
    }
    mixed = results.get("mixed")
    if mixed:
        benchmarks["job/mixed"] = {
            "seconds": mixed["seconds"],
            "items": mixed["jobs"],
            "throughput": mixed["jobs_per_s"],
            "meta": {"concurrency": mixed["concurrency"], "counts": mixed["counts"]},
        }
    artifact = {
        "schema": 1,
        "suite": "service",
        "host": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count() or 1,
        },
        "benchmarks": benchmarks,
    }
    burst = results.get("burst")
    if burst:
        artifact["burst"] = burst
    metrics = results.get("metrics")
    if metrics:
        # Extra top-level key; compare.py diffs only "benchmarks", so
        # the snapshot is schema-compatible informational payload.
        artifact["metrics"] = metrics
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")


def summarize(results: dict) -> str:
    """Human-readable one-screen summary of a load run."""
    lines = [
        f"cold {results['algorithm']} job   {results['cold_seconds'] * 1000:8.1f} ms "
        f"({results['cold_worlds_sampled']} worlds sampled)",
        f"warm {results['algorithm']} job   {results['warm_seconds'] * 1000:8.1f} ms "
        f"(zero sampling: {results['warm']}, {results.get('sse_events', 0)} SSE events)",
        f"sustained estimates {results['requests_per_second']:8.1f} req/s "
        f"over {results['sustained_duration_s']:.1f}s x{results['concurrency']} "
        f"(p50 {results['latency_p50_s'] * 1000:.1f} ms, "
        f"p95 {results['latency_p95_s'] * 1000:.1f} ms, "
        f"p99 {results.get('latency_p99_s', 0.0) * 1000:.1f} ms)",
    ]
    mixed = results.get("mixed")
    if mixed:
        lines.append(
            f"mixed job stream    {mixed['jobs_per_s']:8.2f} jobs/s "
            f"({mixed['jobs']} jobs x{mixed['concurrency']}: {mixed['counts']})"
        )
    burst = results.get("burst")
    if burst:
        lines.append(
            f"burst admission     {burst['rejected_429']}/{burst['submitted']} "
            f"rejected 429 (Retry-After: {burst['retry_after_present']})"
        )
    return "\n".join(lines)
