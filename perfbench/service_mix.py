"""``service-mix``: analyst sessions against ``repro serve --workers 2``.

The server runs as a subprocess over a fresh world-cache directory.
Each client uploads its own copy of ``krogan_like(seed=0, scale=0.12)``
and runs closed-loop *sessions* on it over one keep-alive connection;
two clients share one asyncio loop.  A session is the op:

1. cold ``mcp`` k=4;
2. warm ``acp`` k=4 on the same pool;
3. 8 x ``GET .../estimate``;
4. ``PATCH .../edges`` toggling one edge;
5. derived ``centrality`` (``degree``) on the mutated revision;
6. ``mcp`` again with ``chunk_size: 256``.

The toggled edge joins two non-adjacent nodes with probability
``TOGGLE_P``, so small that no sampled world ever holds it: the mutation
runs the whole delta-derivation path, yet every world keeps its
components and step 6 must return step 1's assignment.

Session times are host-scaled (:mod:`hostspeed`) by reference readings
taken only while the server is idle: the timed phase runs in slices of
:data:`SLICE_S`, every client finishes its session at the end of a
slice, and the reference is read before the first slice and after each,
on all cores at once (as the server and its workers run) in helper
processes.  A slice's sessions and wall time are scaled by the readings
around it.
"""

from __future__ import annotations

import asyncio
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from urllib.parse import urlencode

import numpy as np

import hostspeed
from library import derive_seed, digest
from repro.exceptions import ServiceError
from repro.service.loadgen import ServiceClient, run_job
from repro.telemetry import parse_prometheus_text

CLIENTS = 2
WORKERS = 2
SCALE = 0.12
K = 4
MCP_SAMPLES = 1000
ESTIMATES = 8
ESTIMATE_SAMPLES = 200
CENTRALITY_SAMPLES = 200
TOGGLE_P = 1e-12
#: Host-speed reference kernel (sessions are dominated by sampling and labeling).
REFERENCE = "scatter"
#: Length of one slice of a timed phase; the reference is read between slices.
SLICE_S = 1.0
#: Readings per core and idle point (each the fastest of two ~2 ms kernel runs).
IDLE_READINGS = 6
#: Job and readiness poll interval: well below the shortest step (~12 ms).
POLL_S = 0.002
#: Server set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Sessions per client in the traced phase (a fixed set, so counts repeat).
TRACE_SESSIONS = 4
STEPS = ("cold_mcp", "warm_acp", "estimates", "mutate", "derived_centrality", "rechunk_mcp")
_LISTENING = re.compile(rb"listening on http://([0-9.]+):(\d+)")
_JOB_STATUS = re.compile(r"/v1/jobs/[^/]+")


def session_seed(seed: int, phase: int, client: int, index: int) -> int:
    """Seed of one session: phase 0 is untraced, phase 1 traced."""
    return derive_seed(seed, phase, client, index)


class RequestFailed(Exception):
    pass


class Client(ServiceClient):
    """A loadgen client that raises on any non-2xx answer and counts job polls."""

    def __init__(self, host: str, port: int, name: str):
        super().__init__(host, port, client_id=name)
        self.polls = 0

    async def request(self, method: str, path: str, body=None):
        status, payload = await super().request(method, path, body)
        if not 200 <= status < 300:
            raise RequestFailed(f"{method} {path} answered {status}: {str(payload)[:200]}")
        if method == "GET" and _JOB_STATUS.fullmatch(path):
            self.polls += 1
        return status, payload

    async def call(self, method: str, path: str, body=None):
        return (await self.request(method, path, body))[1]

    async def job(self, params: dict):
        """Submit, poll to a terminal state, fetch; returns ``(result, latency_s)``."""
        started = time.perf_counter()
        result = await run_job(self, params, poll_interval=POLL_S)
        return result, time.perf_counter() - started


def _metric_totals(text: str) -> dict:
    """Prometheus text -> ``{metric name: value summed over label sets}``."""
    totals: dict = {}
    for series, value in parse_prometheus_text(text).items():
        name = series.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + value
    return totals


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _descendants(pid: int) -> list[int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                    # Field 4 (ppid) follows the parenthesized command name.
                    parents[int(entry)] = int(handle.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    found, frontier = [], [pid]
    while frontier:
        pid = frontier.pop()
        children = [child for child, parent in parents.items() if parent == pid]
        found.extend(children)
        frontier.extend(children)
    return found


class Server:
    """``repro serve`` as a subprocess with its own world cache and temp dir."""

    def __init__(self, root: str, scratch: str):
        self.directory = tempfile.mkdtemp(prefix="serve-", dir=scratch)
        self.log_path = os.path.join(self.directory, "server.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["TMPDIR"] = self.directory
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
                 "--port", "0", "--workers", str(WORKERS),
                 "--world-cache", os.path.join(self.directory, "worlds")],
                cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        self.host = self.port = None

    async def ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while self.port is None:
            with open(self.log_path, "rb") as log:
                found = _LISTENING.search(log.read())
            if found:
                self.host, self.port = found.group(1).decode(), int(found.group(2))
            elif self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start; see {self.log_path}")
            else:
                await asyncio.sleep(POLL_S)
        while True:
            try:
                client = await Client(self.host, self.port, "setup").connect()
                try:
                    await client.call("GET", "/v1/healthz")
                    return
                finally:
                    await client.close()
            except (OSError, RequestFailed, ServiceError, asyncio.IncompleteReadError):
                if time.monotonic() > deadline:
                    raise
                await asyncio.sleep(POLL_S)

    def peak_rss_mb(self) -> float:
        pids = [self.process.pid] + _descendants(self.process.pid)
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    async def stop(self) -> None:
        if self.process.poll() is None and self.port is not None:
            try:
                client = await Client(self.host, self.port, "setup").connect()
                try:
                    await client.call("POST", "/v1/shutdown", {"grace_s": 5})
                finally:
                    await client.close()
            except (OSError, RequestFailed, ServiceError, asyncio.IncompleteReadError):
                pass
        try:
            await asyncio.to_thread(self.process.wait, 30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            await asyncio.to_thread(self.process.wait)


class GraphCopy:
    """One client's uploaded graph and its session inputs."""

    def __init__(self, name: str, graph):
        self.name = name
        self.n = graph.n_nodes
        self.edges = [[int(u), int(v), float(p)] for u, v, p in
                      zip(graph.edge_src, graph.edge_dst, graph.edge_prob)]
        present = {(u, v) for u, v, _ in self.edges}
        self.toggle = next((0, v) for v in range(1, self.n) if (0, v) not in present)
        self.toggled = False

    def estimate_pairs(self, seed: int):
        rng = np.random.default_rng(seed)
        return [tuple(int(x) for x in rng.choice(self.n, 2, replace=False))
                for _ in range(ESTIMATES)]


def _generate_graph():
    from repro.datasets import krogan_like

    return krogan_like(seed=0, scale=SCALE).graph


async def _upload(client: Client, copy: GraphCopy) -> None:
    reply = await client.call("PUT", f"/v1/graphs/{copy.name}", {"edges": copy.edges})
    if reply["nodes"] != copy.n or reply["edges"] != len(copy.edges):
        raise RequestFailed(f"upload of {copy.name} changed the graph: {reply}")


async def set_up(root: str, scratch: str, names):
    """Everything a user pays once; returns ``(server, copies, seconds)``."""
    started = time.perf_counter()
    graph = _generate_graph()
    server = Server(root, scratch)
    try:
        await server.ready()
        client = await Client(server.host, server.port, "setup").connect()
        try:
            copies = [GraphCopy(name, graph) for name in names]
            for copy in copies:
                await _upload(client, copy)
            # Warm both worker processes (imports, first job) with one
            # small job each; distinct seeds route them to distinct workers.
            warm = [Client(server.host, server.port, f"warm{i}") for i in range(WORKERS)]
            await asyncio.gather(*(c.connect() for c in warm))
            try:
                await asyncio.gather(*(
                    c.job({"graph": names[0], "algorithm": "mcp", "k": K,
                           "samples": 50, "seed": 10 ** 9 + i})
                    for i, c in enumerate(warm)))
            finally:
                await asyncio.gather(*(c.close() for c in warm))
        finally:
            await client.close()
    except BaseException:
        await server.stop()
        raise
    return server, copies, time.perf_counter() - started


async def session(client: Client, copy: GraphCopy, seed: int) -> dict:
    """Run one session; returns step latencies, job records and checks."""
    steps, jobs, problems = {}, [], []
    base = {"graph": copy.name, "k": K, "seed": seed, "samples": MCP_SAMPLES}

    async def job(step, params):
        result, latency = await client.job(params)
        steps[step] = latency
        jobs.append((step, result, latency))
        return result

    cold = await job("cold_mcp", {**base, "algorithm": "mcp"})
    if len(cold["assignment"]) != copy.n or not cold["worlds_sampled"]:
        problems.append("cold mcp did not sample a full assignment")
    warm = await job("warm_acp", {**base, "algorithm": "acp"})
    if not warm["warm"] or warm["worlds_sampled"] != 0:
        problems.append(f"acp was not warm ({warm['worlds_sampled']} worlds sampled)")

    started = time.perf_counter()
    for u, v in copy.estimate_pairs(seed):
        query = urlencode({"u": u, "v": v, "seed": seed, "samples": ESTIMATE_SAMPLES})
        estimate = (await client.call("GET", f"/v1/graphs/{copy.name}/estimate?{query}"))
        if not 0.0 <= estimate["estimate"] <= 1.0:
            problems.append(f"estimate {estimate['estimate']} outside [0, 1]")
    steps["estimates"] = time.perf_counter() - started

    started = time.perf_counter()
    u, v = copy.toggle
    op = ({"op": "remove", "u": u, "v": v} if copy.toggled
          else {"op": "add", "u": u, "v": v, "p": TOGGLE_P})
    await client.call("PATCH", f"/v1/graphs/{copy.name}/edges", {"ops": [op]})
    copy.toggled = not copy.toggled
    steps["mutate"] = time.perf_counter() - started

    centrality = await job("derived_centrality", {
        "graph": copy.name, "algorithm": "centrality", "measure": "degree",
        "seed": seed, "samples": CENTRALITY_SAMPLES})
    if len(centrality["values"]) != copy.n:
        problems.append("centrality did not cover every node")
    rechunk = await job("rechunk_mcp", {**base, "algorithm": "mcp", "chunk_size": 256})
    if rechunk["assignment"] != cold["assignment"]:
        problems.append("chunk_size 256 changed the mcp assignment")
    return {"steps": steps, "jobs": jobs, "problems": problems,
            "digest": digest(np.array(cold["assignment"]))}


async def _client_loop(client, copy, seeds, stop_at, sessions, records):
    """Closed loop: the next session starts when the previous one ends."""
    index = len(records)
    while (stop_at is None and index < sessions) or (
            stop_at is not None and time.perf_counter() < stop_at):
        started = time.perf_counter()
        try:
            record = await session(client, copy, seeds(index))
        except (RequestFailed, ServiceError, KeyError, TypeError, ValueError) as error:
            record = {"steps": {}, "jobs": [], "problems": [str(error)], "digest": None}
        record["wall"] = time.perf_counter() - started
        record["index"] = index
        records.append(record)
        index += 1


async def run_phase(server, copies, seeds, *, seconds=None, sessions=None):
    """Run every client's loop; returns ``(records, clients, scaled wall_s)``.

    A phase of ``seconds`` runs in slices of about :data:`SLICE_S`; one of
    ``sessions`` sessions per client is a single slice.  Between slices no
    session is in flight, and only then is the host-speed reference read.
    """
    records = [[] for _ in copies]
    slices = 1 if seconds is None else max(1, round(seconds / SLICE_S))
    wall = 0.0
    clients = [Client(server.host, server.port, f"client{i}") for i in range(len(copies))]
    with hostspeed.AllCores(REFERENCE) as cores:
        await asyncio.gather(*(c.connect() for c in clients))
        try:
            reading = cores.reading(IDLE_READINGS)
            for _ in range(slices):
                done = [len(out) for out in records]
                started = time.perf_counter()
                stop_at = None if seconds is None else started + seconds / slices
                await asyncio.gather(*(
                    _client_loop(client, copy, lambda i, c=c: seeds(c, i), stop_at, sessions, out)
                    for c, (client, copy, out) in enumerate(zip(clients, copies, records))))
                took = time.perf_counter() - started
                before, reading = reading, cores.reading(IDLE_READINGS)
                scale = hostspeed.NOMINAL_S[REFERENCE] / ((before + reading) / 2)
                for out, skip in zip(records, done):
                    for record in out[skip:]:
                        record["latency"] = record["wall"] * scale
                wall += took * scale
        finally:
            await asyncio.gather(*(c.close() for c in clients))
    return records, clients, wall


async def scrape(server) -> tuple[dict, dict]:
    client = await Client(server.host, server.port, "scrape").connect()
    try:
        cache = await client.call("GET", "/v1/cache")
        metrics = _metric_totals(await client.call("GET", "/v1/metrics"))
        return cache, metrics
    finally:
        await client.close()


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(records, clients, before, after) -> dict:
    """Per-session per-layer metrics of one traced phase."""
    flat = [r for per_client in records for r in per_client]
    sessions = len(flat)
    cache0, metrics0 = before
    cache1, metrics1 = after

    def delta_cache(key):
        return cache1[key] - cache0[key]

    def delta_metric(name):
        return metrics1.get(name, 0.0) - metrics0.get(name, 0.0)

    def per_session(fn):
        return _median([fn(r) for r in flat])

    def timing_sum(record, key):
        return sum(result["timings"][key] for _, result, _ in record["jobs"])

    out = {f"service.session.{step}_s": per_session(lambda r, s=step: r["steps"].get(s, 0.0))
           for step in STEPS}
    out["service.jobs.run_s"] = per_session(
        lambda r: sum(result["elapsed_s"] for _, result, _ in r["jobs"]))
    out["service.jobs.wait_s"] = per_session(
        lambda r: sum(latency - result["elapsed_s"] for _, result, latency in r["jobs"]))
    for key in ("sample_ms", "label_ms", "store_read_ms", "cluster_ms"):
        out[f"service.jobs.{key}"] = per_session(lambda r, k=key: timing_sum(r, k))

    # Worker processes keep their cache counters to themselves; what they
    # sampled and served from cache is in each job's result.
    jobs = [result for r in flat for _, result, _ in r["jobs"]]
    sampled = delta_cache("worlds_sampled") + sum(res["worlds_sampled"] for res in jobs)
    cached = delta_cache("worlds_cached") + sum(res["worlds_cached"] for res in jobs)
    leases = delta_cache("leases") + len(jobs)
    warm = delta_cache("warm_leases") + sum(bool(res["warm"]) for res in jobs)
    out.update({
        "service.cache.worlds_sampled": sampled / sessions,
        "service.cache.worlds_cached": cached / sessions,
        # Derivation in the workers is not published; these read the
        # front-door cache alone.
        "service.cache.worlds_derived": delta_cache("worlds_derived") / sessions,
        "service.cache.pools_derived": delta_cache("pools_derived") / sessions,
        "service.cache.evictions": delta_cache("evictions"),
        "service.cache.warm_lease_ratio": warm / leases if leases else 0.0,
        "service.store.bytes_read": delta_metric("repro_store_bytes_read_total") / sessions,
        "service.store.bytes_appended":
            delta_metric("repro_store_bytes_appended_total") / sessions,
        # Scrapes count too: the first scrape's /v1/metrics (counted once
        # answered) and the second scrape's /v1/cache (answered before it).
        "service.http.requests": (delta_metric("repro_http_requests_total") - 2
                                  - sum(c.polls for c in clients)) / sessions,
        "service.http.polls": sum(c.polls for c in clients) / sessions,
        "service.admission.rejections":
            delta_metric("repro_admission_rejections_total") / sessions,
    })
    return out


async def run(root: str, scratch: str, seed: int, seconds: float, trace: bool):
    """The whole workload: set-ups, the untraced phase and, with ``trace``,
    the traced phase.  Returns the session records and measurements."""
    names = [f"client{i}" for i in range(CLIENTS)]
    if trace:
        names += [f"traced{i}" for i in range(CLIENTS)]
        server, copies, _ = await set_up(root, scratch, names)
        setups = []
    else:
        # Each set-up but the last is stopped again; the run uses the last.
        startup, setups, server = hostspeed.Clock("startup"), [], None
        for _ in range(SETUPS):
            if server is not None:
                await server.stop()
            server, copies, took = await set_up(root, scratch, names)
            setups.append(startup.scaled(took))
    try:
        records, _, wall = await run_phase(
            server, copies[:CLIENTS], lambda c, i: session_seed(seed, 0, c, i),
            seconds=seconds / 2 if trace else seconds)
        result = {"records": records, "wall": wall, "setups": setups}
        if trace:
            before = await scrape(server)
            traced, traced_clients, traced_wall = await run_phase(
                server, copies[CLIENTS:], lambda c, i: session_seed(seed, 1, c, i),
                sessions=TRACE_SESSIONS)
            after = await scrape(server)
            result["traced"] = traced
            result["traced_wall"] = traced_wall
            result["layers"] = layer_metrics(traced, traced_clients, before, after)
        result["peak_rss_mb"] = server.peak_rss_mb()
        result["cache"] = (await scrape(server))[0]
        return result
    finally:
        await server.stop()
