"""Service-layer latency and throughput (``BENCH_service.json``).

Runs the clustering service in-process (:class:`BackgroundServer` on a
daemon thread, real sockets) and measures the numbers the service
exists for, recording each into the durable artifact:

* ``job/mcp/cold`` — one clustering job against an empty oracle cache
  (submission + polling + sampling + clustering + result fetch);
* ``job/mcp/warm`` — the identical job repeated, served from the
  cached pool with **zero** new sampling (asserted, not just timed);
* ``estimate/sustained`` — sustained reliability-estimate throughput
  over keep-alive connections against the warm pool, recorded as
  seconds per estimate so the seconds gate follows the throughput;
* ``job/mixed/workersN`` — mixed cold/warm/mutate job throughput with
  N spawned worker *processes* over one shared on-disk world store
  (the throughput-vs-workers scaling cells; a 1-core CI box cannot
  show real scaling, so the gate only guards against regression);
* ``job/dispatch/warm`` — the dispatch overhead of a warm job under a
  2-worker process pool: the median, over repeats of one warm acp
  job, of the client's latency (submit, long-poll, result fetch) minus
  the worker's own ``elapsed_s``;
* ``cache/budget/poolsN`` — one cold oracle-cache lease plus the byte
  budget check its release runs, on a disk store pre-filled with N
  small pools.  The check reads the store's byte ledger, so the
  800-pool cell costs the 50-pool one plus a longer directory listing
  (~1 ms on a 2-core ext4 host), not a summary per pool (~10 ms).

The same cells can be produced against a *remote* server with
``repro bench-serve`` — the CI smoke job does exactly that; this suite
exists so the numbers land in ``benchmarks/out`` alongside the other
suites and are diffable with ``benchmarks/compare.py``.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from benchmarks.record import record_benchmark, record_extra
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.store import WorldStore, pack_mask_columns
from repro.service import BackgroundServer, ClusterService
from repro.service.cache import OracleCache
from repro.service.loadgen import ServiceClient, _quantile, run_job, run_mixed_load
from repro.telemetry import parse_prometheus_text

# k=2 on the krogan-like graph forces the threshold schedule well below
# the first guess, so the cold job genuinely samples (the warm/cold gap
# is the point of the suite); k near the cluster count would cover at
# the first 50-world guess and hide the sampling cost.
JOB_PARAMS = {"graph": "bench", "algorithm": "mcp", "k": 2, "samples": 1500, "seed": 0}
SUSTAIN_SECONDS = 1.5
CONCURRENCY = 4


@pytest.fixture(scope="module")
def server(krogan_tiny):
    service = ClusterService(datasets=(), job_workers=2)
    service.graphs.register_graph("bench", krogan_tiny.graph, source="krogan_tiny")
    with BackgroundServer(service) as running:
        yield running


def _request_sync(server, method, path, body=None):
    async def go():
        client = await ServiceClient("127.0.0.1", server.port).connect()
        try:
            return await client.request(method, path, body)
        finally:
            await client.close()

    return asyncio.run(go())


def test_job_cold_then_warm(server):
    async def go():
        client = await ServiceClient("127.0.0.1", server.port).connect()
        try:
            # Tight polling so the warm cell measures the job, not the
            # 20ms default poll quantum (warm jobs finish in ~5ms).
            begin = time.perf_counter()
            cold = await run_job(client, JOB_PARAMS, poll_interval=0.002)
            cold_seconds = time.perf_counter() - begin
            begin = time.perf_counter()
            warm = await run_job(client, JOB_PARAMS, poll_interval=0.002)
            warm_seconds = time.perf_counter() - begin
            return cold, cold_seconds, warm, warm_seconds
        finally:
            await client.close()

    cold, cold_seconds, warm, warm_seconds = asyncio.run(go())
    assert cold["worlds_sampled"] > 0
    assert warm["warm"] is True and warm["worlds_sampled"] == 0
    assert warm["assignment"] == cold["assignment"]
    meta = {"graph": "krogan_tiny", "k": JOB_PARAMS["k"], "samples": JOB_PARAMS["samples"]}
    record_benchmark(
        "service", "job/mcp/cold", seconds=cold_seconds, items=1,
        meta={**meta, "worlds_sampled": cold["worlds_sampled"]},
    )
    record_benchmark(
        "service", "job/mcp/warm", seconds=warm_seconds, items=1,
        meta={**meta, "worlds_sampled": 0},
    )


def test_sustained_estimates(server):
    path = f"/v1/graphs/bench/estimate?u=0&v=1&samples={JOB_PARAMS['samples']}&seed=0"
    status, _ = _request_sync(server, "GET", path)  # prime the pool
    assert status == 200

    async def go():
        latencies = []
        stop_at = time.monotonic() + SUSTAIN_SECONDS

        async def worker():
            client = await ServiceClient("127.0.0.1", server.port).connect()
            try:
                while time.monotonic() < stop_at:
                    begin = time.perf_counter()
                    status, _ = await client.request("GET", path)
                    assert status == 200
                    latencies.append(time.perf_counter() - begin)
            finally:
                await client.close()

        await asyncio.gather(*(worker() for _ in range(CONCURRENCY)))
        return latencies

    latencies = asyncio.run(go())
    assert latencies
    latencies.sort()
    record_benchmark(
        "service", "estimate/sustained",
        seconds=SUSTAIN_SECONDS / len(latencies), items=1,
        meta={
            "concurrency": CONCURRENCY,
            "window_s": SUSTAIN_SECONDS,
            "estimates": len(latencies),
            "latency_p50_s": _quantile(latencies, 0.50),
            "latency_p95_s": _quantile(latencies, 0.95),
            "latency_p99_s": _quantile(latencies, 0.99),
        },
    )
    # Embed the fleet metrics snapshot alongside the timing cells (a
    # top-level extra key; compare.py ignores it).
    status, text = _request_sync(server, "GET", "/v1/metrics")
    assert status == 200
    record_extra("service", "metrics", parse_prometheus_text(text))


MIXED_JOBS = 8
MIXED_CONCURRENCY = 2


@pytest.mark.parametrize("workers", [1, 2])
def test_mixed_load_scaling_process_workers(krogan_tiny, tmp_path, workers):
    service = ClusterService(
        datasets=(), worker_processes=workers, world_cache=tmp_path / "worlds",
    )
    service.graphs.register_graph("bench", krogan_tiny.graph, source="krogan_tiny")
    with BackgroundServer(service) as running:
        result = asyncio.run(run_mixed_load(
            f"http://127.0.0.1:{running.port}", graph="bench",
            k=JOB_PARAMS["k"], samples=800,
            jobs=MIXED_JOBS, concurrency=MIXED_CONCURRENCY,
        ))
    assert sum(result["counts"].values()) == MIXED_JOBS
    assert result["counts"]["warm"] > 0 and result["counts"]["cold"] > 0
    record_benchmark(
        "service", f"job/mixed/workers{workers}",
        seconds=result["seconds"], items=result["jobs"],
        meta={"workers": workers, "concurrency": result["concurrency"],
              **result["counts"]},
    )


def test_warm_across_worker_pools_bit_identical(krogan_tiny, tmp_path):
    """Cross-worker warm pin: a second worker pool over the same store
    serves the repeat job with zero sampling and identical labels."""
    params = {"graph": "bench", "algorithm": "mcp", "k": 2, "samples": 800, "seed": 3}
    results = []
    for workers in (1, 2):
        service = ClusterService(
            datasets=(), worker_processes=workers,
            world_cache=tmp_path / "worlds",
        )
        service.graphs.register_graph("bench", krogan_tiny.graph, source="krogan_tiny")
        with BackgroundServer(service) as running:

            async def go(port=running.port):
                client = await ServiceClient("127.0.0.1", port).connect()
                try:
                    return await run_job(client, params)
                finally:
                    await client.close()

            results.append(asyncio.run(go()))
    cold, warm = results
    assert cold["worlds_sampled"] > 0
    # The second pool's workers never sampled this pool themselves —
    # the warm hit comes from the shared on-disk store.
    assert warm["warm"] is True and warm["worlds_sampled"] == 0
    assert warm["assignment"] == cold["assignment"]
    assert warm["centers"] == cold["centers"]


DISPATCH_REPEATS = 40


def test_job_dispatch_overhead_warm(krogan_tiny, tmp_path):
    """What a warm job costs beyond its own run: HTTP, queue and IPC hops."""
    service = ClusterService(
        datasets=(), worker_processes=2, world_cache=tmp_path / "worlds",
    )
    service.graphs.register_graph("bench", krogan_tiny.graph, source="krogan_tiny")
    params = {"graph": "bench", "k": 4, "samples": 1000, "seed": 0}
    with BackgroundServer(service) as running:

        async def go():
            client = await ServiceClient("127.0.0.1", running.port).connect()
            try:
                await run_job(client, {**params, "algorithm": "mcp"})  # warms the pool
                overheads = []
                for _ in range(DISPATCH_REPEATS):
                    begin = time.perf_counter()
                    result = await run_job(client, {**params, "algorithm": "acp"})
                    latency = time.perf_counter() - begin
                    assert result["warm"] is True and result["worlds_sampled"] == 0
                    overheads.append(latency - result["elapsed_s"])
                return overheads
            finally:
                await client.close()

        overheads = asyncio.run(go())
    record_benchmark(
        "service", "job/dispatch/warm", seconds=float(np.median(overheads)), items=1,
        meta={"graph": "krogan_tiny", "algorithm": "acp", "k": params["k"],
              "workers": 2, "repeats": DISPATCH_REPEATS,
              "p90_s": _quantile(sorted(overheads), 0.90)},
    )


BUDGET_ROUNDS = 15
BUDGET_WORLDS = 64


@pytest.mark.parametrize("n_pools", [50, 800])
def test_cache_budget_check(tmp_path, n_pools):
    """A cold lease and its budget check against a store of ``n_pools``."""
    toy = UncertainGraph.from_edges(
        [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.8), (3, 4, 0.85), (4, 5, 0.85),
         (3, 5, 0.75), (2, 3, 0.05)]
    )
    packed = pack_mask_columns(np.ones((1, toy.n_edges), dtype=bool))
    labels = np.zeros((1, toy.n_nodes), dtype=np.int32)
    writer = WorldStore(tmp_path)
    for seed in range(n_pools):
        writer.append(writer.register(toy, seed), 0, packed, labels)
    cache = OracleCache(WorldStore(tmp_path), max_bytes=1 << 30)
    times = []
    for round_ in range(BUDGET_ROUNDS):
        begin = time.perf_counter()
        with cache.lease(toy, seed=n_pools + round_) as oracle:
            oracle.ensure_samples(BUDGET_WORLDS)
        times.append(time.perf_counter() - begin)
        assert oracle.cache_stats["worlds_sampled"] == BUDGET_WORLDS
        cache.store.clear(oracle.pool_digest)  # keep the store at n_pools
    stats = cache.stats()
    assert stats["pools"] == n_pools and stats["evictions"] == 0
    record_benchmark(
        "service", f"cache/budget/pools{n_pools}", seconds=min(times), items=1,
        meta={"pools": n_pools, "worlds": BUDGET_WORLDS, "rounds": BUDGET_ROUNDS},
    )
