"""Service-level contracts for the workload job types.

Covers the /v1 surface added with the workload suite:

* ``kmedian`` / ``kcenter`` / ``centrality`` jobs run end to end under
  the thread pool **and** a 2-worker process pool, inheriting
  coalescing, SSE streaming, and admission control from the clustering
  job types;
* SSE event ordering is pinned for the new job types: strictly
  monotone ``seq``, ``queued`` first, the terminal event last, with at
  least one ``progress`` event in between;
* an unknown ``algorithm`` in POST /v1/jobs is a 400 envelope with the
  stable machine-readable code ``unknown_algorithm`` (clients pin the
  ``code``, not the prose); bad ``measure`` / ``tol`` are plain 400s.
"""

from __future__ import annotations

import threading

import pytest

from repro.sampling.parallel import ParallelSampler
from repro.service import BackgroundServer, ClusterService
from tests.conftest import set_job_runner
from tests.test_service import TIMEOUT, Client, _read_sse, _toy_graph


@pytest.fixture(scope="module")
def service():
    svc = ClusterService(datasets=(), job_workers=2, cache_bytes=64 << 20)
    svc.graphs.register_graph("toy", _toy_graph(), source="test")
    return svc


@pytest.fixture(scope="module")
def server(service):
    with BackgroundServer(service) as srv:
        yield srv


@pytest.fixture()
def client(server):
    c = Client(server.port)
    yield c
    c.close()


class TestWorkloadJobs:
    def test_kmedian_job_payload(self, client):
        result = client.run_job(
            {"graph": "toy", "algorithm": "kmedian", "k": 2, "samples": 300,
             "seed": 11}
        )
        assert result["k"] == 2
        assert result["seed"] == 11
        assert len(result["centers"]) == 2
        assert len(result["assignment"]) == 6
        assert result["objective"] > 0
        assert result["samples_used"] >= 300
        assert result["n_rounds"] >= 2
        assert set(result["assignment"]) == {0, 1}

    def test_kcenter_job_payload(self, client):
        result = client.run_job(
            {"graph": "toy", "algorithm": "kcenter", "k": 2, "samples": 300,
             "seed": 11}
        )
        assert len(result["centers"]) == 2
        assert result["objective"] > 0
        # Max objective dominates the mean objective of the same pool.
        kmedian = client.run_job(
            {"graph": "toy", "algorithm": "kmedian", "k": 2, "samples": 300,
             "seed": 11}
        )
        assert result["objective"] >= kmedian["objective"] - 1e-9

    def test_centrality_job_payload(self, client):
        result = client.run_job(
            {"graph": "toy", "algorithm": "centrality", "measure": "harmonic",
             "samples": 400, "seed": 11, "tol": 1e-9}
        )
        assert result["measure"] == "harmonic"
        assert result["tol"] == pytest.approx(1e-9)
        assert len(result["values"]) == 6
        assert all(0.0 <= v <= 1.0 for v in result["values"])
        assert result["samples_used"] >= 400
        assert result["half_width"] > 0
        assert result["converged"] is False  # tol=1e-9 exhausts the budget
        # Centrality jobs carry no clustering payload.
        assert "assignment" not in result and "centers" not in result

    def test_workloads_share_the_clustering_pool(self, client, monkeypatch):
        """A k-median job warms the pool; MCP and centrality jobs then
        resample nothing — one pool serves every workload family."""
        params = {"graph": "toy", "samples": 300, "seed": 77}
        cold = client.run_job({**params, "algorithm": "kmedian", "k": 2})
        assert cold["worlds_sampled"] > 0
        calls = []
        original = ParallelSampler.sample_chunk

        def spying(self, root, start, count):
            calls.append(count)
            return original(self, root, start, count)

        monkeypatch.setattr(ParallelSampler, "sample_chunk", spying)
        # MCP's adaptive schedule never needs more than its samples cap,
        # so the 300-world pool covers it; same for centrality's budget.
        mcp = client.run_job({**params, "algorithm": "mcp", "k": 2})
        ce = client.run_job(
            {**params, "algorithm": "centrality", "measure": "degree"}
        )
        assert mcp["warm"] is True and mcp["worlds_sampled"] == 0
        assert ce["warm"] is True and ce["worlds_sampled"] == 0
        assert calls == []

    def test_identical_workload_jobs_coalesce(self, service, client):
        gate = threading.Event()
        original = service._run_job

        def gated(job):
            gate.wait(TIMEOUT)
            return original(job)

        set_job_runner(service, gated)
        try:
            params = {"graph": "toy", "algorithm": "kcenter", "k": 2,
                      "samples": 250, "seed": 91}
            _, first = client.request("POST", "/jobs", params)
            assert first["coalesced"] is False
            # Explicit defaults must not defeat the canonical key.
            _, second = client.request(
                "POST", "/jobs", {**params, "chunk_size": 512}
            )
            assert second["job"] == first["job"]
            assert second["coalesced"] is True
            _, other = client.request(
                "POST", "/jobs", {**params, "algorithm": "kmedian"}
            )
            assert other["job"] != first["job"]
        finally:
            gate.set()
            set_job_runner(service, original)
        assert client.wait_job(first["job"])["status"] == "done"

    def test_centrality_jobs_coalesce_on_measure_and_tol(self, service, client):
        gate = threading.Event()
        original = service._run_job

        def gated(job):
            gate.wait(TIMEOUT)
            return original(job)

        set_job_runner(service, gated)
        try:
            params = {"graph": "toy", "algorithm": "centrality",
                      "measure": "harmonic", "seed": 92}
            _, first = client.request("POST", "/jobs", params)
            _, same = client.request("POST", "/jobs", {**params, "tol": 0.05})
            assert same["job"] == first["job"]  # 0.05 is the default tol
            _, other_measure = client.request(
                "POST", "/jobs", {**params, "measure": "degree"}
            )
            assert other_measure["job"] != first["job"]
            _, other_tol = client.request("POST", "/jobs", {**params, "tol": 0.01})
            assert other_tol["job"] != first["job"]
        finally:
            gate.set()
            set_job_runner(service, original)
        assert client.wait_job(first["job"])["status"] == "done"


class TestNegativePaths:
    def test_unknown_algorithm_is_400_with_stable_code(self, client):
        status, payload = client.request(
            "POST", "/jobs", {"graph": "toy", "algorithm": "pagerank"}
        )
        assert status == 400
        assert payload["error"]["code"] == "unknown_algorithm"
        assert "pagerank" in payload["error"]["message"]
        # The valid algorithms are enumerated for the caller.
        for name in ("mcp", "kmedian", "kcenter", "centrality"):
            assert name in payload["error"]["message"]

    @pytest.mark.parametrize("algorithm", ["", None, 7, "MCP", "k-median"])
    def test_unknown_algorithm_variants(self, client, algorithm):
        body = {"graph": "toy"}
        if algorithm is not None:
            body["algorithm"] = algorithm
        status, payload = client.request("POST", "/jobs", body)
        if algorithm is None:
            # Missing algorithm falls back to the default (mcp): accepted.
            assert status == 202
        else:
            assert status == 400
            assert payload["error"]["code"] == "unknown_algorithm"

    def test_unknown_measure_is_400(self, client):
        status, payload = client.request(
            "POST", "/jobs",
            {"graph": "toy", "algorithm": "centrality", "measure": "pagerank"},
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "pagerank" in payload["error"]["message"]

    @pytest.mark.parametrize("tol", [0, -1, "nan", "inf", "soon"])
    def test_bad_tol_is_400(self, client, tol):
        status, payload = client.request(
            "POST", "/jobs",
            {"graph": "toy", "algorithm": "centrality", "tol": tol},
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_bad_k_is_400(self, client):
        for k in (0, -2, "many", 2.7, True):
            status, payload = client.request(
                "POST", "/jobs", {"graph": "toy", "algorithm": "kmedian", "k": k}
            )
            assert status == 400, k

    @pytest.mark.parametrize("inflation", ["nan", "inf", "-inf"])
    def test_non_finite_inflation_is_400(self, client, inflation):
        status, payload = client.request(
            "POST", "/jobs", {"graph": "toy", "algorithm": "mcl", "inflation": inflation}
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "inflation" in payload["error"]["message"]

    def test_clustering_params_rejected_for_centrality(self, client):
        # k is dropped for centrality, so two requests differing only in
        # a meaningless k coalesce to the same canonical key.
        a = client.run_job(
            {"graph": "toy", "algorithm": "centrality", "seed": 13, "k": 2}
        )
        b = client.run_job(
            {"graph": "toy", "algorithm": "centrality", "seed": 13, "k": 5}
        )
        assert a["values"] == b["values"]


class TestSSEOrdering:
    """Event-stream regression for the new job types (thread pool)."""

    @pytest.mark.parametrize("params", [
        {"algorithm": "kmedian", "k": 2, "samples": 300},
        {"algorithm": "kcenter", "k": 3, "samples": 300},
        {"algorithm": "centrality", "measure": "betweenness", "samples": 400,
         "tol": 1e-9},
    ], ids=lambda p: p["algorithm"])
    def test_stream_is_ordered_and_terminal(self, server, client, params):
        _, accepted = client.request(
            "POST", "/jobs", {"graph": "toy", "seed": 21, **params}
        )
        job = accepted["job"]
        client.wait_job(job)
        _, events = _read_sse(server.port, job)
        kinds = [e["event"] for e in events]
        seqs = [e["seq"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        assert "progress" in kinds
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)  # strictly monotone
        # No events after the terminal one.
        assert kinds.count("done") == 1 and kinds.index("done") == len(kinds) - 1


class TestProcessPoolWorkloads:
    """The same contracts hold under a 2-worker process pool."""

    @pytest.fixture(scope="class")
    def proc_server(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("worlds")
        svc = ClusterService(
            datasets=(), worker_processes=2, world_cache=cache,
            cache_bytes=64 << 20,
        )
        svc.graphs.register_graph("toy", _toy_graph(), source="test")
        with BackgroundServer(svc) as srv:
            yield srv

    @pytest.fixture()
    def proc_client(self, proc_server):
        c = Client(proc_server.port)
        yield c
        c.close()

    def test_all_three_job_types_complete(self, proc_client):
        km = proc_client.run_job(
            {"graph": "toy", "algorithm": "kmedian", "k": 2, "samples": 300,
             "seed": 31}
        )
        kc = proc_client.run_job(
            {"graph": "toy", "algorithm": "kcenter", "k": 2, "samples": 300,
             "seed": 31}
        )
        ce = proc_client.run_job(
            {"graph": "toy", "algorithm": "centrality", "measure": "degree",
             "samples": 300, "seed": 31}
        )
        assert len(km["centers"]) == 2 and len(kc["centers"]) == 2
        assert len(ce["values"]) == 6

    def test_process_pool_matches_thread_pool(self, client, proc_client):
        """Worker isolation never changes results: same seed, same bits."""
        params = {"graph": "toy", "algorithm": "kmedian", "k": 2,
                  "samples": 300, "seed": 41}
        thread = client.run_job(params)
        proc = proc_client.run_job(params)
        assert proc["centers"] == thread["centers"]
        assert proc["assignment"] == thread["assignment"]
        assert proc["objective"] == thread["objective"]

    def test_sse_ordering_under_process_pool(self, proc_server, proc_client):
        _, accepted = proc_client.request(
            "POST", "/jobs",
            {"graph": "toy", "algorithm": "centrality", "measure": "harmonic",
             "samples": 400, "seed": 51, "tol": 1e-9},
        )
        job = accepted["job"]
        proc_client.wait_job(job)
        _, events = _read_sse(proc_server.port, job)
        kinds = [e["event"] for e in events]
        seqs = [e["seq"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        assert "progress" in kinds
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_unknown_algorithm_under_process_pool(self, proc_client):
        status, payload = proc_client.request(
            "POST", "/jobs", {"graph": "toy", "algorithm": "bogus"}
        )
        assert status == 400
        assert payload["error"]["code"] == "unknown_algorithm"
