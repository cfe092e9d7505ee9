"""End-to-end tests of the async clustering service.

The server runs in-process (:class:`BackgroundServer` on a daemon
thread) and is exercised over real sockets with ``http.client``, so
request parsing, routing, the executor hand-off, and JSON envelopes
are all on the tested path.

The load-bearing pins:

* a warm repeated identical clustering job performs **zero** new
  ``sample_chunk`` calls (sampler spy) and returns labels bit-identical
  to the equivalent direct library call at the same seed;
* N identical in-flight submissions coalesce onto one job;
* error paths answer with the right status: unknown graph (404),
  malformed JSON (400), job not found (404), result of a cancelled or
  unfinished job (409).
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.core.mcp import mcp_clustering
from repro.exceptions import JobCancelledError, ServiceError
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.parallel import ParallelSampler
from repro.sampling.sizes import PracticalSchedule
from repro.service import BackgroundServer, ClusterService
from repro.service.jobs import (
    MAX_WAIT_S,
    Job,
    JobQueue,
    canonical_key,
    paginate_jobs,
    prune_terminal_jobs,
)
from tests.conftest import set_job_runner

TIMEOUT = 30.0


def _toy_graph() -> UncertainGraph:
    return UncertainGraph.from_edges(
        [
            (0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.8),
            (3, 4, 0.85), (4, 5, 0.85), (3, 5, 0.75),
            (2, 3, 0.05),
        ]
    )


class Client:
    """Tiny synchronous JSON client over one keep-alive connection.

    Paths are given without the API version: every request goes to
    ``prefix + path`` (``/v1`` unless the call overrides it).
    """

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT)
        self.last_headers: dict[str, str] = {}

    def request(self, method, path, body=None, content_type="application/json",
                *, prefix="/v1"):
        headers = {}
        if body is not None:
            if isinstance(body, (dict, list)):
                body = json.dumps(body)
            headers["Content-Type"] = content_type
        self.conn.request(method, prefix + path, body=body, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        self.last_headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, (json.loads(raw) if raw else None)

    def request_text(self, method, path):
        """Like :meth:`request` but returns the body as text (no JSON)."""
        self.conn.request(method, "/v1" + path)
        response = self.conn.getresponse()
        raw = response.read()
        self.last_headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, raw.decode("utf-8")

    def wait_job(self, job_id: str) -> dict:
        deadline = time.monotonic() + TIMEOUT
        while time.monotonic() < deadline:
            # Long-polls well inside the connection's own timeout.
            status, payload = self.request("GET", f"/jobs/{job_id}?wait=5")
            assert status == 200
            if payload["status"] in ("done", "failed", "cancelled"):
                return payload
        raise AssertionError(f"job {job_id} did not finish within {TIMEOUT}s")

    def run_job(self, params: dict) -> dict:
        status, payload = self.request("POST", "/jobs", params)
        assert status == 202, payload
        described = self.wait_job(payload["job"])
        assert described["status"] == "done", described
        status, result = self.request("GET", f"/jobs/{payload['job']}/result")
        assert status == 200
        return result

    def close(self):
        self.conn.close()


@pytest.fixture
def service():
    svc = ClusterService(datasets=("krogan",), job_workers=2, cache_bytes=64 << 20)
    svc.graphs.register_graph("toy", _toy_graph(), source="test")
    return svc


@pytest.fixture
def server(service):
    with BackgroundServer(service) as running:
        yield running


@pytest.fixture
def client(server):
    c = Client(server.port)
    yield c
    c.close()


class TestMetaEndpoints:
    def test_healthz(self, client):
        from repro import __version__

        status, payload = client.request("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["graphs"] == 2  # toy + lazy krogan
        assert payload["version"] == __version__
        assert payload["workers"] == 2
        assert payload["mode"] == "thread"
        assert payload["started_at"] <= time.time()
        assert 0 <= payload["uptime_seconds"] < 300
        assert payload["uptime_s"] == payload["uptime_seconds"]  # legacy alias

    def test_version_matches_package(self, client):
        from repro import __version__

        assert client.request("GET", "/version") == (200, {"version": __version__})

    def test_unknown_endpoint_404(self, client):
        status, payload = client.request("GET", "/nope")
        assert status == 404
        assert "error" in payload

    def test_wrong_method_405(self, client):
        status, _ = client.request("DELETE", "/healthz")
        assert status == 405

    def test_malformed_request_line_400(self, server):
        import socket

        with socket.create_connection(("127.0.0.1", server.port), timeout=TIMEOUT) as sock:
            sock.sendall(b"BANANAS\r\n\r\n")
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]

    def test_chunked_transfer_encoding_rejected(self, server):
        import socket

        with socket.create_connection(("127.0.0.1", server.port), timeout=TIMEOUT) as sock:
            sock.sendall(
                b"PUT /graphs/x HTTP/1.1\r\nHost: h\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\n0 1 1\r\n0\r\n\r\n"
            )
            response = sock.recv(4096)
        assert b"501" in response.split(b"\r\n", 1)[0]

    def test_keep_alive_connection_reuse(self, client):
        # Two requests through one http.client connection = keep-alive.
        assert client.request("GET", "/healthz")[0] == 200
        assert client.request("GET", "/version")[0] == 200

    def test_shutdown_not_blocked_by_idle_keepalive_connection(self):
        # Python >= 3.12.1 makes Server.wait_closed() wait for handler
        # tasks; close() must cancel the ones parked on idle keep-alive
        # connections or shutdown hangs until clients go away.
        svc = ClusterService(datasets=(), job_workers=1)
        server = BackgroundServer(svc).start()
        idle = Client(server.port)
        try:
            assert idle.request("GET", "/healthz")[0] == 200
            begin = time.monotonic()
            server.stop()  # idle keep-alive connection still open
            assert time.monotonic() - begin < 10.0
        finally:
            idle.close()


class TestGraphEndpoints:
    def test_list_includes_builtin_and_uploaded(self, client):
        status, payload = client.request("GET", "/graphs")
        assert status == 200
        names = {graph["name"]: graph for graph in payload["graphs"]}
        assert names["toy"]["loaded"] is True
        assert names["toy"]["nodes"] == 6
        assert names["krogan"]["source"] == "builtin"
        assert names["krogan"]["loaded"] is False  # lazy until first use

    def test_stats(self, client):
        status, payload = client.request("GET", "/graphs/toy")
        assert status == 200
        assert payload["nodes"] == 6
        assert payload["edges"] == 7
        assert payload["largest_component"]["nodes"] == 6
        assert 0 < payload["edge_probability"]["min"] <= 1

    def test_upload_json_edges(self, client):
        status, payload = client.request(
            "PUT", "/graphs/uploaded", {"edges": [["a", "b", 0.5], ["b", "c", 0.75]]}
        )
        assert (status, payload["nodes"], payload["edges"]) == (200, 3, 2)
        status, payload = client.request("GET", "/graphs/uploaded")
        assert status == 200 and payload["edges"] == 2

    def test_upload_uel_text(self, client):
        status, payload = client.request(
            "PUT", "/graphs/text", "0 1 0.5\n1 2 0.25\n", content_type="text/plain"
        )
        assert status == 200
        assert payload == {"name": "text", "nodes": 3, "edges": 2}

    def test_upload_bad_probability_400_with_line(self, client):
        status, payload = client.request(
            "PUT", "/graphs/bad", "0 1 0.5\n1 2 1.5\n", content_type="text/plain"
        )
        assert status == 400
        assert "line 2" in payload["error"]["message"]
        assert client.request("GET", "/graphs/bad")[0] == 404  # nothing registered

    def test_upload_json_nan_probability_400(self, client):
        # json.loads accepts the NaN literal; from_edges rejects it and
        # names the edge's position.
        status, payload = client.request(
            "PUT", "/graphs/bad", body='{"edges": [[0, 1, 0.5], [1, 2, NaN]]}'
        )
        assert status == 400
        assert "edge 2" in payload["error"]["message"]
        status, payload = client.request(
            "PUT", "/graphs/bad", {"edges": [[0, 1, 1.5]]}
        )
        assert status == 400
        assert "outside [0, 1]" in payload["error"]["message"]
        status, payload = client.request(
            "PUT", "/graphs/bad", {"edges": [[0, 1, 0.5], [1, 2]]}
        )
        assert status == 400
        assert "triple" in payload["error"]["message"]

    def test_upload_malformed_json_400(self, client):
        status, payload = client.request("PUT", "/graphs/bad", body="{nope")
        assert status == 400
        assert "malformed JSON" in payload["error"]["message"]

    def test_upload_json_non_object_body_400(self, client):
        status, payload = client.request("PUT", "/graphs/bad", [[0, 1, 0.5]])
        assert status == 400
        assert "object" in payload["error"]["message"]

    def test_delete(self, client):
        client.request("PUT", "/graphs/gone", "0 1 0.5\n", content_type="text/plain")
        assert client.request("DELETE", "/graphs/gone")[0] == 200
        assert client.request("GET", "/graphs/gone")[0] == 404
        assert client.request("DELETE", "/graphs/gone")[0] == 404

    def test_unknown_graph_404(self, client):
        status, payload = client.request("GET", "/graphs/missing")
        assert status == 404
        assert "no such graph" in payload["error"]["message"]


class TestEstimate:
    def test_estimate_matches_library(self, client):
        status, payload = client.request(
            "GET", "/graphs/toy/estimate?u=0&v=1&samples=400&seed=3"
        )
        assert status == 200
        from repro.sampling.oracle import MonteCarloOracle

        oracle = MonteCarloOracle(_toy_graph(), seed=3)
        oracle.ensure_samples(400)
        assert payload["estimate"] == oracle.connection(0, 1)

    def test_estimate_warm_second_request(self, client):
        path = "/graphs/toy/estimate?u=0&v=5&samples=300"
        _, cold = client.request("GET", path)
        _, warm = client.request("GET", path)
        assert cold["worlds_sampled"] == 300
        assert warm["worlds_sampled"] == 0
        assert warm["worlds_cached"] == 300
        assert warm["estimate"] == cold["estimate"]

    def test_estimate_depth(self, client):
        status, payload = client.request(
            "GET", "/graphs/toy/estimate?u=0&v=5&samples=200&depth=1"
        )
        assert status == 200
        assert payload["estimate"] == 0.0  # not adjacent

    def test_missing_params_400(self, client):
        status, payload = client.request("GET", "/graphs/toy/estimate?u=0")
        assert status == 400
        assert "'u' and 'v'" in payload["error"]["message"]

    def test_unknown_node_404(self, client):
        status, payload = client.request("GET", "/graphs/toy/estimate?u=0&v=banana")
        assert status == 404
        assert "no such node" in payload["error"]["message"]

    def test_bad_samples_400(self, client):
        status, _ = client.request("GET", "/graphs/toy/estimate?u=0&v=1&samples=goose")
        assert status == 400

    def test_samples_above_cap_400(self, client):
        # A request must not be able to lift the oracle's sample budget.
        status, payload = client.request(
            "GET", "/graphs/toy/estimate?u=0&v=1&samples=2000000000"
        )
        assert status == 400
        assert "samples" in payload["error"]["message"]

    @pytest.mark.parametrize("query", ["backend=scipy", "backend=unionfind", "chunk_size=64"])
    def test_unknown_query_parameter_400(self, client, query):
        """Unknown keys are rejected, as unknown job fields are: a client
        still sending the removed ``backend`` learns it is gone."""
        status, payload = client.request(
            "GET", f"/graphs/toy/estimate?u=0&v=1&samples=100&{query}"
        )
        assert status == 400
        assert payload["error"]["message"] == (
            f"unknown estimate query parameters: [{query.split('=')[0]!r}]"
        )

    def test_every_known_query_parameter_accepted(self, client):
        status, payload = client.request(
            "GET", "/graphs/toy/estimate?u=0&v=1&samples=100&seed=2&depth=3"
        )
        assert status == 200
        assert (payload["samples"], payload["seed"], payload["depth"]) == (100, 2, 3)


class TestJobs:
    PARAMS = {"graph": "toy", "algorithm": "mcp", "k": 2, "samples": 300, "seed": 0}

    def test_warm_repeat_zero_sampling_and_bit_identical_labels(self, client, monkeypatch):
        """The acceptance pin: sampler spy + library equivalence."""
        calls = []
        original = ParallelSampler.sample_chunk

        def spying(self, seed_seq, start, count):
            calls.append((start, count))
            return original(self, seed_seq, start, count)

        monkeypatch.setattr(ParallelSampler, "sample_chunk", spying)

        cold = client.run_job(self.PARAMS)
        assert cold["worlds_sampled"] > 0
        calls_after_cold = len(calls)
        assert calls_after_cold > 0

        warm = client.run_job(self.PARAMS)
        assert len(calls) == calls_after_cold  # zero new sample_chunk calls
        assert warm["warm"] is True
        assert warm["worlds_sampled"] == 0
        assert warm["worlds_cached"] > 0
        assert warm["assignment"] == cold["assignment"]
        assert warm["centers"] == cold["centers"]

        library = mcp_clustering(
            _toy_graph(), 2, seed=0,
            sample_schedule=PracticalSchedule(max_samples=300),
        )
        assert warm["assignment"] == [int(x) for x in library.clustering.assignment]
        assert warm["centers"] == [int(x) for x in library.clustering.centers]
        assert warm["min_prob"] == library.min_prob_estimate
        assert warm["q_final"] == library.q_final

    def test_acp_job(self, client):
        result = client.run_job({**self.PARAMS, "algorithm": "acp"})
        assert result["algorithm"] == "acp"
        assert 0 <= result["avg_prob"] <= 1
        assert len(result["assignment"]) == 6

    def test_mcl_job(self, client):
        result = client.run_job({"graph": "toy", "algorithm": "mcl"})
        assert result["algorithm"] == "mcl"
        assert result["n_clusters"] >= 1

    def test_gmm_job(self, client):
        result = client.run_job({"graph": "toy", "algorithm": "gmm", "k": 2})
        assert result["algorithm"] == "gmm"
        assert len(set(result["assignment"])) == 2

    def test_mcp_acp_share_one_pool(self, client):
        mcp = client.run_job({**self.PARAMS, "seed": 9})
        acp = client.run_job({**self.PARAMS, "seed": 9, "algorithm": "acp"})
        assert acp["pool_digest"] == mcp["pool_digest"]
        # ACP may explore lower thresholds (needing pool growth), but it
        # starts from MCP's pool instead of resampling it.
        assert acp["worlds_cached"] >= mcp["worlds_sampled"] > 0

    def test_unknown_graph_404(self, client):
        status, payload = client.request("POST", "/jobs", {**self.PARAMS, "graph": "nope"})
        assert status == 404
        assert "no such graph" in payload["error"]["message"]

    def test_malformed_body_400(self, client):
        status, payload = client.request("POST", "/jobs", body="{broken")
        assert status == 400
        assert "malformed JSON" in payload["error"]["message"]

    def test_unknown_algorithm_400(self, client):
        status, payload = client.request("POST", "/jobs", {**self.PARAMS, "algorithm": "magic"})
        assert status == 400
        assert "algorithm" in payload["error"]["message"]

    def test_unknown_field_400(self, client):
        status, payload = client.request("POST", "/jobs", {**self.PARAMS, "bogus": 1})
        assert status == 400
        assert "bogus" in payload["error"]["message"]

    def test_job_not_found_404(self, client):
        assert client.request("GET", "/jobs/job-999999")[0] == 404
        assert client.request("GET", "/jobs/job-999999/result")[0] == 404
        assert client.request("DELETE", "/jobs/job-999999")[0] == 404

    def test_result_before_done_409(self, service, client):
        # Saturate both workers with a gate so the probe job stays queued.
        gate = threading.Event()
        original = service._run_job

        def gated(job):
            if job.params.get("algorithm") == "gmm":
                gate.wait(TIMEOUT)
            return original(job)

        set_job_runner(service, gated)
        try:
            for seed in (101, 102):
                client.request("POST", "/jobs", {"graph": "toy", "algorithm": "gmm",
                                                 "k": 2, "seed": seed})
            status, submitted = client.request("POST", "/jobs", {**self.PARAMS, "seed": 77})
            assert status == 202
            status, payload = client.request("GET", f"/jobs/{submitted['job']}/result")
            assert status == 409
            assert "not done" in payload["error"]["message"]
        finally:
            gate.set()
            set_job_runner(service, original)
        client.wait_job(submitted["job"])

    def test_cancel_queued_job(self, service, client):
        gate = threading.Event()
        original = service._run_job

        def gated(job):
            if job.params.get("algorithm") == "gmm":
                gate.wait(TIMEOUT)
            return original(job)

        set_job_runner(service, gated)
        try:
            for seed in (201, 202):
                client.request("POST", "/jobs", {"graph": "toy", "algorithm": "gmm",
                                                 "k": 2, "seed": seed})
            _, submitted = client.request("POST", "/jobs", {**self.PARAMS, "seed": 88})
            status, payload = client.request("DELETE", f"/jobs/{submitted['job']}")
            assert status == 202
            described = client.wait_job(submitted["job"])
            assert described["status"] == "cancelled"
            status, payload = client.request("GET", f"/jobs/{submitted['job']}/result")
            assert status == 409
            assert "cancelled" in payload["error"]["message"]
        finally:
            gate.set()
            set_job_runner(service, original)

    def test_coalescing_identical_inflight_jobs(self, service, client):
        gate = threading.Event()
        original = service._run_job

        def gated(job):
            gate.wait(TIMEOUT)
            return original(job)

        set_job_runner(service, gated)
        try:
            params = {**self.PARAMS, "seed": 55}
            _, first = client.request("POST", "/jobs", params)
            assert first["coalesced"] is False
            # Field order and explicit defaults must not defeat coalescing.
            _, second = client.request(
                "POST", "/jobs",
                {"seed": 55, "k": 2, "samples": 300, "graph": "toy",
                 "algorithm": "mcp", "chunk_size": 512},
            )
            assert second["job"] == first["job"]
            assert second["coalesced"] is True
            _, different = client.request("POST", "/jobs", {**params, "seed": 56})
            assert different["job"] != first["job"]
        finally:
            gate.set()
            set_job_runner(service, original)
        assert client.wait_job(first["job"])["status"] == "done"
        status, payload = client.request("GET", f"/jobs/{first['job']}")
        assert payload["coalesced"] == 1

    def test_reupload_does_not_coalesce_or_redirect_inflight_jobs(self, service, client):
        gate = threading.Event()
        original = service._run_job

        def gated(job):
            gate.wait(TIMEOUT)
            return original(job)

        set_job_runner(service, gated)
        client.request("PUT", "/graphs/mut", "0 1 0.9\n1 2 0.9\n2 3 0.9\n",
                       content_type="text/plain")
        params = {"graph": "mut", "algorithm": "gmm", "k": 2}
        try:
            _, first = client.request("POST", "/jobs", params)
            # Replace the graph under the same name while the job waits.
            client.request("PUT", "/graphs/mut",
                           "0 1 0.9\n1 2 0.9\n2 3 0.9\n3 4 0.9\n",
                           content_type="text/plain")
            _, second = client.request("POST", "/jobs", params)
            assert second["job"] != first["job"]  # new contents: no coalescing
            assert second["coalesced"] is False
        finally:
            gate.set()
            set_job_runner(service, original)
        client.wait_job(first["job"])
        client.wait_job(second["job"])
        _, res1 = client.request("GET", f"/jobs/{first['job']}/result")
        _, res2 = client.request("GET", f"/jobs/{second['job']}/result")
        # Each job ran on the graph captured at its submission.
        assert len(res1["assignment"]) == 4
        assert len(res2["assignment"]) == 5

    def test_samples_below_schedule_floor_400(self, client):
        status, payload = client.request("POST", "/jobs", {**self.PARAMS, "samples": 10})
        assert status == 400
        assert "samples" in payload["error"]["message"] and "50" in payload["error"]["message"]

    def test_job_samples_above_cap_400(self, client):
        status, payload = client.request(
            "POST", "/jobs", {**self.PARAMS, "samples": 2_000_000_000}
        )
        assert status == 400
        assert "samples" in payload["error"]["message"]

    def test_jobs_list(self, client):
        client.run_job({"graph": "toy", "algorithm": "gmm", "k": 3})
        status, payload = client.request("GET", "/jobs")
        assert status == 200
        assert any(job["status"] == "done" for job in payload["jobs"])

    def test_cache_endpoint_reports_pools(self, client):
        client.run_job(self.PARAMS)
        status, payload = client.request("GET", "/cache")
        assert status == 200
        assert payload["pools"] >= 1
        assert payload["bytes"] > 0
        assert payload["leases"] >= 1


#: A job that runs until cancelled: k=1 drives the mcp threshold
#: search deep under a sample cap far beyond what the toy graph needs.
#: With one worker it holds every later job ``queued`` behind it.
BLOCKER = {"graph": "toy", "algorithm": "mcp", "k": 1, "samples": 1_000_000, "seed": 71}
GMM = {"graph": "toy", "algorithm": "gmm", "k": 2, "seed": 0}


@pytest.fixture(params=["thread", "process"])
def make_queue(request):
    """Build job queues over one executor, each with one worker.

    The thread queue runs the service's own runner; both execute real
    jobs on the toy graph.  Every queue made is shut down afterwards.
    """
    from repro.service.workers import ProcessJobQueue

    queues = []

    def make(retain: int = 256) -> JobQueue:
        if request.param == "thread":
            queue = JobQueue(ClusterService(datasets=())._run_job, workers=1, retain=retain)
        else:
            queue = ProcessJobQueue(workers=1, retain=retain)
        queues.append(queue)
        return queue

    yield make
    for queue in queues:
        queue.shutdown()


def _submit(queue: JobQueue, params: dict, **kwargs):
    """Submit ``params`` as the service does: normalized, graph captured."""
    from repro.service.app import normalize_job_params

    return queue.submit(normalize_job_params(params), context=(_toy_graph(), ()), **kwargs)


class TestJobQueueUnit:
    """Queue semantics that are racy to pin over HTTP, under both executors."""

    def test_canonical_key_order_insensitive(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key({"b": 2, "a": 1})
        assert canonical_key({"a": 1}) != canonical_key({"a": 2})

    def test_coalesces_only_while_in_flight(self, make_queue):
        queue = make_queue()
        blocker, _ = _submit(queue, BLOCKER)
        first, coalesced_first = _submit(queue, GMM)
        again, coalesced_again = _submit(queue, GMM)
        assert not coalesced_first and coalesced_again
        assert again.id == first.id and first.coalesced == 1
        queue.cancel(blocker.id)
        assert _wait_terminal(queue, first.id).status == "done"
        fresh, coalesced_fresh = _submit(queue, GMM)
        assert not coalesced_fresh and fresh.id != first.id
        assert _wait_terminal(queue, fresh.id).status == "done"

    def test_cancel_running_job_via_cancel_check(self):
        started = threading.Event()

        def runner(job):
            started.set()
            deadline = time.monotonic() + TIMEOUT
            while time.monotonic() < deadline:
                if job.cancel_event.is_set():
                    raise JobCancelledError("observed cancel")
                time.sleep(0.005)
            raise AssertionError("cancel never observed")

        queue = JobQueue(runner, workers=1)
        try:
            job, _ = queue.submit({"slow": True})
            assert started.wait(TIMEOUT)
            queue.cancel(job.id)
            final = _wait_terminal(queue, job.id)
            assert final.status == "cancelled"
            assert "observed cancel" in final.error
        finally:
            queue.shutdown()

    def test_cancelled_job_stops_coalescing_immediately(self, make_queue):
        queue = make_queue()
        doomed, _ = _submit(queue, BLOCKER)
        queue.cancel(doomed.id)  # key must leave the coalescing ledger now
        fresh, coalesced = _submit(queue, BLOCKER)
        assert not coalesced
        assert fresh.id != doomed.id
        queue.cancel(fresh.id)
        assert _wait_terminal(queue, doomed.id).status == "cancelled"
        assert _wait_terminal(queue, fresh.id).status == "cancelled"

    def test_failure_recorded_not_raised(self, make_queue):
        queue = make_queue()
        job, _ = _submit(queue, {**GMM, "k": 10})  # the toy graph has 6 nodes
        final = _wait_terminal(queue, job.id)
        assert final.status == "failed"
        assert final.error.startswith("ClusteringError: k must satisfy")
        assert queue.active_count() == 0
        with pytest.raises(ServiceError):
            queue.get("job-424242")

    def test_terminal_jobs_pruned(self, make_queue):
        queue = make_queue(retain=2)
        done = []
        for seed in range(3):
            job, _ = _submit(queue, {**GMM, "seed": seed})
            _wait_terminal(queue, job.id)
            done.append(job.id)
        blocker, _ = _submit(queue, BLOCKER)  # prunes the oldest of three
        held, _ = _submit(queue, {**GMM, "seed": 9})
        assert [job.id for job in queue.list()] == [*done[1:], blocker.id, held.id]
        queue.cancel(blocker.id)
        assert _wait_terminal(queue, held.id).status == "done"
        _wait_terminal(queue, blocker.id)
        newest, _ = _submit(queue, {**GMM, "seed": 10})
        # Oldest terminal first, the job just submitted never.
        assert [job.id for job in queue.list()] == [blocker.id, held.id, newest.id]
        _wait_terminal(queue, newest.id)

    def test_counts_balance_under_concurrent_submit_and_cancel(self):
        """More threads than cores race submits, coalescing and cancels;
        a lost update would leave a non-zero active or per-client count."""
        import sys

        queue = JobQueue(lambda job: {"ok": True}, workers=4, retain=1000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def submitter(client):
                for i in range(60):
                    job, _ = queue.submit({"i": i % 7}, client=client)
                    if i % 3 == 0:
                        queue.cancel(job.id)

            threads = [threading.Thread(target=submitter, args=(f"c{n}",)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(TIMEOUT)
            assert not any(thread.is_alive() for thread in threads)
            for job in queue.list():
                _wait_terminal(queue, job.id)
            assert queue.active_count() == 0
            snapshots = []
            last, _ = queue.submit({"last": True}, client="c0", admit=snapshots.append)
            assert snapshots == [{"queued": 0, "running": 0, "client_active": 0,
                                  "workers": 4}]
            _wait_terminal(queue, last.id)
        finally:
            sys.setswitchinterval(interval)
            queue.shutdown()

    def test_submit_after_shutdown_is_503_and_registers_nothing(self, make_queue):
        queue = make_queue()
        queue.shutdown()
        for _ in range(2):  # the repeat must not coalesce onto a phantom job
            with pytest.raises(ServiceError) as caught:
                _submit(queue, GMM, client="c")
            assert caught.value.status == 503
        assert queue.list() == []
        assert queue.active_count() == 0

    def test_admission_snapshot_counts(self, make_queue):
        queue = make_queue()
        snapshots = []
        blocker, _ = _submit(queue, BLOCKER, client="c", admit=snapshots.append)
        _submit(queue, GMM, client="c", admit=snapshots.append)
        _submit(queue, GMM, client="c", admit=snapshots.append)  # coalesced: no check
        other, _ = _submit(queue, {**GMM, "seed": 1}, client="d", admit=snapshots.append)
        assert snapshots[0] == {"queued": 0, "running": 0, "client_active": 0, "workers": 1}
        assert len(snapshots) == 3
        assert snapshots[1]["queued"] + snapshots[1]["running"] == 1
        assert snapshots[1]["client_active"] == 1
        assert snapshots[2]["queued"] + snapshots[2]["running"] == 2
        assert snapshots[2]["client_active"] == 0
        queue.cancel(blocker.id)
        _wait_terminal(queue, blocker.id)
        _wait_terminal(queue, other.id)
        assert queue.active_count() == 0
        last = []
        job, _ = _submit(queue, {**GMM, "seed": 2}, client="c", admit=last.append)
        assert last == [{"queued": 0, "running": 0, "client_active": 0, "workers": 1}]
        _wait_terminal(queue, job.id)


def _wait_terminal(queue: JobQueue, job_id: str):
    deadline = time.monotonic() + TIMEOUT
    while time.monotonic() < deadline:
        job = queue.get(job_id)
        if job.status in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.005)
    raise AssertionError(f"job {job_id} never reached a terminal state")


class TestCancelCheckLibrary:
    """cancel_check= is honored by the core entrypoints themselves."""

    def test_mcp_cancel_check_aborts(self):
        calls = []

        def cancel_check():
            calls.append(None)
            if len(calls) >= 2:
                raise JobCancelledError("stop")

        # k=1 forces the threshold past the 0.05 bridge, so the schedule
        # needs several guesses — the second one is cancelled.
        with pytest.raises(JobCancelledError):
            mcp_clustering(_toy_graph(), 1, seed=0, cancel_check=cancel_check)
        assert len(calls) == 2

    def test_acp_cancel_check_aborts(self):
        from repro.core.acp import acp_clustering

        def cancel_check():
            raise JobCancelledError("stop")

        with pytest.raises(JobCancelledError):
            acp_clustering(_toy_graph(), 2, seed=0, cancel_check=cancel_check)


class TestOracleCacheEviction:
    def test_lru_eviction_respects_budget_and_pins(self):
        from repro.service.cache import OracleCache

        graph = _toy_graph()
        # One 6-node/7-edge pool of 256 worlds: 7*4*8 mask bytes
        # + 256*6*2 uint16 label bytes ~ 3.2 KiB. Budget of 5 KiB keeps one.
        cache = OracleCache(max_bytes=5 * 1024)
        for seed in range(3):
            with cache.lease(graph, seed=seed) as oracle:
                oracle.ensure_samples(256)
        stats = cache.stats()
        assert stats["evictions"] >= 2
        assert stats["bytes"] <= 5 * 1024
        assert stats["pools"] == 1
        # The surviving pool is the most recently used: seed=2 is warm.
        with cache.lease(graph, seed=2) as oracle:
            oracle.ensure_samples(256)
            assert oracle.cache_stats["worlds_sampled"] == 0

    def test_legacy_disk_pools_are_evictable(self, tmp_path):
        from repro.sampling.store import WorldStore
        from repro.service.cache import OracleCache

        graph = _toy_graph()
        # A previous process leaves a pool in the cache directory...
        from repro.sampling.oracle import MonteCarloOracle

        with MonteCarloOracle(graph, seed=99, store=WorldStore(tmp_path)) as old:
            old.ensure_samples(512)
        # ...that alone exceeds this service's budget. It must be the
        # eviction victim — not every pool this process actually uses.
        cache = OracleCache(WorldStore(tmp_path), max_bytes=6 * 1024)
        for _ in range(2):
            with cache.lease(graph, seed=0) as oracle:
                oracle.ensure_samples(256)
        stats = cache.stats()
        assert stats["warm_leases"] == 1  # second lease stayed warm
        digests = {pool.digest for pool in cache.store.info()}
        assert len(digests) == 1  # legacy pool evicted, active one kept

    def test_other_process_pools_join_the_recency_order(self, tmp_path):
        """A second store over the same directory stands in for another
        worker process: its fresh pool is not evicted ahead of pools
        this cache leased earlier, and a pool it clears (or re-samples)
        is reflected in this cache's total."""
        from repro.sampling.oracle import MonteCarloOracle
        from repro.sampling.store import WorldStore, pool_fingerprint
        from repro.service.cache import OracleCache

        graph = _toy_graph()
        # 7 edges x 4 words x 8 B of masks + 256 worlds x 6 nodes x 2 B of labels.
        pool_bytes = 7 * 4 * 8 + 256 * 6 * 2
        cache = OracleCache(WorldStore(tmp_path), max_bytes=3 * pool_bytes)
        for seed in (0, 1):
            with cache.lease(graph, seed=seed) as oracle:
                oracle.ensure_samples(256)
        other = WorldStore(tmp_path)
        with MonteCarloOracle(graph, seed=2, store=other) as oracle:
            oracle.ensure_samples(256)
        with cache.lease(graph, seed=3) as oracle:  # the fourth pool: one must go
            oracle.ensure_samples(256)
        survivors = {pool.digest for pool in cache.store.info()}
        assert cache.stats()["evictions"] == 1
        assert pool_fingerprint(graph, 0) not in survivors  # least recently leased
        assert pool_fingerprint(graph, 2) in survivors  # the other process's fresh pool

        before = cache.stats()
        other.clear(pool_fingerprint(graph, 1))
        after = cache.stats()
        assert after["pools"] == before["pools"] - 1
        assert after["bytes"] == before["bytes"] - pool_bytes
        # Re-sampled by the other process at a different size: re-read once.
        with MonteCarloOracle(graph, seed=1, store=other) as oracle:
            oracle.ensure_samples(128)
        assert cache.stats()["bytes"] == after["bytes"] + 7 * 2 * 8 + 128 * 6 * 2

    def test_pinned_pool_never_evicted_mid_lease(self):
        from repro.service.cache import OracleCache

        graph = _toy_graph()
        cache = OracleCache(max_bytes=1)  # everything over budget
        with cache.lease(graph, seed=0) as oracle:
            oracle.ensure_samples(128)
            # Mid-lease the pool must still be readable and intact.
            assert cache.store.count(oracle.pool_digest) == 128
        # After release the budget evicts it.
        assert cache.stats()["pools"] == 0


class TestOracleCacheAccounting:
    """Regression pins for the byte-accounting and recency bookkeeping."""

    def test_size_snapshots_taken_under_cache_lock(self):
        from repro.service.cache import OracleCache

        cache = OracleCache(max_bytes=1024)
        locked_during_snapshot = []
        original = cache._pool_bytes

        def spying_pool_bytes():
            locked_during_snapshot.append(cache._lock.locked())
            return original()

        cache._pool_bytes = spying_pool_bytes
        cache._enforce_budget()
        cache.stats()
        # Both paths used to snapshot before taking the lock, letting a
        # registering lease grow a pool between snapshot and eviction.
        assert locked_during_snapshot == [True, True]

    def test_budget_race_with_registering_lease(self):
        """_enforce_budget racing a lease that is registering its pool.

        The old lock-free snapshot could mis-subtract stale sizes and
        leave the budget silently overshot; under the fix, concurrent
        enforcement is linearized and the final footprint lands within
        budget once all leases drain.
        """
        import threading

        from repro.service.cache import OracleCache

        graph = _toy_graph()
        cache = OracleCache(max_bytes=5 * 1024)  # ~one 256-world pool
        errors = []

        def churn(seed: int):
            try:
                for _ in range(5):
                    with cache.lease(graph, seed=seed) as oracle:
                        oracle.ensure_samples(256)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(s,)) for s in range(3)]
        for t in threads:
            t.start()
        for _ in range(50):
            cache._enforce_budget()
            cache.stats()
        for t in threads:
            t.join()
        assert not errors
        assert cache.stats()["bytes"] <= 5 * 1024

    def test_under_budget_check_does_constant_work(self, tmp_path, monkeypatch):
        """The budget check reads the store's byte ledger: one directory
        listing, no ledger header parse for pools it already knows, no
        PoolInfo rows, no per-pool block-size sums."""
        import numpy as np

        import repro.sampling.store as store_module
        from repro.sampling.store import WorldStore, pack_mask_columns
        from repro.service.cache import OracleCache

        graph = _toy_graph()
        packed = pack_mask_columns(np.ones((1, graph.n_edges), dtype=bool))
        labels = np.zeros((1, graph.n_nodes), dtype=np.int32)
        writer = WorldStore(tmp_path)
        for seed in range(300):
            writer.append(writer.register(graph, seed), 0, packed, labels)
        cache = OracleCache(WorldStore(tmp_path), max_bytes=1 << 30)
        cache._enforce_budget()  # every pool known from here on

        calls = {"listdir": 0, "json.loads": 0, "PoolInfo": 0, "block sums": 0}

        def spy(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(store_module.os, "listdir", spy("listdir", store_module.os.listdir))
        monkeypatch.setattr(store_module.json, "loads", spy("json.loads", store_module.json.loads))
        monkeypatch.setattr(store_module, "PoolInfo", spy("PoolInfo", store_module.PoolInfo))
        monkeypatch.setattr(
            store_module, "_mask_block_bytes",
            spy("block sums", store_module._mask_block_bytes),
        )
        cache._enforce_budget()
        assert calls == {"listdir": 1, "json.loads": 0, "PoolInfo": 0, "block sums": 0}
        assert cache.stats()["pools"] == 300
        # A pool another process adds costs exactly one header parse, once.
        writer.append(writer.register(graph, 300), 0, packed, labels)
        cache._enforce_budget()
        cache._enforce_budget()
        assert calls["json.loads"] == 1 and calls["PoolInfo"] == 0
        assert cache.stats()["pools"] == 301
        assert cache.stats()["evictions"] == 0

    def test_failed_construction_leaves_no_recency_entry(self):
        from repro.service.cache import OracleCache

        graph = _toy_graph()
        cache = OracleCache(max_bytes=1 << 20)
        with pytest.raises(ValueError):
            with cache.lease(graph, seed=0, max_samples=0):
                pass  # pragma: no cover - construction raises
        # The failed lease must not enter the LRU or trip enforcement:
        # its digest was never registered in the store.
        assert len(cache._recency) == 0
        assert cache.stats()["leases"] == 1
        # A later healthy lease with the same key starts cold but clean.
        with cache.lease(graph, seed=0) as oracle:
            oracle.ensure_samples(64)
        assert len(cache._recency) == 1


class TestGraphMutation:
    """PATCH /graphs/{name}/edges: revisions, coalescing, warm derivation."""

    def test_patch_updates_edge_and_bumps_revision(self, client):
        status, before = client.request("GET", "/graphs")
        rev_before = next(g["revision"] for g in before["graphs"] if g["name"] == "toy")
        status, payload = client.request(
            "PATCH", "/graphs/toy/edges",
            {"ops": [{"op": "update", "u": 0, "v": 1, "p": 0.25}]},
        )
        assert status == 200, payload
        assert payload["delta"] == {"added": 0, "removed": 0, "updated": 1}
        assert payload["revision"] > rev_before
        assert payload["graph_revision"] == 1
        status, after = client.request("GET", "/graphs/toy")
        assert after["edge_probability"]["min"] == 0.05  # untouched edge

    def test_patch_add_and_remove(self, client):
        status, payload = client.request(
            "PATCH", "/graphs/toy/edges",
            {"ops": [{"op": "add", "u": 0, "v": 5, "p": 0.5},
                     {"op": "remove", "u": 2, "v": 3}]},
        )
        assert status == 200
        assert payload["delta"] == {"added": 1, "removed": 1, "updated": 0}
        assert payload["edges"] == 7  # 7 - 1 + 1

    def test_patch_bare_list_body(self, client):
        status, payload = client.request(
            "PATCH", "/graphs/toy/edges", [{"op": "update", "u": 0, "v": 1, "p": 0.4}]
        )
        assert status == 200 and payload["delta"]["updated"] == 1

    def test_patch_validation_errors_400(self, client):
        cases = [
            {},                                                   # no ops
            {"ops": []},                                          # empty ops
            {"ops": [{"op": "toggle", "u": 0, "v": 1}]},          # bad op
            {"ops": [{"op": "add", "u": 0}]},                     # missing v
            {"ops": [{"op": "add", "u": 0, "v": 1, "p": 0.5}]},   # exists
            {"ops": [{"op": "remove", "u": 0, "v": 5}]},          # missing edge
            {"ops": [{"op": "update", "u": 0, "v": 1, "p": 1.5}]},  # bad p
            {"ops": [{"op": "update", "u": 0, "v": 1}]},          # no p
            {"ops": [{"op": "remove", "u": 0, "v": 1, "p": 0.5}]},  # p on remove
            {"ops": [{"op": "update", "u": 0, "v": 1, "p": 0.3},
                     {"op": "update", "u": 1, "v": 0, "p": 0.4}]},  # dup edge
        ]
        for body in cases:
            status, payload = client.request("PATCH", "/graphs/toy/edges", body)
            assert status == 400, (body, payload)
            assert "error" in payload

    def test_patch_unknown_graph_404(self, client):
        status, _ = client.request(
            "PATCH", "/graphs/nope/edges",
            {"ops": [{"op": "update", "u": 0, "v": 1, "p": 0.5}]},
        )
        assert status == 404

    def test_patch_unknown_node_404(self, client):
        status, payload = client.request(
            "PATCH", "/graphs/toy/edges",
            {"ops": [{"op": "update", "u": 0, "v": 99, "p": 0.5}]},
        )
        assert status == 404
        assert "no such node" in payload["error"]["message"]

    @staticmethod
    def _toy_revision(client) -> int:
        _, listing = client.request("GET", "/graphs")
        return next(g["revision"] for g in listing["graphs"] if g["name"] == "toy")

    @pytest.mark.parametrize(
        "u,v", [(0, 4.9), (True, 4), (0, "4.0"), (0, None), (0, [4])], ids=repr
    )
    def test_patch_non_integer_node_token_404(self, client, u, v):
        """A token that only truncates or coerces to a node (``4.9`` to
        4, ``true`` to 1) names no node, so the graph stays put."""
        revision = self._toy_revision(client)
        status, payload = client.request(
            "PATCH", "/graphs/toy/edges", {"ops": [{"op": "add", "u": u, "v": v, "p": 0.5}]}
        )
        assert status == 404, payload
        assert "no such node" in payload["error"]["message"]
        assert self._toy_revision(client) == revision

    def test_patch_string_and_int_tokens_name_one_node(self, client):
        status, payload = client.request(
            "PATCH", "/graphs/toy/edges", {"ops": [{"op": "add", "u": "0", "v": 4, "p": 0.5}]}
        )
        assert status == 200 and payload["delta"]["added"] == 1
        status, payload = client.request(
            "PATCH", "/graphs/toy/edges", {"ops": [{"op": "remove", "u": 0, "v": "4"}]}
        )
        assert status == 200 and payload["delta"]["removed"] == 1

    def test_patch_bad_probability_400_leaves_graph(self, client):
        revision = self._toy_revision(client)
        for p in (1.5, 0, "x", None):
            status, payload = client.request(
                "PATCH", "/graphs/toy/edges", {"ops": [{"op": "update", "u": 0, "v": 1, "p": p}]}
            )
            assert status == 400, payload
            assert "probability" in payload["error"]["message"]
        assert self._toy_revision(client) == revision

    def test_patch_mutation_prevents_coalescing(self, service, client):
        """The regression pin: a PATCH (not just a re-upload) bumps the
        revision, so a post-mutation submission never coalesces with an
        in-flight pre-mutation job — and each job runs on its own
        revision's contents."""
        gate = threading.Event()
        original = service._run_job

        def gated(job):
            gate.wait(TIMEOUT)
            return original(job)

        set_job_runner(service, gated)
        params = {"graph": "toy", "algorithm": "gmm", "k": 2}
        try:
            _, first = client.request("POST", "/jobs", params)
            assert first["coalesced"] is False
            status, patched = client.request(
                "PATCH", "/graphs/toy/edges",
                {"ops": [{"op": "remove", "u": 2, "v": 3}]},
            )
            assert status == 200
            _, second = client.request("POST", "/jobs", params)
            assert second["job"] != first["job"]  # mutated contents: no coalescing
            assert second["coalesced"] is False
            # Identical re-submission against the *same* revision coalesces.
            _, third = client.request("POST", "/jobs", params)
            assert third["job"] == second["job"] and third["coalesced"] is True
        finally:
            gate.set()
            set_job_runner(service, original)
        client.wait_job(first["job"])
        client.wait_job(second["job"])

    def test_job_after_mutation_is_warm_via_derivation(self, service, client, monkeypatch):
        """Warm-after-mutation: the post-PATCH job derives the pool from
        the pre-mutation one and performs zero new sample_chunk calls."""
        params = {"graph": "toy", "algorithm": "mcp", "k": 2, "samples": 300, "seed": 3}
        cold = client.run_job(params)
        assert cold["worlds_sampled"] > 0

        calls = []
        original = ParallelSampler.sample_chunk

        def spying(sampler, root, start, count):
            calls.append(count)
            return original(sampler, root, start, count)

        monkeypatch.setattr(ParallelSampler, "sample_chunk", spying)
        status, _ = client.request(
            "PATCH", "/graphs/toy/edges",
            {"ops": [{"op": "update", "u": 0, "v": 1, "p": 0.91}]},
        )
        assert status == 200
        warm = client.run_job(params)
        assert calls == []  # derived, not resampled
        assert warm["worlds_sampled"] == 0
        assert warm["warm"] is True
        status, stats = client.request("GET", "/cache")
        assert stats["pools_derived"] >= 1
        assert stats["worlds_derived"] > 0
        # The derived labels equal a cold run of the mutated graph.
        graph, _rev, _anc = service.graphs.resolve_with_ancestors("toy")
        direct = mcp_clustering(
            graph, 2, seed=3,
            sample_schedule=PracticalSchedule(max_samples=300),
        )
        assert warm["assignment"] == direct.clustering.assignment.tolist()

    def test_estimate_after_mutation_is_warm(self, client):
        path = "/graphs/toy/estimate?u=0&v=2&samples=400&seed=1"
        status, cold = client.request("GET", path)
        assert status == 200 and cold["worlds_sampled"] == 400
        status, _ = client.request(
            "PATCH", "/graphs/toy/edges",
            {"ops": [{"op": "update", "u": 3, "v": 4, "p": 0.9}]},
        )
        assert status == 200
        status, warm = client.request("GET", path)
        assert status == 200
        assert warm["worlds_sampled"] == 0  # derived from the parent pool
        assert warm["worlds_cached"] == 400


class TestLoadgenFailureBodies:
    """`repro bench-serve` failure summaries carry response bodies."""

    def test_describe_failure_includes_body(self):
        from repro.service.loadgen import describe_failure

        assert describe_failure(400, {"error": "bad samples"}) == "400: bad samples"
        assert describe_failure(500, None) == "500: <no body>"
        assert describe_failure(502, {"weird": True}) == '502: {"weird": true}'
        long = describe_failure(400, {"error": "x" * 500})
        assert len(long) <= 210 and long.endswith("...")

    def test_sustained_load_failure_reports_body(self, server):
        """End to end: a non-200 during the sustained phase surfaces the
        service's error body, not just the status code."""
        import asyncio

        from repro.service.loadgen import ServiceClient, _estimate_worker

        async def run():
            latencies, failures = [], []
            client = ServiceClient("127.0.0.1", server.port)
            # Bad samples parameter -> 400 with a JSON error body.
            await _estimate_worker(
                "127.0.0.1", server.port,
                "/v1/graphs/toy/estimate?u=0&v=1&samples=0",
                time.monotonic() + 5, latencies, failures,
            )
            await client.close()
            return failures

        failures = asyncio.run(run())
        assert len(failures) == 1
        assert failures[0].startswith("400 [bad_request]:")
        assert "samples" in failures[0]  # the body, not just the code


def _read_sse(port: int, job_id: str, timeout: float = TIMEOUT):
    """GET /v1/jobs/{id}/events over a raw socket; return (head, events)."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(
            f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
            f"Host: h\r\nConnection: close\r\n\r\n".encode()
        )
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    events = []
    for line in body.decode().splitlines():
        if line.startswith("data: "):
            events.append(json.loads(line[len("data: "):]))
    return head.decode(), events


@pytest.fixture(scope="class")
def legacy_client():
    svc = ClusterService(datasets=(), job_workers=1)
    svc.graphs.register_graph("toy", _toy_graph(), source="test")
    with BackgroundServer(svc) as running:
        c = Client(running.port)
        yield c
        c.close()


class TestV1ApiSurface:
    """Satellite pins: /v1 prefix, request ids, envelope."""

    def test_unversioned_path_is_404_envelope(self, client):
        status, payload = client.request("GET", "/healthz", prefix="")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert payload["error"]["request_id"] == client.last_headers["x-request-id"]
        assert "deprecation" not in client.last_headers

    @pytest.mark.parametrize(
        "method,path",
        [
            ("GET", "/healthz"),
            ("GET", "/version"),
            ("GET", "/graphs"),
            ("GET", "/graphs/toy"),
            ("GET", "/graphs/toy/estimate?u=0&v=1"),
            ("GET", "/jobs"),
            ("POST", "/jobs"),
            ("GET", "/cache"),
            ("GET", "/metrics"),
        ],
    )
    def test_former_alias_is_404(self, legacy_client, method, path):
        """Each route answers only under ``/v1``; the old un-prefixed
        alias is an ordinary unknown path."""
        status, payload = legacy_client.request(method, path, prefix="")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert "deprecation" not in legacy_client.last_headers
        assert "link" not in legacy_client.last_headers
        # The same path under /v1 serves (every one of them has a GET).
        assert legacy_client.request_text("GET", path)[0] == 200

    def test_every_response_carries_unique_request_id(self, client):
        seen = set()
        for path in ("/healthz", "/nope", "/graphs"):
            client.request("GET", path)
            request_id = client.last_headers.get("x-request-id")
            assert request_id
            seen.add(request_id)
        assert len(seen) == 3

    def test_error_envelope_shape_and_request_id_echo(self, client):
        status, payload = client.request("GET", "/graphs/missing")
        assert status == 404
        error = payload["error"]
        assert error["code"] == "not_found"
        assert "no such graph" in error["message"]
        assert error["request_id"] == client.last_headers["x-request-id"]

    def test_405_envelope_code(self, client):
        status, payload = client.request("DELETE", "/healthz")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"

    def test_400_envelope_code(self, client):
        status, payload = client.request("POST", "/jobs", body="{broken")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"


class TestJobEventStream:
    """GET /v1/jobs/{id}/events — SSE replay of the job's lifecycle."""

    PARAMS = {"graph": "toy", "algorithm": "mcp", "k": 2, "samples": 300, "seed": 5}

    def test_sse_replays_lifecycle_to_terminal(self, client, server):
        status, submitted = client.request("POST", "/jobs", self.PARAMS)
        assert status == 202
        client.wait_job(submitted["job"])

        head, events = _read_sse(server.port, submitted["job"])
        assert "200" in head.splitlines()[0]
        assert "text/event-stream" in head.lower()
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert "running" in kinds
        assert "progress" in kinds  # mcp emits one record per guess
        assert kinds[-1] == "done"
        assert [event["seq"] for event in events] == list(range(len(events)))
        assert all(event["job"] == submitted["job"] for event in events)
        # Every event carries the *stream* request's id (SSE echo pin).
        stream_ids = {event["request_id"] for event in events}
        assert len(stream_ids) == 1 and stream_ids.pop()

    def test_sse_progress_records_carry_guess_data(self, client, server):
        status, submitted = client.request("POST", "/jobs", self.PARAMS)
        assert status == 202
        client.wait_job(submitted["job"])
        _, events = _read_sse(server.port, submitted["job"])
        progress = [e for e in events if e["event"] == "progress"]
        assert progress
        for record in progress:
            assert {"q", "samples", "covered"} <= set(record["data"])

    def test_sse_unknown_job_404_envelope(self, client):
        status, payload = client.request("GET", "/jobs/job-999999/events")
        assert status == 404
        assert payload["error"]["code"] == "not_found"


#: A job that runs ~0.3 s on the toy graph and ends ``done``: long
#: enough for a long-poll or an SSE subscriber to park before it ends.
#: Every use takes its own seed, so no repeat is served warm.
SLOW = {"graph": "toy", "algorithm": "mcp", "k": 1, "samples": 100_000}


@pytest.fixture(scope="class", params=["thread", "process"])
def any_server(request, tmp_path_factory):
    """``(service, server)`` serving the toy graph under either executor."""
    if request.param == "thread":
        svc = ClusterService(datasets=(), job_workers=2)
    else:
        svc = ClusterService(datasets=(), worker_processes=2,
                             world_cache=tmp_path_factory.mktemp("worlds"))
    svc.graphs.register_graph("toy", _toy_graph(), source="test")
    with BackgroundServer(svc) as running:
        yield svc, running


class TestLongPoll:
    """``GET /v1/jobs/{id}?wait=`` and the SSE tail are woken by the
    queue recording an event, not by polling, under both executors."""

    def test_long_poll_answers_within_10ms_of_terminal_event(self, any_server):
        svc, server = any_server
        client = Client(server.port)
        try:
            _, submitted = client.request("POST", "/jobs", {**SLOW, "seed": 1})
            sent = time.time()
            status, described = client.request("GET", f"/jobs/{submitted['job']}?wait=20")
            received = time.time()
        finally:
            client.close()
        assert status == 200 and described["status"] == "done"
        terminal = svc.jobs.get(submitted["job"]).events[-1]
        assert terminal["event"] == "done"
        assert sent < terminal["ts"]  # the poll was waiting when the job ended
        assert received - terminal["ts"] < 0.010

    def test_elapsed_wait_returns_non_terminal_description(self, any_server):
        svc, server = any_server
        client = Client(server.port)
        try:
            _, submitted = client.request("POST", "/jobs", {**SLOW, "seed": 2})
            job_id = submitted["job"]
            begin = time.monotonic()
            status, described = client.request("GET", f"/jobs/{job_id}?wait=0.05")
            assert time.monotonic() - begin >= 0.05
            assert status == 200
            assert described["id"] == job_id
            assert described["status"] in ("queued", "running")
            assert svc.jobs.get(job_id)._waiters == []  # the elapsed wait unregistered
            assert client.wait_job(job_id)["status"] == "done"
        finally:
            client.close()

    @pytest.mark.parametrize("wait", ["-1", "nan", "inf", "-inf", "soon", "", f"{MAX_WAIT_S + 0.5:g}"])
    def test_bad_wait_400(self, any_server, wait):
        _, server = any_server
        client = Client(server.port)
        try:
            _, submitted = client.request("POST", "/jobs", {**GMM, "seed": 3})
            status, payload = client.request("GET", f"/jobs/{submitted['job']}?wait={wait}")
            assert status == 400
            assert payload["error"]["code"] == "bad_request"
            assert "wait must be" in payload["error"]["message"]
            status, _ = client.request("GET", f"/jobs/{submitted['job']}?wait=0")
            assert status == 200
        finally:
            client.close()

    def test_sse_subscriber_receives_done_within_10ms(self, any_server):
        import socket

        svc, server = any_server
        client = Client(server.port)
        try:
            _, submitted = client.request("POST", "/jobs", {**SLOW, "seed": 4})
        finally:
            client.close()
        job_id = submitted["job"]
        with socket.create_connection(("127.0.0.1", server.port), timeout=TIMEOUT) as sock:
            sock.sendall(f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                         f"Host: h\r\nConnection: close\r\n\r\n".encode())
            raw = b""
            while b"event: done" not in raw:
                chunk = sock.recv(65536)
                assert chunk, raw
                raw += chunk
            received = time.time()
        terminal = svc.jobs.get(job_id).events[-1]
        assert terminal["event"] == "done"
        assert received - terminal["ts"] < 0.010

    def test_timed_out_and_cancelled_waiters_unregister(self, make_queue):
        import asyncio

        queue = make_queue()
        blocker, _ = _submit(queue, BLOCKER)
        queued, _ = _submit(queue, GMM)  # held behind the blocker: no new events

        async def scenario():
            assert await queued.wait_terminal(0.05) is False
            assert queued._waiters == []
            waiting = asyncio.ensure_future(queued.wait_events(len(queued.events)))
            await asyncio.sleep(0.01)
            assert len(queued._waiters) == 1
            waiting.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiting
            assert queued._waiters == []

        asyncio.run(scenario())
        queue.cancel(blocker.id)
        queue.cancel(queued.id)
        assert _wait_terminal(queue, queued.id).status == "cancelled"
        _wait_terminal(queue, blocker.id)


class TestJobListPagination:
    """GET /v1/jobs?state=&limit=&cursor= plus the pagination unit pins."""

    def test_state_filter_limit_and_cursor(self, client):
        ids = []
        for seed in range(4):
            _, submitted = client.request(
                "POST", "/jobs",
                {"graph": "toy", "algorithm": "gmm", "k": 2, "seed": seed},
            )
            ids.append(submitted["job"])
        for job_id in ids:
            client.wait_job(job_id)

        status, page1 = client.request("GET", "/jobs?state=done&limit=2")
        assert status == 200
        assert [job["status"] for job in page1["jobs"]] == ["done", "done"]
        assert page1["next_cursor"] == page1["jobs"][-1]["id"]

        status, page2 = client.request(
            "GET", f"/jobs?state=done&limit=2&cursor={page1['next_cursor']}"
        )
        assert status == 200
        assert page2["next_cursor"] is None
        walked = [job["id"] for job in page1["jobs"] + page2["jobs"]]
        assert walked == sorted(set(ids))  # every job exactly once, in order

        status, none_queued = client.request("GET", "/jobs?state=queued")
        assert status == 200 and none_queued["jobs"] == []

    def test_bad_query_params_400(self, client):
        assert client.request("GET", "/jobs?state=bogus")[0] == 400
        assert client.request("GET", "/jobs?limit=0")[0] == 400
        assert client.request("GET", "/jobs?limit=goose")[0] == 400
        assert client.request("GET", "/jobs?cursor=nope")[0] == 400

    def test_paginate_cursor_resumes_after_pruned_id(self):
        jobs = [Job(id=f"job-{i:06d}", key=str(i), params={}) for i in (1, 2, 4, 5)]
        page, cursor = paginate_jobs(jobs, limit=2)
        assert [job.id for job in page] == ["job-000001", "job-000002"]
        assert cursor == "job-000002"
        # job-000003 was pruned meanwhile: the cursor still resumes
        # strictly after it without skipping or repeating anything.
        page2, cursor2 = paginate_jobs(jobs, limit=2, cursor=cursor)
        assert [job.id for job in page2] == ["job-000004", "job-000005"]
        assert cursor2 is None

    def test_paginate_exact_last_page_has_no_cursor(self):
        jobs = [Job(id=f"job-{i:06d}", key=str(i), params={}) for i in (1, 2)]
        page, cursor = paginate_jobs(jobs, limit=2)
        assert len(page) == 2 and cursor is None

    def test_prune_is_deterministic_oldest_terminal_first(self):
        submitted = threading.Event()

        def runner(job):
            # Held until all five are in, so pruning on submit cannot
            # drop a finished one before it is awaited.
            submitted.wait(TIMEOUT)
            return {}

        queue = JobQueue(runner, workers=1, retain=2)
        try:
            ids = [queue.submit({"i": i})[0].id for i in range(5)]
            submitted.set()
            for job_id in ids:
                _wait_terminal(queue, job_id)
            newest, _ = queue.submit({"i": 99})
            _wait_terminal(queue, newest.id)
            kept = [job.id for job in queue.list()]
            # The three oldest terminal jobs are the pruning victims.
            assert kept == [ids[3], ids[4], newest.id]
        finally:
            queue.shutdown()


class TestPruneTerminalJobs:
    """Pruning walks the insertion-ordered job dict: the oldest terminal
    jobs go first, queued/running jobs never do, ``retain`` is kept."""

    @staticmethod
    def _jobs(statuses):
        jobs = {}
        for number, status in enumerate(statuses, start=1):
            job = Job(id=f"job-{number:06d}", key=str(number), params={})
            job.status = status
            jobs[job.id] = job
        return jobs

    def test_oldest_terminal_first_active_never(self):
        jobs = self._jobs(["done", "running", "failed", "queued", "cancelled",
                           "done", "running", "done"])
        prune_terminal_jobs(jobs, retain=2)
        assert list(jobs) == ["job-000002", "job-000004", "job-000006",
                              "job-000007", "job-000008"]

    @pytest.mark.parametrize("retain", [1, 3, 5, 9])
    def test_retain_is_exact(self, retain):
        statuses = ["done", "queued", "failed", "done", "running", "cancelled", "done"]
        jobs = self._jobs(statuses)
        prune_terminal_jobs(jobs, retain=retain)
        active = ("queued", "running")
        terminal = [job.id for job in jobs.values() if job.status not in active]
        all_terminal = [f"job-{i:06d}" for i, status in enumerate(statuses, start=1)
                        if status not in active]
        assert terminal == all_terminal[max(len(all_terminal) - retain, 0):]
        assert {"job-000002", "job-000005"} <= set(jobs)

    def test_thread_queue_keeps_running_job(self):
        release = threading.Event()
        submitted = threading.Event()

        def runner(job):
            # The four others are held until all are in, as above.
            (release if job.params.get("hold") else submitted).wait(TIMEOUT)
            return {}

        queue = JobQueue(runner, workers=2, retain=2)
        try:
            held, _ = queue.submit({"hold": True})
            ids = [queue.submit({"i": i})[0].id for i in range(4)]
            submitted.set()
            for job_id in ids:
                _wait_terminal(queue, job_id)
            newest, _ = queue.submit({"i": 99})
            _wait_terminal(queue, newest.id)
            assert queue.get(held.id).status in ("queued", "running")
            # The last submit pruned the two oldest of four terminal jobs.
            kept = [job.id for job in queue.list()]
            assert kept == [held.id, ids[2], ids[3], newest.id]
        finally:
            release.set()
            queue.shutdown()

    def test_process_queue_honours_retain(self):
        from repro.service.app import normalize_job_params
        from repro.service.workers import ProcessJobQueue

        graph = UncertainGraph.from_edges([(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7)])
        queue = ProcessJobQueue(workers=1, retain=2)
        try:
            ids = []
            for seed in range(4):
                params = normalize_job_params(
                    {"graph": "g", "algorithm": "gmm", "k": 2, "seed": seed})
                job, _ = queue.submit(params, context=(graph, ()))
                _wait_terminal(queue, job.id)
                ids.append(job.id)
            # Each submit prunes the terminal jobs beyond the newest two,
            # oldest first; the job just submitted is still active then.
            assert [job.id for job in queue.list()] == ids[1:]
            assert queue.get(ids[-1]).status == "done"
        finally:
            queue.shutdown()


class TestAdmissionControlUnit:
    def test_token_bucket_drains_and_refills(self):
        from repro.service.admission import TokenBucket

        bucket = TokenBucket(rate=1.0, burst=2)
        assert bucket.acquire(now=0.0) is None
        assert bucket.acquire(now=0.0) is None
        retry = bucket.acquire(now=0.0)
        assert retry is not None and retry > 0
        assert bucket.acquire(now=retry + 0.01) is None

    def test_rate_limiter_isolates_clients(self):
        from repro.service.admission import RateLimiter

        limiter = RateLimiter(rate=0.001, burst=1)
        assert limiter.check("alice") is None
        assert limiter.check("alice") is not None  # alice drained
        assert limiter.check("bob") is None  # bob unaffected

    def test_admit_job_queue_depth_bound(self):
        from repro.service.admission import AdmissionControl

        control = AdmissionControl(max_queued=2, max_jobs_per_client=8)
        control.admit_job({"queued": 1, "running": 2, "client_active": 0, "workers": 2})
        with pytest.raises(ServiceError) as caught:
            control.admit_job(
                {"queued": 2, "running": 2, "client_active": 0, "workers": 2}
            )
        assert caught.value.status == 429
        assert caught.value.code == "rate_limited"
        assert int(caught.value.headers["Retry-After"]) >= 1

    def test_admit_job_per_client_bound(self):
        from repro.service.admission import AdmissionControl

        control = AdmissionControl(max_queued=None, max_jobs_per_client=1)
        control.admit_job({"queued": 99, "running": 0, "client_active": 0, "workers": 1})
        with pytest.raises(ServiceError) as caught:
            control.admit_job(
                {"queued": 0, "running": 0, "client_active": 1, "workers": 1}
            )
        assert caught.value.status == 429


class TestAdmissionOverHttp:
    def test_burst_beyond_queue_bound_429_with_retry_after(self):
        from repro.service.admission import AdmissionControl

        svc = ClusterService(
            datasets=(), job_workers=1,
            admission=AdmissionControl(max_queued=1, max_jobs_per_client=None),
        )
        svc.graphs.register_graph("toy", _toy_graph(), source="test")
        gate = threading.Event()
        original = svc._run_job

        def gated(job):
            gate.wait(TIMEOUT)
            return original(job)

        set_job_runner(svc, gated)
        server = BackgroundServer(svc).start()
        client = Client(server.port)
        try:
            statuses, rejected = [], None
            accepted_params = None
            for seed in range(6):
                params = {"graph": "toy", "algorithm": "gmm", "k": 2, "seed": seed}
                status, payload = client.request("POST", "/jobs", params)
                statuses.append(status)
                if status == 202 and accepted_params is None:
                    accepted_params = params
                if status == 429:
                    rejected = payload
                    assert payload["error"]["code"] == "rate_limited"
                    assert int(client.last_headers["retry-after"]) >= 1
                    break
            assert rejected is not None, statuses
            # Coalesced resubmission of an in-flight job is never
            # rejected — it adds no load.
            status, payload = client.request("POST", "/jobs", accepted_params)
            assert status == 202 and payload["coalesced"] is True
        finally:
            gate.set()
            client.close()
            server.stop()

    def test_rate_limit_middleware_429_and_healthz_exempt(self):
        from repro.service.admission import AdmissionControl

        svc = ClusterService(
            datasets=(),
            admission=AdmissionControl(rate_limit=1.0, burst=2,
                                       max_queued=None, max_jobs_per_client=None),
        )
        server = BackgroundServer(svc).start()
        client = Client(server.port)
        try:
            statuses = [client.request("GET", "/graphs")[0] for _ in range(4)]
            assert statuses[:2] == [200, 200]
            assert 429 in statuses[2:]
            assert int(client.last_headers.get("retry-after", "1")) >= 1
            # Probes stay exempt even with the bucket drained.
            assert client.request("GET", "/healthz")[0] == 200
        finally:
            client.close()
            server.stop()


class TestDrainShutdown:
    def test_drain_rejects_new_work_then_stops(self):
        svc = ClusterService(datasets=(), job_workers=1, shutdown_grace_s=30.0)
        svc.graphs.register_graph("toy", _toy_graph(), source="test")
        gate = threading.Event()
        original = svc._run_job

        def gated(job):
            gate.wait(TIMEOUT)
            return original(job)

        set_job_runner(svc, gated)
        server = BackgroundServer(svc).start()
        client = Client(server.port)
        try:
            _, submitted = client.request(
                "POST", "/jobs", {"graph": "toy", "algorithm": "gmm", "k": 2}
            )
            status, payload = client.request("POST", "/shutdown", {"grace_s": 30.0})
            assert status == 202
            assert payload["status"] == "draining"
            assert payload["active_jobs"] >= 1

            # Mid-drain: work-creating requests answer 503 + Retry-After.
            status, payload = client.request(
                "POST", "/jobs",
                {"graph": "toy", "algorithm": "gmm", "k": 2, "seed": 9},
            )
            assert status == 503
            assert payload["error"]["code"] == "draining"
            assert client.last_headers["retry-after"]

            # Reads, cancels, and repeat shutdowns stay available.
            assert client.request("GET", f"/jobs/{submitted['job']}")[0] == 200
            status, health = client.request("GET", "/healthz")
            assert status == 200 and health["status"] == "draining"
            assert client.request("POST", "/shutdown")[0] == 202

            gate.set()
            assert client.wait_job(submitted["job"])["status"] == "done"
            deadline = time.monotonic() + TIMEOUT
            while time.monotonic() < deadline and not svc.shutdown_event.is_set():
                time.sleep(0.02)
            assert svc.shutdown_event.is_set()
        finally:
            gate.set()
            client.close()
            server.stop()

    def test_grace_expiry_cancels_leftovers(self):
        svc = ClusterService(datasets=(), job_workers=1)
        svc.graphs.register_graph("toy", _toy_graph(), source="test")
        gate = threading.Event()
        original = svc._run_job

        def gated(job):
            gate.wait(TIMEOUT)
            if job.cancel_event.is_set():
                raise JobCancelledError("cancelled at shutdown")
            return original(job)

        set_job_runner(svc, gated)
        server = BackgroundServer(svc).start()
        client = Client(server.port)
        try:
            client.request("POST", "/jobs", {"graph": "toy", "algorithm": "gmm", "k": 2})
            status, _ = client.request("POST", "/shutdown", {"grace_s": 0.05})
            assert status == 202
            deadline = time.monotonic() + TIMEOUT
            while time.monotonic() < deadline and not svc.shutdown_event.is_set():
                time.sleep(0.02)
            assert svc.shutdown_event.is_set()  # grace expired, not drained
        finally:
            gate.set()
            client.close()
            server.stop()

    def test_shutdown_rejects_bad_grace(self, client):
        status, payload = client.request("POST", "/shutdown", {"grace_s": "soon"})
        assert status == 400
        status, payload = client.request("POST", "/shutdown", {"grace_s": -1})
        assert status == 400


class TestProgressCallback:
    """The library-level progress hook behind the SSE progress events."""

    def test_mcp_progress_one_record_per_guess(self):
        seen = []
        result = mcp_clustering(
            _toy_graph(), 2, seed=0,
            sample_schedule=PracticalSchedule(max_samples=300),
            progress=seen.append,
        )
        assert len(seen) == result.n_guesses
        for record in seen:
            assert {"q", "samples", "covered", "covers_all"} <= set(record)
        assert seen[-1]["samples"] == result.samples_used

    def test_acp_progress_records(self):
        from repro.core.acp import acp_clustering

        seen = []
        acp_clustering(
            _toy_graph(), 2, seed=0,
            sample_schedule=PracticalSchedule(max_samples=300),
            progress=seen.append,
        )
        assert seen
        for record in seen:
            assert {"q", "samples", "covered"} <= set(record)


class TestFullDiskStore:
    def test_thread_mode_job_on_failing_store_ends_done(self, tmp_path, monkeypatch):
        """A store append failing with ENOSPC costs the cache, not the job."""
        import errno
        import os

        from repro.sampling.store import WorldStore

        def full_disk(self, digest, start, packed_cols, labels):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(WorldStore, "append", full_disk)
        svc = ClusterService(
            datasets=(), job_workers=1, world_cache=tmp_path / "worlds", cache_bytes=64 << 20,
        )
        svc.graphs.register_graph("toy", _toy_graph(), source="test")
        params = {"graph": "toy", "algorithm": "mcp", "k": 2, "samples": 300, "seed": 0}
        with BackgroundServer(svc) as server:
            client = Client(server.port)
            try:
                result = client.run_job(params)  # asserts the job ended "done"
                assert result["worlds_sampled"] > 0
                library = mcp_clustering(
                    _toy_graph(), 2, seed=0,
                    sample_schedule=PracticalSchedule(max_samples=300),
                )
                assert result["assignment"] == [int(x) for x in library.clustering.assignment]
            finally:
                client.close()


class TestProcessWorkers:
    """The tentpole end to end: spawned worker processes over one store."""

    PARAMS = {"graph": "toy", "algorithm": "mcp", "k": 2, "samples": 300, "seed": 0}

    def test_warm_repeat_across_process_workers_bit_identical(self, tmp_path):
        svc = ClusterService(
            datasets=(), worker_processes=2,
            world_cache=tmp_path / "worlds", cache_bytes=64 << 20,
        )
        svc.graphs.register_graph("toy", _toy_graph(), source="test")
        with BackgroundServer(svc) as server:
            client = Client(server.port)
            try:
                cold = client.run_job(self.PARAMS)
                assert cold["worlds_sampled"] > 0

                warm = client.run_job(self.PARAMS)
                assert warm["warm"] is True
                assert warm["worlds_sampled"] == 0
                assert warm["assignment"] == cold["assignment"]
                assert warm["centers"] == cold["centers"]

                library = mcp_clustering(
                    _toy_graph(), 2, seed=0,
                    sample_schedule=PracticalSchedule(max_samples=300),
                )
                assert warm["assignment"] == [int(x) for x in library.clustering.assignment]
                assert warm["q_final"] == library.q_final

                # Affinity ledger pin: both jobs ran on the same worker,
                # so the warm hit came from that worker's own cache.
                _, cold_events = _read_sse(server.port, cold["job"])
                _, warm_events = _read_sse(server.port, warm["job"])
                workers_used = {
                    next(e["data"]["worker"] for e in events if e["event"] == "queued")
                    for events in (cold_events, warm_events)
                }
                assert len(workers_used) == 1
                # SSE works identically in process mode.
                kinds = [e["event"] for e in warm_events]
                assert kinds[0] == "queued" and kinds[-1] == "done"
                assert "running" in kinds and "progress" in kinds
            finally:
                client.close()

    def test_cancel_queued_and_running_jobs_in_process_mode(self, tmp_path):
        svc = ClusterService(
            datasets=(), worker_processes=1, world_cache=tmp_path / "worlds",
        )
        svc.graphs.register_graph("toy", _toy_graph(), source="test")
        with BackgroundServer(svc) as server:
            client = Client(server.port)
            try:
                # k=1 forces the threshold search deep, so the job grinds
                # through many guesses — plenty of cancel_check windows.
                _, heavy = client.request(
                    "POST", "/jobs",
                    {"graph": "toy", "algorithm": "mcp", "k": 1,
                     "samples": 1_000_000, "seed": 71},
                )
                _, probe = client.request(
                    "POST", "/jobs",
                    {"graph": "toy", "algorithm": "gmm", "k": 2, "seed": 72},
                )
                assert client.request("DELETE", f"/jobs/{probe['job']}")[0] == 202
                assert client.request("DELETE", f"/jobs/{heavy['job']}")[0] == 202
                assert client.wait_job(probe["job"])["status"] == "cancelled"
                assert client.wait_job(heavy["job"])["status"] == "cancelled"
                status, payload = client.request("GET", f"/jobs/{heavy['job']}/result")
                assert status == 409
            finally:
                client.close()

    def test_process_queue_rejects_bad_config(self):
        from repro.service.workers import ProcessJobQueue

        with pytest.raises(ValueError):
            ProcessJobQueue(workers=0)


class TestTelemetryEndpoints:
    """``GET /v1/metrics``, cache agreement, and per-job phase timings."""

    TIMINGS_KEYS = {
        "total_ms", "sample_ms", "label_ms", "store_read_ms", "store_write_ms",
        "distance_ms", "cluster_ms", "worlds_sampled", "worlds_reused",
    }

    def test_metrics_endpoint_serves_prometheus_text(self, client):
        from repro.telemetry import parse_prometheus_text

        client.run_job(
            {"graph": "toy", "algorithm": "mcp", "k": 2, "samples": 300, "seed": 5}
        )
        status, text = client.request_text("GET", "/metrics")
        assert status == 200
        assert client.last_headers["content-type"] == (
            "text/plain; version=0.0.4; charset=utf-8"
        )
        series = parse_prometheus_text(text)
        # One series per subsystem proves the whole stack is wired.
        assert series['repro_jobs_submitted_total{algorithm="mcp"}'] >= 1
        assert series['repro_jobs_completed_total{algorithm="mcp",status="done"}'] >= 1
        assert any(key.startswith("repro_http_requests_total{") for key in series)
        assert series["repro_sampler_worlds_total"] > 0
        assert series["repro_store_worlds_appended_total"] > 0
        assert series["repro_cache_leases_total"] >= 1
        assert "repro_admission_tracked_clients" in series
        assert series['repro_job_seconds_bucket{algorithm="mcp",le="+Inf"}'] >= 1

    def test_cache_endpoint_and_metrics_share_one_snapshot(self, client):
        """Satellite fix: ``/v1/cache`` and ``repro_cache_*`` cannot drift."""
        from repro.telemetry import parse_prometheus_text

        status, _ = client.request(
            "GET", "/graphs/toy/estimate?u=0&v=1&samples=100&seed=1"
        )
        assert status == 200
        status, stats = client.request("GET", "/cache")
        assert status == 200
        _, text = client.request_text("GET", "/metrics")
        series = parse_prometheus_text(text)
        for key in ("leases", "warm_leases", "evictions", "worlds_cached",
                    "worlds_sampled", "pools_derived", "worlds_derived"):
            assert series[f"repro_cache_{key}_total"] == stats[key], key
        assert series["repro_cache_pools"] == stats["pools"]
        assert series["repro_cache_bytes"] == stats["bytes"]
        assert series["repro_cache_max_bytes"] == stats["max_bytes"]

    def test_job_status_and_sse_carry_timings(self, client, server):
        params = {"graph": "toy", "algorithm": "mcp", "k": 2,
                  "samples": 300, "seed": 6}
        status, payload = client.request("POST", "/jobs", params)
        assert status == 202
        described = client.wait_job(payload["job"])
        timings = described["timings"]
        assert set(timings) == self.TIMINGS_KEYS
        assert timings["total_ms"] > 0
        # The progressive schedule samples what the threshold search
        # needed, bounded by the budget; a cold job samples something.
        assert 0 < timings["worlds_sampled"] <= 300
        assert timings["worlds_reused"] == 0
        assert timings["total_ms"] >= timings["sample_ms"]
        _, events = _read_sse(server.port, payload["job"])
        terminal = events[-1]
        assert terminal["event"] == "done"
        assert terminal["data"]["timings"] == timings

    @pytest.mark.parametrize("job", [
        {"algorithm": "kmedian", "k": 2},
        {"algorithm": "centrality", "measure": "harmonic"},
        {"algorithm": "centrality", "measure": "degree"},
    ], ids=["kmedian", "harmonic", "degree"])
    def test_distance_jobs_attribute_the_packed_bfs(self, client, job):
        params = {"graph": "toy", "samples": 128, "seed": 6, **job}
        status, payload = client.request("POST", "/jobs", params)
        assert status == 202
        timings = client.wait_job(payload["job"])["timings"]
        assert set(timings) == self.TIMINGS_KEYS
        if job.get("measure") == "degree":
            assert timings["distance_ms"] == 0
        else:
            assert timings["distance_ms"] > 0
        phases = sum(timings[key] for key in (
            "sample_ms", "label_ms", "store_read_ms", "store_write_ms", "distance_ms",
            "cluster_ms"))
        assert phases == pytest.approx(timings["total_ms"], abs=0.01)

    def test_fleet_metrics_aggregate_across_two_process_workers(self, tmp_path):
        """Acceptance pin: ``--workers 2`` metrics reflect the whole fleet.

        Two distinct jobs overlap in flight, so least-loaded dispatch
        lands them on different worker processes; each worker ships its
        counter deltas inside the job's terminal event, merged before
        the job turns terminal, so by the time both jobs read as done
        the parent's scrape must
        account for every world either worker sampled.
        """
        from repro.telemetry import parse_prometheus_text

        svc = ClusterService(
            datasets=(), worker_processes=2,
            world_cache=tmp_path / "worlds", cache_bytes=64 << 20,
        )
        svc.graphs.register_graph("toy", _toy_graph(), source="test")
        with BackgroundServer(svc) as server:
            client = Client(server.port)
            try:
                _, before_text = client.request_text("GET", "/metrics")
                before = parse_prometheus_text(before_text)

                def series(table, key):
                    return table.get(key, 0.0)

                params_a = {"graph": "toy", "algorithm": "mcp", "k": 2,
                            "samples": 2000, "seed": 21}
                params_b = {"graph": "toy", "algorithm": "mcp", "k": 3,
                            "samples": 2000, "seed": 22}
                _, a = client.request("POST", "/jobs", params_a)
                _, b = client.request("POST", "/jobs", params_b)
                done_a = client.wait_job(a["job"])
                done_b = client.wait_job(b["job"])
                assert done_a["status"] == "done" and done_b["status"] == "done"

                _, workers_a = _read_sse(server.port, a["job"])
                _, workers_b = _read_sse(server.port, b["job"])
                used = {
                    next(e["data"]["worker"] for e in events if e["event"] == "queued")
                    for events in (workers_a, workers_b)
                }
                assert used == {0, 1}, f"jobs did not spread: {used}"

                _, after_text = client.request_text("GET", "/metrics")
                after = parse_prometheus_text(after_text)

                done_key = 'repro_jobs_completed_total{algorithm="mcp",status="done"}'
                assert series(after, done_key) - series(before, done_key) == 2

                sampled = sum(
                    r["timings"]["worlds_sampled"]
                    for r in (done_a, done_b)
                )
                assert sampled > 0  # both cold jobs sampled in the workers
                worlds_key = "repro_sampler_worlds_total"
                fleet_worlds = series(after, worlds_key) - series(before, worlds_key)
                assert fleet_worlds == sampled

                appended_key = "repro_store_worlds_appended_total"
                assert (series(after, appended_key)
                        - series(before, appended_key)) == sampled
            finally:
                client.close()
