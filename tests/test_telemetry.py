"""Tests of the dependency-free telemetry stack.

The load-bearing pins:

* counter increments from many threads sum **exactly** (no lost
  updates under the registry lock);
* a parent registry fed ``take_delta()`` payloads from two worker
  registries reports exactly the summed totals — the mechanism behind
  fleet-wide ``GET /v1/metrics`` in ``--workers N`` process mode,
  which is also exercised end to end over real worker processes;
* the label-cardinality cap folds overflow deterministically into the
  all-``"other"`` series, first-come label sets win;
* histogram bucket edges are pinned (dashboards depend on them);
* tracing never changes sampled worlds or labels — clustering output
  is bit-identical with the trace log on and off at the same seed.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import telemetry
from repro.core.mcp import mcp_clustering
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.sizes import PracticalSchedule
from repro.telemetry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    OVERFLOW_LABEL,
    Tracer,
    parse_prometheus_text,
)

TIMEOUT = 30.0


def _toy_graph() -> UncertainGraph:
    return UncertainGraph.from_edges(
        [
            (0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.8),
            (3, 4, 0.85), (4, 5, 0.85), (3, 5, 0.75),
            (2, 3, 0.05),
        ]
    )


class TestRegistryConcurrency:
    def test_threaded_counter_increments_sum_exactly(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_test_total", "Test.", ("worker",))
        threads, per_thread = 8, 500
        barrier = threading.Barrier(threads)

        def work(i: int) -> None:
            child = counter.labels(worker=str(i % 2))
            barrier.wait(TIMEOUT)
            for _ in range(per_thread):
                child.inc()

        pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(TIMEOUT)
        total = sum(reg.value("repro_test_total", {"worker": w}) for w in ("0", "1"))
        assert total == threads * per_thread

    def test_threaded_histogram_observations_sum_exactly(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_test_seconds", "Test.", buckets=(0.5,))
        threads, per_thread = 8, 300
        barrier = threading.Barrier(threads)

        def work() -> None:
            barrier.wait(TIMEOUT)
            for _ in range(per_thread):
                hist.observe(0.25)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(TIMEOUT)
        cell = reg.histogram_value("repro_test_seconds")
        assert cell["count"] == threads * per_thread
        assert cell["sum"] == pytest.approx(0.25 * threads * per_thread)


class TestDeltaShipping:
    """take_delta / merge_delta — the process-mode aggregation protocol."""

    def test_two_worker_deltas_merge_to_exact_sums(self):
        parent = MetricsRegistry()
        workers = [MetricsRegistry(), MetricsRegistry()]
        for i, worker in enumerate(workers):
            c = worker.counter("repro_jobs_done_total", "Jobs.", ("algo",))
            c.labels(algo="mcp").inc(3 + i)          # 3 and 4
            h = worker.histogram("repro_job_s", "Job.", buckets=(1.0, 5.0))
            h.observe(0.5)
            h.observe(2.0 + i * 10)                   # 2.0 and 12.0
            parent.merge_delta(worker.take_delta())

        assert parent.value("repro_jobs_done_total", {"algo": "mcp"}) == 7
        cell = parent.histogram_value("repro_job_s")
        assert cell["count"] == 4
        assert cell["sum"] == pytest.approx(0.5 + 2.0 + 0.5 + 12.0)
        # Bucket counts survived the merge: two <=1.0, one <=5.0, one +Inf.
        snap = parent.snapshot()["histograms"]["repro_job_s"][()]
        assert snap["buckets"] == [2, 1, 1]

    def test_take_delta_ships_only_movement(self):
        worker = MetricsRegistry()
        c = worker.counter("repro_x_total", "X.")
        c.inc(5)
        first = worker.take_delta()
        assert first["counters"]["repro_x_total"]["series"][()] == 5
        assert worker.take_delta()["counters"] == {}  # nothing moved
        c.inc(2)
        second = worker.take_delta()
        assert second["counters"]["repro_x_total"]["series"][()] == 2

    def test_local_only_families_never_ship(self):
        """Collector-mirrored series (repro_cache_*) stay per-process:
        summing them across workers would break the pinned equality
        between ``GET /v1/cache`` and ``GET /v1/metrics``."""
        worker = MetricsRegistry()
        worker.counter("repro_mirrored_total", "M.", local_only=True).inc(9)
        worker.counter("repro_shipped_total", "S.").inc(2)
        delta = worker.take_delta()
        assert "repro_mirrored_total" not in delta["counters"]
        assert delta["counters"]["repro_shipped_total"]["series"][()] == 2

    def test_take_delta_runs_no_collector_render_does(self):
        """Collectors fill local-only and gauge series, which no delta
        ships; a worker's per-job delta must not pay for them."""
        worker = MetricsRegistry()
        calls = []
        worker.register_collector(lambda: calls.append(None))
        worker.counter("repro_shipped_total", "S.").inc()
        assert worker.take_delta()["counters"]["repro_shipped_total"]["series"][()] == 1
        assert calls == []
        worker.render()
        assert len(calls) == 1

    def test_merge_registers_unknown_families(self):
        """The parent need not have imported the defining module."""
        worker = MetricsRegistry()
        worker.counter("repro_novel_total", "Novel.", ("kind",)).labels(
            kind="a").inc()
        parent = MetricsRegistry()
        parent.merge_delta(worker.take_delta())
        assert parent.value("repro_novel_total", {"kind": "a"}) == 1
        assert 'repro_novel_total{kind="a"} 1' in parent.render()


class TestLabelCardinalityCap:
    def test_overflow_folds_into_other_deterministically(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_capped_total", "Capped.", ("who",),
                              max_label_sets=3)
        for who in ("a", "b", "c", "d", "e", "d"):
            counter.labels(who=who).inc()
        # First three label sets win; d and e fold into "other".
        assert reg.value("repro_capped_total", {"who": "a"}) == 1
        assert reg.value("repro_capped_total", {"who": "c"}) == 1
        assert reg.value("repro_capped_total", {"who": OVERFLOW_LABEL}) == 3
        rendered = reg.render()
        assert 'repro_capped_total{who="d"}' not in rendered
        assert f'repro_capped_total{{who="{OVERFLOW_LABEL}"}} 3' in rendered

    def test_existing_series_keep_working_past_the_cap(self):
        reg = MetricsRegistry()
        counter = reg.counter("repro_capped_total", "Capped.", ("who",),
                              max_label_sets=2)
        early = counter.labels(who="a")
        counter.labels(who="b").inc()
        counter.labels(who="z").inc()  # overflow
        early.inc(4)
        assert reg.value("repro_capped_total", {"who": "a"}) == 4


class TestHistogramBuckets:
    def test_default_bucket_edges_pinned(self):
        assert DEFAULT_BUCKETS == (
            0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
            0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
        )

    def test_edge_observation_lands_in_its_le_bucket(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_h", "H.", buckets=(0.1, 1.0))
        hist.observe(0.1)    # exactly on an edge: le="0.1" is inclusive
        hist.observe(0.5)
        hist.observe(100.0)  # beyond the last edge: +Inf only
        rendered = reg.render()
        assert 'repro_h_bucket{le="0.1"} 1' in rendered
        assert 'repro_h_bucket{le="1"} 2' in rendered
        assert 'repro_h_bucket{le="+Inf"} 3' in rendered
        assert "repro_h_count 3" in rendered

    def test_unsorted_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("repro_bad", "Bad.", buckets=(1.0, 0.5))


class TestRendering:
    def test_render_is_valid_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total", "A.", ("k",)).labels(k="x").inc(2)
        reg.gauge("repro_b", "B.").set(1.5)
        text = reg.render()
        assert "# HELP repro_a_total A.\n# TYPE repro_a_total counter" in text
        assert "# TYPE repro_b gauge" in text
        assert text.endswith("\n")
        parsed = parse_prometheus_text(text)
        assert parsed['repro_a_total{k="x"}'] == 2.0
        assert parsed["repro_b"] == 1.5

    def test_registration_is_idempotent_but_shape_checked(self):
        reg = MetricsRegistry()
        first = reg.counter("repro_a_total", "A.", ("k",))
        assert reg.counter("repro_a_total", "A.", ("k",)) is first
        with pytest.raises(ValueError):
            reg.counter("repro_a_total", "A.", ("other",))
        with pytest.raises(ValueError):
            reg.gauge("repro_a_total", "A.", ("k",))


class TestTracingBitIdentity:
    """The pinned invariant: telemetry never changes worlds or labels."""

    def _run(self) -> list[int]:
        result = mcp_clustering(
            _toy_graph(), 2, seed=0,
            sample_schedule=PracticalSchedule(max_samples=300),
        )
        return [int(x) for x in result.clustering.assignment]

    def test_labels_bit_identical_with_tracing_on(self, tmp_path):
        tracer = telemetry.get_tracer()
        assert not tracer.enabled
        baseline = self._run()
        log_path = tmp_path / "trace.jsonl"
        tracer.configure(log_path)
        try:
            traced = self._run()
        finally:
            tracer.configure(None)
        assert traced == baseline
        lines = log_path.read_text().splitlines()
        assert lines, "tracing enabled but no spans were written"
        for line in lines:
            record = json.loads(line)
            assert set(record) == {
                "trace_id", "span_id", "parent_id", "name", "ts",
                "dur_ms", "attrs",
            }
        assert any(json.loads(line)["name"] == "mcp.guess" for line in lines)

    def test_spans_nest_and_share_one_trace(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        with tracer.trace("req-42"):
            with tracer.span("outer"):
                with tracer.span("inner") as inner:
                    inner.set("k", 1)
        tracer.close()
        records = [json.loads(line)
                   for line in (tmp_path / "t.jsonl").read_text().splitlines()]
        # Spans flush on exit, so inner precedes outer.
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert {r["trace_id"] for r in records} == {"req-42"}
        assert by_name["inner"]["attrs"] == {"k": 1}

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer()
        with tracer.span("anything") as span:
            span.set("ignored", True)
        assert not tracer.enabled
