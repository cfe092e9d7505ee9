"""Tests for the durable benchmark artifacts and the perf-gate diff.

``benchmarks/record.py`` and ``benchmarks/compare.py`` are the plumbing
the CI perf gate stands on, so they get tier-1 coverage: schema
round-trip, merge semantics, and the gate's pass/fail arithmetic.
"""

import json

import pytest

from benchmarks.compare import compare_artifacts, main as compare_main, render_table
from benchmarks.record import (
    SCHEMA_VERSION,
    bench_path,
    load_artifact,
    record_benchmark,
)


@pytest.fixture(autouse=True)
def bench_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    return tmp_path


def test_record_creates_schema_v1_artifact(bench_dir):
    path = record_benchmark(
        "sampling", "op/sub/x", seconds=0.5, items=100, meta={"workers": 2}
    )
    assert path == bench_path("sampling") == bench_dir / "BENCH_sampling.json"
    artifact = load_artifact(path)
    assert artifact["schema"] == SCHEMA_VERSION
    assert artifact["suite"] == "sampling"
    entry = artifact["benchmarks"]["op/sub/x"]
    assert entry["seconds"] == 0.5
    assert entry["throughput"] == pytest.approx(200.0)
    assert entry["meta"] == {"workers": 2}
    assert artifact["host"]["cpu_count"] >= 1


def test_record_merges_and_overwrites(bench_dir):
    record_benchmark("sampling", "a", seconds=1.0)
    record_benchmark("sampling", "b", seconds=2.0, items=10)
    record_benchmark("sampling", "a", seconds=0.25)
    artifact = load_artifact(bench_path("sampling"))
    assert set(artifact["benchmarks"]) == {"a", "b"}
    assert artifact["benchmarks"]["a"]["seconds"] == 0.25
    assert artifact["benchmarks"]["a"]["throughput"] is None


def test_record_rejects_nonpositive_seconds():
    with pytest.raises(ValueError, match="seconds"):
        record_benchmark("sampling", "a", seconds=0.0)


def test_load_rejects_unknown_schema(bench_dir):
    bad = bench_dir / "BENCH_bad.json"
    bad.write_text(json.dumps({"schema": 99, "benchmarks": {}}))
    with pytest.raises(ValueError, match="schema"):
        load_artifact(bad)


def _artifact(entries):
    return {
        "schema": SCHEMA_VERSION,
        "suite": "sampling",
        "benchmarks": {name: {"seconds": seconds} for name, seconds in entries.items()},
    }


def test_compare_rows_sorted_worst_first():
    rows = compare_artifacts(
        _artifact({"fast": 1.0, "slow": 1.0, "new": 1.0}),
        _artifact({"fast": 0.5, "slow": 4.0, "old": 1.0}),
    )
    comparable = [row["name"] for row in rows if row["speedup"] is not None]
    assert comparable == ["slow", "fast"]  # 0.25x before 2.0x
    table = render_table(rows)
    assert "0.25x" in table and "2.00x" in table
    assert {row["name"] for row in rows if row["speedup"] is None} == {"new", "old"}


def test_gate_passes_and_fails_on_threshold(bench_dir, capsys):
    baseline = bench_dir / "baseline.json"
    current = bench_dir / "current.json"
    baseline.write_text(json.dumps(_artifact({"x": 1.0, "y": 1.0})))

    current.write_text(json.dumps(_artifact({"x": 1.9, "y": 0.5})))
    assert compare_main([str(baseline), str(current), "--fail-over", "2.0"]) == 0
    assert "perf gate ok" in capsys.readouterr().out

    current.write_text(json.dumps(_artifact({"x": 2.1, "y": 0.5})))
    assert compare_main([str(baseline), str(current), "--fail-over", "2.0"]) == 1
    out = capsys.readouterr().out
    assert "PERF GATE FAILED" in out and "x:" in out


def test_stale_baselines_are_reported_not_gated(bench_dir, capsys):
    baseline = bench_dir / "baseline.json"
    current = bench_dir / "current.json"
    baseline.write_text(json.dumps(_artifact({"stale": 3.0, "edge": 2.0, "kept": 1.0})))
    current.write_text(json.dumps(_artifact({"stale": 1.0, "edge": 1.0, "kept": 1.0})))
    assert compare_main([str(baseline), str(current), "--fail-over", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "stale baseline" in out and "  stale: 3.00x" in out
    assert "  edge:" not in out and "  kept:" not in out

    current.write_text(json.dumps(_artifact({"stale": 1.0, "edge": 1.0, "kept": 1.0})))
    baseline.write_text(json.dumps(_artifact({"stale": 1.5, "edge": 2.0, "kept": 1.0})))
    assert compare_main([str(baseline), str(current)]) == 0
    assert "stale baseline" not in capsys.readouterr().out


def test_gate_ignores_unmatched_benchmarks(bench_dir, capsys):
    baseline = bench_dir / "baseline.json"
    current = bench_dir / "current.json"
    baseline.write_text(json.dumps(_artifact({"retired": 1.0, "kept": 1.0})))
    current.write_text(json.dumps(_artifact({"kept": 1.0, "fresh": 9.0})))
    assert compare_main([str(baseline), str(current), "--fail-over", "2.0"]) == 0
    assert "not comparable" in capsys.readouterr().out


def test_missing_file_is_a_clean_error(bench_dir, capsys):
    assert compare_main([str(bench_dir / "no.json"), str(bench_dir / "pe.json")]) == 2
    assert "error" in capsys.readouterr().err
