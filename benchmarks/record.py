"""Durable benchmark artifacts: the ``BENCH_*.json`` files.

The pytest-benchmark console tables are ephemeral; this helper gives
every bench suite a machine-readable artifact so the performance
trajectory is comparable across PRs.  Artifacts are written to
``benchmarks/out/`` (override with ``REPRO_BENCH_DIR``), uploaded by
the CI ``bench`` job, and diffed against the committed baselines in
``benchmarks/baselines/`` by ``benchmarks/compare.py`` — a >2x
slowdown on any benchmark fails CI.

Schema (version 1)::

    {
      "schema": 1,
      "suite": "sampling",
      "host": {"python": "3.11.7", "numpy": "2.4.6",
               "platform": "Linux-...", "cpu_count": 4},
      "benchmarks": {
        "ensure_samples/dblp1200/unionfind/workers=1": {
          "seconds": 0.113,          # best observed round
          "items": 512,              # work units per round (worlds here)
          "throughput": 4530.9,      # items / seconds, null if items is
          "meta": {"workers": 1, "substrate": "dblp1200", ...}
        },
        ...
      }
    }

``record_benchmark`` merges one entry into the suite file per call
(read-modify-write), so interleaved pytest processes lose at worst a
single entry rather than corrupting the file: writes are atomic via
``os.replace``.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy

SCHEMA_VERSION = 1

_BENCHMARKS_DIR = Path(__file__).resolve().parent

#: Committed reference artifacts the CI perf gate compares against.
BASELINE_DIR = _BENCHMARKS_DIR / "baselines"


def bench_output_dir() -> Path:
    """Directory the ``BENCH_*.json`` artifacts are written to."""
    return Path(os.environ.get("REPRO_BENCH_DIR", _BENCHMARKS_DIR / "out"))


def bench_path(suite: str) -> Path:
    """Artifact path for ``suite`` (e.g. ``sampling`` -> BENCH_sampling.json)."""
    return bench_output_dir() / f"BENCH_{suite}.json"


def _host_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def load_artifact(path) -> dict:
    """Read a ``BENCH_*.json`` file, validating the schema version."""
    with open(path, encoding="utf-8") as handle:
        artifact = json.load(handle)
    if artifact.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported BENCH schema {artifact.get('schema')!r}; "
            f"this tool understands version {SCHEMA_VERSION}"
        )
    return artifact


def record_benchmark(
    suite: str,
    name: str,
    *,
    seconds: float,
    items: int | None = None,
    meta: dict | None = None,
) -> Path:
    """Merge one measurement into the suite's ``BENCH_<suite>.json``.

    Parameters
    ----------
    suite:
        Artifact family, e.g. ``"sampling"``.
    name:
        Benchmark key, unique within the suite; conventionally
        ``<operation>/<substrate>/<variant>`` so ``compare.py`` lines
        up the same work across runs.
    seconds:
        Best observed wall time of one round.
    items:
        Work units per round (worlds, edges, ...); enables the derived
        ``throughput`` field.
    meta:
        Free-form labels (workers, substrate, r, ...).

    Returns the path written.
    """
    if seconds <= 0:
        raise ValueError(f"seconds must be positive, got {seconds}")
    path = bench_path(suite)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        artifact = load_artifact(path)
    else:
        artifact = {"schema": SCHEMA_VERSION, "suite": suite, "benchmarks": {}}
    artifact["host"] = _host_info()
    entry = {
        "seconds": seconds,
        "items": items,
        "throughput": (items / seconds) if items else None,
    }
    if meta:
        entry["meta"] = meta
    artifact["benchmarks"][name] = entry
    tmp_path = path.with_suffix(".json.tmp")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)
    return path


def record_extra(suite: str, key: str, value) -> Path:
    """Merge one top-level extra key into the suite's artifact.

    ``compare.py`` diffs only ``artifact["benchmarks"]``, so extras are
    schema-compatible informational payload — e.g. the ``/v1/metrics``
    snapshot the service suite embeds so a benchmark run records what
    the service actually did, not just how fast.
    """
    path = bench_path(suite)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        artifact = load_artifact(path)
    else:
        artifact = {"schema": SCHEMA_VERSION, "suite": suite, "benchmarks": {}}
    artifact[key] = value
    tmp_path = path.with_suffix(".json.tmp")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)
    return path


def record_pytest_benchmark(
    suite: str, name: str, benchmark, *, items: int | None = None, meta: dict | None = None
) -> Path:
    """Record a finished pytest-benchmark fixture's best round."""
    return record_benchmark(
        suite, name, seconds=float(benchmark.stats.stats.min), items=items, meta=meta
    )


if __name__ == "__main__":
    print(json.dumps(_host_info(), indent=2))
    print(f"artifacts: {bench_output_dir()}")
    print(f"baselines: {BASELINE_DIR}")
