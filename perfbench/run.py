"""The repository benchmark: one command, three workloads, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-cluster --seed 1 --seconds 30 --trace 0

Workloads: ``cold-cluster`` and ``warm-distance`` drive the public
library API (:mod:`library`); ``service-mix`` drives ``repro serve`` over
its ``/v1`` HTTP API (:mod:`service_mix`).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` measures the same
workload untraced for half the time, then runs a fixed set of traced
ops and reports the per-layer metrics.  Op times are host-scaled by a
reference kernel timed while the program is idle (:mod:`hostspeed`).
Metric names and units are read from ``BENCHMARK.json``.  The last
line of standard output is the JSON result; the exit code is 0 only
when it was printed.

The package is used straight from ``src/`` (no build step).  Every file
the run writes lives under ``.perfbench-tmp/`` in the checkout and is
removed at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed
import spans
from library import WORKLOADS as LIBRARY

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    _SPEC = json.load(_handle)
END_TO_END = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}
WORKLOADS = tuple(workload["name"] for workload in _SPEC["workloads"])

#: Set-up repetitions per untraced library run; ``setup_s`` is their median.
LIBRARY_SETUPS = 5
#: Traced library ops (whole round-robin rounds, always the same op indices).
TRACE_OPS = 24


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def latency_metrics(latencies, ok: int, attempted: int, busy_s: float) -> dict:
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    return {
        "ops_per_s": ok / busy_s,
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
        "ok_ratio": ok / attempted,
    }


# ----------------------------------------------------------------------
# Library workloads
# ----------------------------------------------------------------------

def _run_op(workload, index, clock, recorder=None):
    state = workload.prepare(index)
    try:
        started = time.perf_counter()
        try:
            if recorder is None:
                ok, detail = workload.run(index, state)
            else:
                with recorder.op_span(index):
                    ok, detail = workload.run(index, state, recorder)
        except Exception as error:  # noqa: BLE001 - a failing op is counted, not fatal
            ok, detail = False, {"error": f"{type(error).__name__}: {error}"}
        wall = time.perf_counter() - started
    finally:
        workload.cleanup(state)
    return {"index": index, "ok": bool(ok), "wall": wall, "latency": clock.scaled(wall),
            **detail}


def _setup_probe(workload: str, seed: int, scratch: str) -> float:
    """Wall seconds of one fresh process that imports, generates and warms."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0", "--scratch", scratch],
        check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


def run_library(args, scratch: str) -> dict:
    setups = []
    if not args.trace:
        startup = hostspeed.Clock("startup")
        setups = [startup.scaled(_setup_probe(args.workload, args.seed, scratch))
                  for _ in range(LIBRARY_SETUPS)]
    workload = LIBRARY[args.workload](args.seed, scratch)
    workload.setup()
    clock = hostspeed.Clock(workload.reference)

    records = []
    stop_at = time.perf_counter() + (args.seconds / 2 if args.trace else args.seconds)
    while time.perf_counter() < stop_at:
        records.append(_run_op(workload, len(records), clock))

    # Determinism: the first round of ops, run again, must repeat bit for bit
    # (traced, in a --trace 1 run: tracing must not change results either).
    recorder = None
    rerun_count = len(workload.op_kinds)
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder)
        rerun_count = TRACE_OPS
    reruns = [_run_op(workload, index, clock, recorder) for index in range(rerun_count)]
    for again in reruns:
        if again["index"] < len(records) and records[again["index"]].get("digest") != again.get(
                "digest"):
            records[again["index"]]["ok"] = False
            again["ok"] = False
    if args.workload == "warm-distance" and not workload.drawn_nothing():
        for record in records + reruns:
            record["ok"] = False

    latencies = [r["latency"] for r in records]
    ok = sum(r["ok"] for r in records)
    out = {"records": records, "reruns": reruns,
           "attempted": len(records), "failed": len(records) - ok}
    metrics = latency_metrics(latencies, ok, len(records), sum(latencies))
    if args.trace:
        per_op = spans.layer_totals(recorder.spans)
        out["per_op"] = per_op
        # The service layers are bypassed by library calls: they do no work here.
        layers = {name: statistics.median(totals.get(name, 0) for totals in per_op.values())
                  if not name.startswith("service.") else 0 for name in PER_LAYER}
        traced_busy = sum(r["latency"] for r in reruns)
        layers["trace.overhead_ratio"] = (len(reruns) / traced_busy) / metrics["ops_per_s"]
        out["attempted"] += len(reruns)
        out["failed"] += sum(not r["ok"] for r in reruns)
        out["metrics"] = layers
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = peak_rss_mb()
        out["metrics"] = metrics
    return out


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------

def run_service(args, scratch: str) -> dict:
    import service_mix  # imports the repro package from src/

    result = asyncio.run(service_mix.run(ROOT, scratch, args.seed, args.seconds, bool(args.trace)))
    records = [r for per_client in result["records"] for r in per_client]
    traced = [r for per_client in result.get("traced", []) for r in per_client]
    everything = records + traced
    # A refused request (any non-2xx, 429 included) fails its session.
    failed = sum(bool(r["problems"]) for r in everything)
    ok_records = [r for r in records if not r["problems"]]
    latencies = [r["latency"] for r in records]
    metrics = latency_metrics(latencies, len(ok_records), len(records), result["wall"])
    out = {"records": records, "traced": traced, "attempted": len(everything),
           "failed": failed, "cache": result["cache"]}
    if args.trace:
        layers = {name: 0 for name in PER_LAYER}
        layers.update(result["layers"])
        traced_ops_per_s = len(traced) / result["traced_wall"]
        layers["trace.overhead_ratio"] = traced_ops_per_s / metrics["ops_per_s"]
        out["metrics"] = layers
    else:
        metrics["setup_s"] = statistics.median(result["setups"])
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        out["metrics"] = metrics
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", default=None, metavar="PATH",
                        help="also write every op's record and counts here (JSON)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    if args.setup_probe:
        os.environ["TMPDIR"] = tempfile.tempdir = args.scratch
        LIBRARY[args.workload](args.seed, args.scratch).setup()
        return 0

    base = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    os.environ["TMPDIR"] = tempfile.tempdir = scratch
    try:
        runner = run_service if args.workload == "service-mix" else run_library
        out = runner(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as handle:
            json.dump(out, handle, default=str, indent=1)
    units = PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(out["metrics"])
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {name: {"value": float(out["metrics"][name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
