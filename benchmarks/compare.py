"""Diff two ``BENCH_*.json`` artifacts and print a speedup table.

Used two ways:

* by humans, to eyeball a change's effect::

      python benchmarks/compare.py benchmarks/baselines/BENCH_sampling.json \
          benchmarks/out/BENCH_sampling.json

* by the CI perf gate, which fails the build when any benchmark got
  more than ``--fail-over`` times slower than the committed baseline::

      python benchmarks/compare.py baseline.json current.json --fail-over 2.0

Speedup is ``baseline_seconds / current_seconds`` — above 1.0 means the
current run is faster.  Benchmarks present in only one file are listed
but never fail the gate (new benchmarks have no baseline yet; retired
ones have no current run).  Benchmarks more than
:data:`STALE_SPEEDUP` times faster than their baseline are listed as
stale, report only: against such a baseline a 2x gate cannot catch the
loss of the gain, so the baseline wants re-recording.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ in (None, ""):
    # Allow `python benchmarks/compare.py` without installing anything.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.record import load_artifact  # noqa: E402

#: Speedup over the baseline above which a cell is reported as stale.
STALE_SPEEDUP = 2.0


def compare_artifacts(baseline: dict, current: dict) -> list[dict]:
    """Per-benchmark comparison rows, sorted worst speedup first."""
    rows = []
    names = sorted(set(baseline["benchmarks"]) | set(current["benchmarks"]))
    for name in names:
        base = baseline["benchmarks"].get(name)
        curr = current["benchmarks"].get(name)
        row = {
            "name": name,
            "baseline_seconds": base["seconds"] if base else None,
            "current_seconds": curr["seconds"] if curr else None,
            "speedup": None,
        }
        if base and curr:
            row["speedup"] = base["seconds"] / curr["seconds"]
        rows.append(row)
    rows.sort(key=lambda row: (row["speedup"] is None, row["speedup"]))
    return rows


def _fmt_seconds(value) -> str:
    return "-" if value is None else f"{value * 1000:.1f}ms"


def _fmt_speedup(value) -> str:
    return "-" if value is None else f"{value:.2f}x"


def render_table(rows: list[dict]) -> str:
    name_width = max([len(row["name"]) for row in rows] + [len("benchmark")])
    lines = [
        f"{'benchmark':<{name_width}}  {'baseline':>9}  {'current':>9}  {'speedup':>8}"
    ]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(
            f"{row['name']:<{name_width}}  "
            f"{_fmt_seconds(row['baseline_seconds']):>9}  "
            f"{_fmt_seconds(row['current_seconds']):>9}  "
            f"{_fmt_speedup(row['speedup']):>8}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("baseline", help="reference BENCH_*.json (usually committed)")
    parser.add_argument("current", help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--fail-over",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit non-zero if any benchmark is more than RATIO times "
        "slower than the baseline (the CI gate uses 2.0)",
    )
    args = parser.parse_args(argv)
    try:
        baseline = load_artifact(args.baseline)
        current = load_artifact(args.current)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    rows = compare_artifacts(baseline, current)
    if not rows:
        print("no benchmarks in either artifact", file=sys.stderr)
        return 2
    print(render_table(rows))

    missing = [row["name"] for row in rows if row["speedup"] is None]
    if missing:
        print(f"\nnot comparable (present in only one file): {len(missing)}")
    stale = [row for row in rows if row["speedup"] is not None and row["speedup"] > STALE_SPEEDUP]
    if stale:
        print(
            f"\nstale baseline (more than {STALE_SPEEDUP:g}x faster; report only, "
            f"re-record it): {len(stale)}"
        )
        for row in stale:
            print(f"  {row['name']}: {_fmt_speedup(row['speedup'])}")
    if args.fail_over is not None:
        threshold = 1.0 / args.fail_over
        regressions = [
            row for row in rows if row["speedup"] is not None and row["speedup"] < threshold
        ]
        if regressions:
            print(
                f"\nPERF GATE FAILED: {len(regressions)} benchmark(s) more than "
                f"{args.fail_over:g}x slower than baseline:"
            )
            for row in regressions:
                print(f"  {row['name']}: {_fmt_speedup(row['speedup'])}")
            return 1
        print(f"\nperf gate ok (no benchmark more than {args.fail_over:g}x slower)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
