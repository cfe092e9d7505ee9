"""Run the benchmark on several seeds and report each metric's median and spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py

For every workload in ``BENCHMARK.json`` this makes :data:`RUNS` runs of
``run_seconds`` each, at seeds 1, 2, ..., every run a separate process.
For every end-to-end metric it prints the median over the runs and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=600,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, seed, spec["run_seconds"])
                   for seed in range(1, RUNS + 1)]
        print(f"{workload}: {RUNS} runs, "
              f"{min(r['attempted'] for r in results)}-{max(r['attempted'] for r in results)}"
              f" ops each, {sum(r['failed'] for r in results)} failed")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            share = spread(values) / bound
            if name != "setup_s":
                worst = max(worst, share)
            print(f"  {name:12s} median {statistics.median(values):12.6g}  "
                  f"spread {spread(values):7.2%}  bound {bound:.0%}  ({share:.2f} of bound)")
        sys.stdout.flush()
    print(f"largest spread, setup_s aside: {worst:.2f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
