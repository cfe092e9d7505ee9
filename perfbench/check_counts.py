"""Exact-count test of the benchmark.

Usage (from the repository root)::

    python3 perfbench/check_counts.py

For each workload this makes three traced runs, two at one seed and one
at another.  The two same-seed runs must agree exactly on every count
the per-layer metrics are built from — worlds drawn and labeled, bytes
appended and read, BFS calls and levels, guesses, rounds, HTTP requests
(polls aside), cache worlds sampled, cached and derived — op by op
where the op is run in-process, and on every result digest.  The
other seed must change the generated inputs and the results.  Exits 1
on any mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import PER_LAYER, WORKLOADS  # noqa: E402

SEED, OTHER_SEED = 11, 12
#: Run length; the traced ops are a fixed set, so it only sizes the untraced half.
SECONDS = 4

#: Per-layer metrics that are exact counts (polls depend on timing).
EXACT = sorted(name for name, unit in PER_LAYER.items()
               if unit in ("count", "B") and name != "service.http.polls")
EXACT.append("service.cache.warm_lease_ratio")


def traced_run(workload: str, seed: int, seconds: float, dump: str) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1", "--dump", dump],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=600,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    with open(dump, encoding="utf-8") as handle:
        return {"result": result, "dump": json.load(handle)}


def fingerprint(run: dict) -> dict:
    """Everything that must repeat exactly at one seed."""
    dump = run["dump"]
    out = {"metrics": {name: run["result"]["metrics"][name]["value"] for name in EXACT}}
    if "per_op" in dump:  # library: exact counts of every traced op
        out["per_op"] = {op: {name: value for name, value in totals.items()
                              if PER_LAYER.get(name) in ("count", "B")}
                         for op, totals in dump["per_op"].items()}
        out["digests"] = [r.get("digest") for r in dump["reruns"]]
    else:  # service: every traced session's job accounting and results
        out["sessions"] = [
            (r["index"], r["digest"],
             [(step, res["worlds_sampled"], res["worlds_cached"], res["samples_used"])
              for step, res, _ in r["jobs"]])
            for r in dump["traced"]]
    return out


def inputs_digest(workload: str, seed: int) -> str:
    import numpy as np
    from library import WORKLOADS as LIBRARY, digest
    from service_mix import session_seed

    if workload in LIBRARY:
        return LIBRARY[workload](seed, None).inputs_digest(24)
    return digest(np.array([session_seed(seed, phase, client, index)
                            for phase in (0, 1) for client in (0, 1) for index in range(8)]))


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))

    base = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="check-", dir=base)
    problems = []
    try:
        for workload in WORKLOADS:
            first, again, other = (
                fingerprint(traced_run(workload, seed, SECONDS,
                                       os.path.join(scratch, f"{workload}-{i}.json")))
                for i, seed in enumerate((SEED, SEED, OTHER_SEED)))
            for key in first:
                if first[key] != again[key]:
                    problems.append(f"{workload}: {key} differ between two runs at seed {SEED}")
            if inputs_digest(workload, SEED) == inputs_digest(workload, OTHER_SEED):
                problems.append(f"{workload}: seeds {SEED} and {OTHER_SEED} "
                                "generate the same inputs")
            results = "digests" if "digests" in first else "sessions"
            if first[results] == other[results]:
                problems.append(f"{workload}: seed {OTHER_SEED} gave the same results")
            print(f"{workload}: {len(first['metrics'])} exact metrics, "
                  f"{len(first[results])} {results} compared", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("exact counts repeat" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
