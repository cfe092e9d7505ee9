"""WorldStore flock protocol under *process* concurrency.

PR 3 made concurrent appends to one on-disk pool safe with an
``flock``-guarded append protocol; the multi-process service
(:class:`repro.service.workers.ProcessJobQueue`) now leans on it:
several spawned workers cold-sample the *same* digest concurrently.

The pin here runs two real child **processes** (not threads) that race
``ensure_samples`` on one store directory, then asserts

* the pool holds exactly the deterministic world sequence — every
  world is a pure function of ``(seed, index)``, so whichever process
  appends a chunk writes the same bytes;
* masks and labels are bit-identical to a serial single-process run.

A writer killed between a block's data write and its ledger record
(SIGKILL, so no cleanup runs) must leave a pool that a fresh store
serves at its old count, bit-identical, and extends correctly.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.oracle import MonteCarloOracle
from repro.sampling.store import WorldStore

EDGES = [
    (0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.8),
    (3, 4, 0.85), (4, 5, 0.85), (3, 5, 0.75),
    (2, 3, 0.05),
]
SEED = 7
WORLDS = 768

CHILD_SCRIPT = """\
import os
import sys
import time

from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.oracle import MonteCarloOracle
from repro.sampling.store import WorldStore

store_dir, go_file, worlds = sys.argv[1], sys.argv[2], int(sys.argv[3])
graph = UncertainGraph.from_edges({edges!r})
deadline = time.monotonic() + 30.0
while not os.path.exists(go_file):
    if time.monotonic() > deadline:
        raise SystemExit("go signal never arrived")
    time.sleep(0.001)
with MonteCarloOracle(graph, seed={seed}, store=WorldStore(store_dir)) as oracle:
    oracle.ensure_samples(worlds)
    print(oracle.pool_digest)
"""


def _graph() -> UncertainGraph:
    return UncertainGraph.from_edges(EDGES)


def test_two_processes_cold_sampling_one_digest_bit_identical(tmp_path):
    shared = tmp_path / "shared"
    script = tmp_path / "child.py"
    go_file = tmp_path / "go"
    script.write_text(CHILD_SCRIPT.format(edges=EDGES, seed=SEED))

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    children = [
        subprocess.Popen(
            [sys.executable, str(script), str(shared), str(go_file), str(WORLDS)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    # Both children are up and polling before the gun goes off, so the
    # appends genuinely race instead of running back to back.
    time.sleep(0.2)
    go_file.write_text("go\n")
    outputs = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        outputs.append(out.strip())
    assert outputs[0] == outputs[1]  # same pool identity in both
    digest = outputs[0]

    # Serial reference in a fresh directory: the ground truth bytes.
    serial_dir = tmp_path / "serial"
    with MonteCarloOracle(_graph(), seed=SEED, store=WorldStore(serial_dir)) as oracle:
        oracle.ensure_samples(WORLDS)
        assert oracle.pool_digest == digest

    racy_store = WorldStore(shared)
    serial_store = WorldStore(serial_dir)
    # Reading requires the digest to be registered (validated) first.
    for store in (racy_store, serial_store):
        with MonteCarloOracle(_graph(), seed=SEED, store=store) as reader:
            assert reader.pool_digest == digest
    count = racy_store.count(digest)
    assert count >= WORLDS  # one consistent pool, no gaps or double-writes
    masks_racy, labels_racy = racy_store.read(digest, 0, WORLDS)
    masks_serial, labels_serial = serial_store.read(digest, 0, WORLDS)
    assert np.array_equal(masks_racy, masks_serial)
    assert np.array_equal(labels_racy, labels_serial)


def test_oracle_estimates_agree_after_concurrent_fill(tmp_path):
    """A reader over the racily-filled pool equals a serial oracle."""
    shared = tmp_path / "shared"
    script = tmp_path / "child.py"
    go_file = tmp_path / "go"
    script.write_text(CHILD_SCRIPT.format(edges=EDGES, seed=SEED))
    go_file.write_text("go\n")  # no race needed here; reuse the child

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run(
        [sys.executable, str(script), str(shared), str(go_file), str(WORLDS)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr

    with MonteCarloOracle(_graph(), seed=SEED, store=WorldStore(shared)) as warm:
        warm.ensure_samples(WORLDS)
        assert warm.cache_stats["worlds_sampled"] == 0  # served from disk
        warm_estimate = warm.connection(0, 2)
    with MonteCarloOracle(_graph(), seed=SEED) as cold:
        cold.ensure_samples(WORLDS)
        cold_estimate = cold.connection(0, 2)
    assert warm_estimate == cold_estimate


KILLED_WRITER_SCRIPT = """\
import sys
import time

import repro.sampling.store as store_module
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.oracle import MonteCarloOracle
from repro.sampling.store import WorldStore

store_dir, ready_file, worlds = sys.argv[1], sys.argv[2], int(sys.argv[3])
append_bytes = store_module._append_bytes


def stall_before_the_record(path, data, create=True):
    if path.endswith(store_module._LEDGER_NAME):
        # The block's data is on disk; its record is not.
        open(ready_file, "w").close()
        time.sleep(120)
    append_bytes(path, data, create)


store_module._append_bytes = stall_before_the_record
graph = UncertainGraph.from_edges({edges!r})
with MonteCarloOracle(graph, seed={seed}, chunk_size=64, store=WorldStore(store_dir)) as oracle:
    oracle.ensure_samples(worlds)
"""


def test_writer_killed_before_its_record_leaves_the_old_pool(tmp_path):
    """A writer SIGKILLed between a block's data write and its ledger
    record leaves trailing data bytes only: a fresh store serves the
    pool at its old count, bit-identical, and extends it correctly."""
    shared = tmp_path / "shared"
    with MonteCarloOracle(_graph(), seed=SEED, chunk_size=64, store=WorldStore(shared)) as cold:
        cold.ensure_samples(128)
        digest = cold.pool_digest
    pool_dir = shared / digest
    sizes = {name: (pool_dir / name).stat().st_size
             for name in ("blocks.ledger", "masks.u64", "labels.u16")}

    script = tmp_path / "writer.py"
    ready = tmp_path / "ready"
    script.write_text(KILLED_WRITER_SCRIPT.format(edges=EDGES, seed=SEED))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    writer = subprocess.Popen(
        [sys.executable, str(script), str(shared), str(ready), "192"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not ready.exists():
            assert writer.poll() is None, writer.communicate()[1]
            assert time.monotonic() < deadline, "writer never reached its record"
            time.sleep(0.005)
    finally:
        writer.kill()  # SIGKILL
        writer.communicate(timeout=60)
    assert writer.returncode == -9
    assert (pool_dir / "blocks.ledger").stat().st_size == sizes["blocks.ledger"]
    for name in ("masks.u64", "labels.u16"):
        assert (pool_dir / name).stat().st_size > sizes[name]  # the torn block's data

    with MonteCarloOracle(_graph(), seed=SEED, chunk_size=64) as serial:
        serial.ensure_samples(192)
        serial_masks = serial.packed_worlds(0, 192)
        serial_labels = serial.component_labels
    fresh = WorldStore(shared)
    assert fresh.count(fresh.register(_graph(), SEED)) == 128
    masks, labels = fresh.read(digest, 0, 128)
    assert np.array_equal(masks, serial.packed_worlds(0, 128))
    assert np.array_equal(labels, serial_labels[:128])

    with MonteCarloOracle(_graph(), seed=SEED, chunk_size=64, store=fresh) as warm:
        warm.ensure_samples(192)
        assert warm.cache_stats == {"worlds_cached": 128, "worlds_sampled": 64}
    assert (pool_dir / "labels.u16").stat().st_size == 192 * _graph().n_nodes * 2
    after = WorldStore(shared)
    assert after.count(after.register(_graph(), SEED)) == 192
    masks, labels = after.read(digest, 0, 192)
    assert np.array_equal(masks, serial_masks)
    assert np.array_equal(labels, serial_labels)
