"""The names ``perfbench/spans.py`` binds must stay in the library.

``spans.install`` wraps layer entry points by name (the sampler, the
labeling backends' methods, the world store, the block-BFS kernels).
Deleting or renaming one breaks ``perfbench/run.py --trace 1`` and
``perfbench/check_counts.py``; this test makes such a change fail the
unit suite too.  It runs in a child process, because ``install`` patches
the ``repro`` modules for good.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

CHILD_SCRIPT = """
import importlib.util
import json
import sys
import tempfile

spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
recorder = spans.Recorder()
spans.install(recorder)

from repro import mcp_clustering
from repro.datasets import gnm_uncertain
from repro.sampling.store import WorldStore

graph = gnm_uncertain(40, 90, seed=0)
with tempfile.TemporaryDirectory() as directory:
    with recorder.op_span(0):
        mcp_clustering(graph, 3, seed=1, store=WorldStore(directory))
print(json.dumps({
    "names": sorted({span.name for span in recorder.spans}),
    "totals": spans.layer_totals(recorder.spans)[0],
}))
"""


def test_traced_mcp_records_every_sampling_layer(tmp_path):
    script = tmp_path / "traced.py"
    script.write_text(CHILD_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run(
        [sys.executable, str(script), str(REPO / "perfbench" / "spans.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    traced = json.loads(child.stdout)
    assert {"sampling.backends", "sampling.parallel", "sampling.store.append"} <= set(
        traced["names"]
    )
    totals = traced["totals"]
    assert totals["sampling.backends.worlds_labeled"] > 0
    assert totals["sampling.parallel.worlds"] == totals["sampling.backends.worlds_labeled"]
    assert totals["sampling.store.bytes_appended"] > 0
