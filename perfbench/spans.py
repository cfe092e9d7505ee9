"""In-memory span recorder wrapped around the public entry points of each layer.

Tracing here is done from the benchmark's own files: :func:`install`
replaces each layer's entry point with a timing wrapper, at every name a
caller can resolve it by (the defining module and every ``repro``
module that imported it, e.g. ``repro.sampling.oracle.block_bfs_distances``),
and on the class for methods.  Spans are kept in memory — name, start,
end, parent and op id, plus exact counts — and summarized per op by
:func:`layer_totals`.  A layer's self time is its span's duration minus
the time its direct children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

#: Span name of the whole op (the root of every op's span tree).
OP = "op"


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "counts", "child_s")

    def __init__(self, name, op, parent, start):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.counts = {}
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    """Collects spans of the op currently running; inert while ``op`` is None."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = None

    def begin(self, name, op=None):
        span = Span(name, self.op if op is None else op,
                    self._stack[-1] if self._stack else None, time.perf_counter())
        self._stack.append(span)
        return span

    def finish(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def wrap(self, name, fn, count=None):
        """``fn`` timed as a ``name`` span; ``count(span, args, kwargs, result)``
        attaches exact counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(span, args, kwargs, result)
                return result
            finally:
                self.finish(span)

        return wrapper

    @contextmanager
    def op_span(self, op):
        """Time one whole op as the root span; wrappers record only inside it."""
        self.op = op
        span = self.begin(OP, op)
        try:
            yield span
        finally:
            self.finish(span)
            self.op = None

    @contextmanager
    def layer(self, name):
        """A span opened around a call the benchmark itself makes."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.finish(span)


def _nbytes(*arrays) -> int:
    return int(sum(getattr(array, "nbytes", 0) for array in arrays))


def _patch_everywhere(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded repro module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point the per-layer metrics are built from."""
    from repro.sampling import backends, worlds
    from repro.sampling.oracle import MonteCarloOracle
    from repro.sampling.parallel import ParallelSampler
    from repro.sampling.store import WorldStore

    def sampled(span, args, kwargs, result):
        span.counts["worlds"] = int(args[3] if len(args) > 3 else kwargs["count"])

    ParallelSampler.sample_chunk_packed = recorder.wrap(
        "sampling.parallel", ParallelSampler.sample_chunk_packed, sampled)

    def labeled(span, args, kwargs, result):
        # Repairs relabel through component_labels; count each world once.
        if not (span.parent is not None and span.parent.name == "sampling.backends"):
            span.counts["worlds_labeled"] = int(result.shape[0])

    for backend_cls in backends.BACKENDS.values():
        for method in ("component_labels", "component_labels_packed", "repair_labels"):
            original = backend_cls.__dict__.get(method)
            if original is not None:
                setattr(backend_cls, method, recorder.wrap("sampling.backends", original, labeled))

    def appended(span, args, kwargs, result):
        span.counts["bytes_appended"] = _nbytes(args[3], args[4])

    def read_masks(span, args, kwargs, result):
        span.counts["bytes_read"] = _nbytes(*result)

    def read_labels(span, args, kwargs, result):
        span.counts["bytes_read"] = _nbytes(result)

    WorldStore.append = recorder.wrap("sampling.store.append", WorldStore.append, appended)
    WorldStore.read = recorder.wrap("sampling.store.read", WorldStore.read, read_masks)
    WorldStore.read_labels = recorder.wrap(
        "sampling.store.read", WorldStore.read_labels, read_labels)
    WorldStore.count = recorder.wrap("sampling.store.read", WorldStore.count)

    def bfs_distances(span, args, kwargs, result):
        span.counts["bfs_calls"] = 1
        span.counts["bfs_levels"] = int(result.max()) if result.size else 0

    def bfs_reached(span, args, kwargs, result):
        span.counts["bfs_calls"] = 1
        span.counts["bfs_levels"] = int(args[4] if len(args) > 4 else kwargs["depth"])

    _patch_everywhere(worlds.world_block_csr, recorder.wrap(
        "sampling.worlds.csr", worlds.world_block_csr))
    _patch_everywhere(worlds.block_bfs_distances, recorder.wrap(
        "sampling.worlds.bfs", worlds.block_bfs_distances, bfs_distances))
    _patch_everywhere(worlds.block_bfs_reached, recorder.wrap(
        "sampling.worlds.bfs", worlds.block_bfs_reached, bfs_reached))

    for method in ("ensure_samples", "connection", "connection_to_all",
                   "expected_distances", "pairwise_matrix", "chunk_masks"):
        setattr(MonteCarloOracle, method, recorder.wrap(
            "sampling.oracle", getattr(MonteCarloOracle, method)))


#: Span name -> (self-time metric, {count key: metric}).
LAYERS = {
    "sampling.parallel": ("sampling.parallel.self_s", {"worlds": "sampling.parallel.worlds"}),
    "sampling.backends": ("sampling.backends.self_s",
                          {"worlds_labeled": "sampling.backends.worlds_labeled"}),
    "sampling.store.append": ("sampling.store.append_s",
                              {"bytes_appended": "sampling.store.bytes_appended"}),
    "sampling.store.read": ("sampling.store.read_s", {"bytes_read": "sampling.store.bytes_read"}),
    "sampling.worlds.csr": ("sampling.worlds.csr_s", {}),
    "sampling.worlds.bfs": ("sampling.worlds.bfs_s", {"bfs_calls": "sampling.worlds.bfs_calls",
                                                      "bfs_levels": "sampling.worlds.bfs_levels"}),
    "sampling.oracle": ("sampling.oracle.self_s", {}),
    "core": ("core.self_s", {"guesses": "core.guesses"}),
    "workloads": ("workloads.self_s", {"rounds": "workloads.rounds"}),
    OP: ("other_s", {}),
}


def layer_totals(spans) -> dict:
    """Per-op sums of self time and counts, keyed ``op -> {metric: value}``."""
    per_op: dict = {}
    for span in spans:
        time_metric, count_metrics = LAYERS[span.name]
        totals = per_op.setdefault(span.op, {})
        totals[time_metric] = totals.get(time_metric, 0.0) + span.self_s
        for key, metric in count_metrics.items():
            totals[metric] = totals.get(metric, 0) + span.counts.get(key, 0)
    return per_op
