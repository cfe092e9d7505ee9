"""Host-speed reference: a fixed kernel timed between ops to cancel host drift.

On a shared host the same code runs up to ~1.5x slower for seconds at a
time while neighbours load the machine (cache and memory contention,
which the guest sees as neither steal nor lost CPU time).  The
benchmark therefore times a fixed reference kernel — independent of the
code under test, shaped like its hot loops (scatter-min, gathers,
``unique``, a sort and an interpreted loop) — before and after every op
(or every slice of ops) and reports each op's wall time scaled to a host
where the kernel takes :data:`NOMINAL_S`::

    reported = wall * NOMINAL_S / mean(reference before, reference after)

The reference is only ever timed while the program under test is idle
(between library ops; between slices of a service phase, when no
session is in flight and the server has nothing to do), so a change to
the program moves the reported time as it moves the wall time, while a
change of host speed moves the reference too and cancels.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import subprocess
import sys
import time

import numpy as np

#: Reference-kernel seconds on the nominal host (a quiet 2-core x86-64
#: container); reported times are wall times scaled to that host.
NOMINAL_S = {"scatter": 0.002, "frontier": 0.002, "startup": 0.45}

_rng = np.random.default_rng(20170801)
_NODES = 1 << 17
_SRC = _rng.integers(0, _NODES, 12_000)
_DST = _rng.integers(0, _NODES, 12_000)
_VALUES = _rng.random(8_000)
# A sparse random graph (CSR) for the frontier kernel.
_GRAPH_NODES = 6_000
_DEGREES = _rng.poisson(2.2, _GRAPH_NODES)
_INDPTR = np.concatenate(([0], np.cumsum(_DEGREES)))
_INDICES = _rng.integers(0, _GRAPH_NODES, int(_INDPTR[-1]))


def _scatter() -> None:
    """Sampling/labeling-shaped: scatter-min, gathers over ~0.5 MB, unique, sort."""
    parent = np.arange(_NODES, dtype=np.int32)
    np.minimum.at(parent, _DST, _SRC.astype(np.int32))
    parent = parent[parent]
    np.unique(parent[_SRC])
    np.sort(_VALUES)
    total = 0
    for i in range(1_500):
        total += i * i


def _frontier() -> None:
    """BFS-shaped: many small gathers and uniques driven by an interpreted loop."""
    for source in range(2):
        seen = np.zeros(_GRAPH_NODES, dtype=bool)
        frontier = np.array([source])
        seen[frontier] = True
        while len(frontier):
            starts, stops = _INDPTR[frontier], _INDPTR[frontier + 1]
            lengths = stops - starts
            if not lengths.sum():
                break
            offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
            neighbours = _INDICES[offsets + np.arange(int(lengths.sum()))]
            frontier = np.unique(neighbours[~seen[neighbours]])
            seen[frontier] = True


def _startup() -> None:
    """Set-up-shaped: a fresh interpreter importing the numeric stack."""
    subprocess.run([sys.executable, "-c", "import numpy, scipy.sparse.csgraph"],
                   check=True, stdin=subprocess.DEVNULL)


KERNELS = {"scatter": _scatter, "frontier": _frontier, "startup": _startup}
#: Runs per reading (a reading is the fastest of them).
REPEATS = {"scatter": 2, "frontier": 2, "startup": 1}


def reference_s(kernel: str) -> float:
    """Wall seconds of one run of a reference kernel."""
    started = time.perf_counter()
    KERNELS[kernel]()
    return time.perf_counter() - started


def idle_reading(kernel: str, readings: int) -> float:
    """Median of ``readings`` readings, each the fastest of a few runs."""
    return statistics.median(
        min(reference_s(kernel) for _ in range(REPEATS[kernel])) for _ in range(readings))


class AllCores:
    """Readings of a kernel run on every core at once, in helper processes.

    For a program that keeps every core busy (a server and its workers):
    contention that shows only while all cores run shows in these
    readings too.  A context manager; the helpers stop on exit.
    """

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.cores = len(os.sched_getaffinity(0))

    def __enter__(self) -> "AllCores":
        self.pool = multiprocessing.get_context("fork").Pool(self.cores)
        self.reading(1)  # first runs pay page faults
        return self

    def __exit__(self, *_exc) -> None:
        self.pool.close()
        self.pool.join()

    def reading(self, readings: int) -> float:
        """Median over the cores of each core's :func:`idle_reading`."""
        return statistics.median(self.pool.starmap(
            idle_reading, [(self.kernel, readings)] * self.cores, chunksize=1))


class Clock:
    """Scales op wall times by the reference kernel timed around them."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        reference_s(kernel)  # first run pays page faults
        self._last = idle_reading(kernel, 1)

    def scaled(self, wall_s: float) -> float:
        """``wall_s`` of the op that just ended, scaled to the nominal host."""
        before, self._last = self._last, idle_reading(self.kernel, 1)
        return wall_s * NOMINAL_S[self.kernel] / ((before + self._last) / 2)
