"""Library workloads: one caller in a closed loop over the public ``repro`` API.

``cold-cluster``
    Each op is one ``mcp_clustering`` call on ``krogan_like(seed=0,
    scale=0.4)`` with a fresh seed and a disk ``WorldStore`` in a fresh
    directory: every op samples, labels and appends its pool.
``warm-distance``
    Set-up samples a pool of ``dblp_like(120, seed=0)`` (64 worlds) into a disk
    ``WorldStore``; ops then run k-median, k-center and harmonic
    centrality round-robin against it, so they only read the store and
    run the BFS kernels.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile

import numpy as np

COLD_SCALE = 0.4
COLD_KS = (3, 5, 20)
COLD_MAX_SAMPLES = 2000
WARM_AUTHORS = 120
WARM_WORLDS = 64
WARM_OPS = ("kmedian", "kcenter", "harmonic")


def derive_seed(*parts) -> int:
    """A 32-bit seed that is a pure function of ``parts``."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        hasher.update(str(array.dtype).encode() + str(array.shape).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()[:16]


class ColdCluster:
    name = "cold-cluster"
    reference = "scatter"
    op_kinds = tuple(f"mcp_k{k}" for k in COLD_KS)

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        from repro.datasets import krogan_like

        self.graph = krogan_like(seed=0, scale=COLD_SCALE).graph

    def inputs(self, index: int) -> dict:
        return {"k": COLD_KS[index % len(COLD_KS)], "seed": derive_seed(self.seed, index)}

    def inputs_digest(self, ops: int) -> str:
        return digest(np.array([[v for v in self.inputs(i).values()] for i in range(ops)]))

    def prepare(self, index: int) -> str:
        """Untimed per-op set-up: the op's fresh store directory."""
        return tempfile.mkdtemp(prefix="cold-", dir=self.scratch)

    def run(self, index: int, directory: str, recorder=None):
        """The timed op; returns ``(ok, detail)``."""
        from repro import mcp_clustering
        from repro.sampling.sizes import PracticalSchedule
        from repro.sampling.store import WorldStore

        inputs = self.inputs(index)
        store = WorldStore(directory)
        call = lambda: mcp_clustering(  # noqa: E731
            self.graph, inputs["k"], seed=inputs["seed"], store=store,
            sample_schedule=PracticalSchedule(max_samples=COLD_MAX_SAMPLES))
        if recorder is None:
            result = call()
        else:
            with recorder.layer("core") as span:
                result = call()
                span.counts["guesses"] = result.n_guesses
        assignment = np.asarray(result.clustering.assignment)
        ok = (
            assignment.shape == (self.graph.n_nodes,)
            and result.clustering.covers_all
            and bool(((assignment >= 0) & (assignment < inputs["k"])).all())
        )
        return ok, {"digest": digest(assignment, result.clustering.centers),
                    "samples": int(result.samples_used), "guesses": result.n_guesses}

    def cleanup(self, directory: str) -> None:
        shutil.rmtree(directory, ignore_errors=True)


class WarmDistance:
    name = "warm-distance"
    reference = "frontier"
    op_kinds = WARM_OPS

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.first: dict = {}

    def setup(self) -> None:
        from repro import MonteCarloOracle
        from repro.datasets import dblp_like
        from repro.sampling.store import WorldStore

        self.graph = dblp_like(WARM_AUTHORS, seed=0)
        self.pool_seed = derive_seed(self.seed)
        self.store = WorldStore(tempfile.mkdtemp(prefix="warm-", dir=self.scratch))
        with MonteCarloOracle(self.graph, seed=self.pool_seed, store=self.store) as oracle:
            oracle.ensure_samples(WARM_WORLDS)

    def inputs_digest(self, ops: int) -> str:
        return digest(np.array([derive_seed(self.seed)]))

    def prepare(self, index: int):
        return None

    def run(self, index: int, _unused=None, recorder=None):
        from repro import expected_centrality, kcenter_clustering, kmedian_clustering

        kind = WARM_OPS[index % len(WARM_OPS)]
        common = {"seed": self.pool_seed, "samples": WARM_WORLDS, "store": self.store}
        if kind == "kmedian":
            call = lambda: kmedian_clustering(self.graph, 4, **common)  # noqa: E731
        elif kind == "kcenter":
            call = lambda: kcenter_clustering(self.graph, 8, **common)  # noqa: E731
        else:
            call = lambda: expected_centrality(  # noqa: E731
                self.graph, measure="harmonic", tol=1e-12, **common)
        if recorder is None:
            result = call()
        else:
            with recorder.layer("workloads") as span:
                result = call()
                span.counts["rounds"] = result.n_rounds
        if kind == "harmonic":
            values = np.asarray(result.values)
            out = digest(values)
            ok = result.samples_used == WARM_WORLDS and bool(
                ((values >= 0) & (values <= 1)).all())
        else:
            out = digest(result.clustering.assignment, result.clustering.centers,
                         np.array([result.objective]))
            ok = result.samples_used == WARM_WORLDS and result.clustering.covers_all
        ok = ok and self.first.setdefault(kind, out) == out
        return ok, {"digest": out, "rounds": result.n_rounds}

    def cleanup(self, _unused) -> None:
        return None

    def drawn_nothing(self) -> bool:
        """The store still holds exactly the set-up pool: no op drew worlds."""
        pools = self.store.info()
        return len(pools) == 1 and pools[0].n_worlds == WARM_WORLDS


WORKLOADS = {cls.name: cls for cls in (ColdCluster, WarmDistance)}
