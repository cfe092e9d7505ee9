"""Explicit edge deltas between revisions of an uncertain graph.

An :class:`UncertainGraph` is an immutable value, but real uncertain
networks change edge by edge: a PPI screen revises an interaction
confidence, a collaboration graph gains a paper.  The mutation API
(:meth:`repro.graph.uncertain_graph.UncertainGraph.mutate` and friends)
models this as a *versioned sequence*: every mutation produces a brand
new graph (copy-on-write — existing readers are never disturbed), a
monotonically increasing ``revision``, and a :class:`GraphDelta`
recording exactly which edges changed.

The delta is what makes incremental re-clustering possible: the
sampling layer (:mod:`repro.sampling.deltas`) resamples only the
touched edges' mask columns and repairs only the affected worlds'
component labels, instead of cold-resampling the whole pool.  Deltas
also round-trip through JSON (:meth:`GraphDelta.to_json` /
:meth:`GraphDelta.from_json`) so the service's
``PATCH /graphs/{name}/edges`` endpoint and the ``repro mutate`` CLI
speak the same language.

All endpoints in a delta are **dense node indices** with ``u < v``
(the graph's canonical edge orientation); translating node labels is
the caller's job, exactly as for every other index-based API here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import GraphValidationError

__all__ = ["EdgeOp", "GraphDelta"]

_OPS = ("add", "remove", "update")


@dataclass(frozen=True)
class EdgeOp:
    """One edge mutation: ``add``, ``remove`` or ``update``.

    ``u``/``v`` are dense node indices (stored with ``u < v``);
    ``probability`` is the new edge probability (``None`` for
    ``remove``), ``old_probability`` the pre-mutation one (``None``
    for ``add``).

    Examples
    --------
    >>> EdgeOp("add", 2, 1, probability=0.5)
    EdgeOp(op='add', u=1, v=2, probability=0.5, old_probability=None)
    """

    op: str
    u: int
    v: int
    probability: float | None = None
    old_probability: float | None = None

    def __post_init__(self):
        if self.op not in _OPS:
            raise GraphValidationError(f"unknown edge op {self.op!r}; expected one of {_OPS}")
        u, v = int(self.u), int(self.v)
        if u == v:
            raise GraphValidationError(f"self loop at node {u}; uncertain graphs here are simple")
        if u > v:
            u, v = v, u
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if self.probability is not None:
            object.__setattr__(self, "probability", float(self.probability))
        if self.old_probability is not None:
            object.__setattr__(self, "old_probability", float(self.old_probability))


@dataclass(frozen=True)
class GraphDelta:
    """The edge-level difference between two consecutive graph revisions.

    Produced by :meth:`UncertainGraph.mutate`; replayable onto the base
    revision with :meth:`UncertainGraph.apply_delta`.  ``ops`` lists
    every touched edge exactly once.

    Examples
    --------
    >>> from repro.graph.uncertain_graph import UncertainGraph
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    >>> g2, delta = g.update_edge(0, 1, 0.9)
    >>> (delta.base_revision, delta.new_revision, delta.summary())
    (0, 1, {'added': 0, 'removed': 0, 'updated': 1})
    >>> g.apply_delta(delta).revision == g2.revision
    True
    """

    base_revision: int
    new_revision: int
    ops: tuple[EdgeOp, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.new_revision <= self.base_revision:
            raise GraphValidationError(
                f"new_revision ({self.new_revision}) must exceed "
                f"base_revision ({self.base_revision})"
            )
        seen: set[tuple[int, int]] = set()
        for op in self.ops:
            key = (op.u, op.v)
            if key in seen:
                raise GraphValidationError(
                    f"edge ({op.u}, {op.v}) appears in more than one delta op"
                )
            seen.add(key)

    @property
    def added(self) -> tuple[EdgeOp, ...]:
        """The ``add`` ops."""
        return tuple(op for op in self.ops if op.op == "add")

    @property
    def removed(self) -> tuple[EdgeOp, ...]:
        """The ``remove`` ops."""
        return tuple(op for op in self.ops if op.op == "remove")

    @property
    def updated(self) -> tuple[EdgeOp, ...]:
        """The ``update`` ops."""
        return tuple(op for op in self.ops if op.op == "update")

    def summary(self) -> dict:
        """Op counts, JSON-safe (the service's PATCH response body)."""
        past = {"add": "added", "remove": "removed", "update": "updated"}
        counts = {"added": 0, "removed": 0, "updated": 0}
        for op in self.ops:
            counts[past[op.op]] += 1
        return counts

    def to_json(self) -> dict:
        """JSON-safe representation (inverse of :meth:`from_json`)."""
        return {
            "base_revision": self.base_revision,
            "new_revision": self.new_revision,
            "ops": [
                {
                    "op": op.op,
                    "u": op.u,
                    "v": op.v,
                    "p": op.probability,
                    "old_p": op.old_probability,
                }
                for op in self.ops
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "GraphDelta":
        """Rebuild a delta from :meth:`to_json` output."""
        try:
            ops = tuple(
                EdgeOp(
                    entry["op"],
                    entry["u"],
                    entry["v"],
                    probability=entry.get("p"),
                    old_probability=entry.get("old_p"),
                )
                for entry in payload["ops"]
            )
            return cls(
                base_revision=int(payload["base_revision"]),
                new_revision=int(payload["new_revision"]),
                ops=ops,
            )
        except (KeyError, TypeError) as error:
            raise GraphValidationError(f"malformed delta payload: {error}") from error

    def __len__(self) -> int:
        return len(self.ops)
