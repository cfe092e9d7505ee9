"""The :class:`UncertainGraph` data structure.

An uncertain graph ``G = (V, E, p : E -> (0, 1])`` is stored in struct-of-
arrays form: parallel numpy arrays of edge endpoints and probabilities,
plus a lazily built CSR adjacency for traversals.  Nodes are dense
integer indices ``0..n-1`` internally; arbitrary hashable labels are
supported at the boundary and preserved by :meth:`subgraph`.

The graphs are undirected and simple (no self loops, each edge stored
once), matching the paper's setting.
"""

from __future__ import annotations

import hashlib
from collections.abc import Hashable, Iterable, Sequence

import numpy as np

from repro.exceptions import GraphValidationError
from repro.graph.components import connected_component_labels, largest_component_indices

_MERGE_POLICIES = ("error", "max", "noisy-or", "first")


def checked_probability(p, where: str) -> float:
    """``p`` as an edge probability, else a :class:`GraphValidationError`.

    The single probability rule of every input surface: ``.uel`` text
    (``where`` names the line), :meth:`UncertainGraph.from_edges` and
    so the service's JSON uploads (the edge's position), and
    :meth:`UncertainGraph.mutate` (the edge).  Values must be numbers
    in ``[0, 1]`` (NaN fails both comparisons and is caught) and cannot
    be exactly 0: such an edge never exists.

    Examples
    --------
    >>> checked_probability("0.5", "line 1")
    0.5
    >>> checked_probability(float("nan"), "edge 2")
    Traceback (most recent call last):
    ...
    repro.exceptions.GraphValidationError: edge 2: probability nan outside [0, 1]
    """
    try:
        p = float(p)
    except (TypeError, ValueError):
        raise GraphValidationError(f"{where}: probability {p!r} is not a number") from None
    if not 0.0 <= p <= 1.0:
        raise GraphValidationError(f"{where}: probability {p!r} outside [0, 1]")
    if p == 0.0:
        raise GraphValidationError(
            f"{where}: probability-0 edges cannot exist; "
            "drop the edge or use a positive probability"
        )
    return p


def _integer_token(token) -> int | None:
    """``token`` as an int when it spells one exactly, else ``None``."""
    if isinstance(token, str):
        try:
            return int(token)
        except ValueError:
            return None
    if isinstance(token, (int, np.integer)):
        return int(token)
    if isinstance(token, (float, np.floating)) and float(token).is_integer():
        return int(token)
    return None


def _canonical_endpoints(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orient every edge so that ``src < dst``."""
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    return lo, hi


def _merge_duplicates(src, dst, prob, policy: str):
    """Collapse duplicate undirected edges according to ``policy``."""
    keys = src.astype(np.int64) * (int(dst.max()) + 1 if len(dst) else 1) + dst
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    src, dst, prob = src[order], dst[order], prob[order]
    boundary = np.ones(len(keys), dtype=bool)
    boundary[1:] = keys[1:] != keys[:-1]
    if boundary.all():
        return src, dst, prob
    if policy == "error":
        first_dup = int(np.flatnonzero(~boundary)[0])
        raise GraphValidationError(
            f"duplicate edge ({int(src[first_dup])}, {int(dst[first_dup])}); "
            "pass merge='max', 'noisy-or' or 'first' to combine duplicates"
        )
    group_ids = np.cumsum(boundary) - 1
    n_groups = int(group_ids[-1]) + 1
    out_src = src[boundary]
    out_dst = dst[boundary]
    if policy == "max":
        out_prob = np.full(n_groups, -np.inf)
        np.maximum.at(out_prob, group_ids, prob)
    elif policy == "noisy-or":
        # 1 - prod(1 - p_i): probability at least one observation survives.
        log_misses = np.zeros(n_groups)
        np.add.at(log_misses, group_ids, np.log1p(-np.minimum(prob, 1.0 - 1e-15)))
        out_prob = -np.expm1(log_misses)
        # Exact 1.0 inputs should stay exactly 1.0.
        ones = np.zeros(n_groups, dtype=bool)
        np.logical_or.at(ones, group_ids, prob >= 1.0)
        out_prob[ones] = 1.0
    elif policy == "first":
        out_prob = prob[boundary]
    else:
        raise GraphValidationError(f"unknown merge policy {policy!r}; expected one of {_MERGE_POLICIES}")
    return out_src, out_dst, out_prob


class UncertainGraph:
    """An undirected uncertain graph with independent edge probabilities.

    Parameters
    ----------
    n_nodes:
        Number of nodes (``0..n_nodes-1``).
    src, dst:
        Integer edge endpoint arrays, one entry per undirected edge.
    prob:
        Edge existence probabilities, each in ``(0, 1]``.
    node_labels:
        Optional sequence of hashable labels, one per node.  Defaults to
        the integer indices.
    validate:
        Skip validation only when arrays are known-good (internal use).

    Examples
    --------
    >>> g = UncertainGraph.from_edges([("a", "b", 0.9), ("b", "c", 0.5)])
    >>> g.n_nodes, g.n_edges
    (3, 2)
    >>> sorted(g.neighbors(g.index_of("b")).tolist())
    [0, 2]
    """

    __slots__ = (
        "_n",
        "_src",
        "_dst",
        "_prob",
        "_labels",
        "_label_index",
        "_indptr",
        "_adj_nodes",
        "_adj_edges",
        "_degree_layout",
        "_content_hash",
        "_revision",
    )

    def __init__(
        self,
        n_nodes: int,
        src,
        dst,
        prob,
        node_labels: Sequence[Hashable] | None = None,
        *,
        validate: bool = True,
        revision: int = 0,
    ):
        src = np.ascontiguousarray(src, dtype=np.intp)
        dst = np.ascontiguousarray(dst, dtype=np.intp)
        prob = np.ascontiguousarray(prob, dtype=np.float64)
        if validate:
            self._validate(n_nodes, src, dst, prob, node_labels)
        self._n = int(n_nodes)
        self._src, self._dst = _canonical_endpoints(src, dst)
        self._prob = prob
        if node_labels is None:
            self._labels = None
            self._label_index = None
        else:
            self._labels = tuple(node_labels)
            self._label_index = {label: i for i, label in enumerate(self._labels)}
        self._indptr = None
        self._adj_nodes = None
        self._adj_edges = None
        self._degree_layout = None
        self._content_hash = None
        if revision < 0:
            raise GraphValidationError(f"revision must be non-negative, got {revision}")
        self._revision = int(revision)

    @staticmethod
    def _validate(n_nodes, src, dst, prob, node_labels) -> None:
        if n_nodes < 0:
            raise GraphValidationError(f"n_nodes must be non-negative, got {n_nodes}")
        if not (len(src) == len(dst) == len(prob)):
            raise GraphValidationError(
                f"edge arrays must have equal lengths, got {len(src)}, {len(dst)}, {len(prob)}"
            )
        if len(src) and (src.min() < 0 or dst.min() < 0 or max(src.max(), dst.max()) >= n_nodes):
            raise GraphValidationError("edge endpoints must lie in [0, n_nodes)")
        if np.any(src == dst):
            loop = int(src[np.argmax(src == dst)])
            raise GraphValidationError(f"self loop at node {loop}; uncertain graphs here are simple")
        if len(prob) and (np.any(prob <= 0.0) or np.any(prob > 1.0) or not np.all(np.isfinite(prob))):
            raise GraphValidationError("edge probabilities must lie in (0, 1]")
        if node_labels is not None:
            labels = list(node_labels)
            if len(labels) != n_nodes:
                raise GraphValidationError(
                    f"expected {n_nodes} node labels, got {len(labels)}"
                )
            if len(set(labels)) != len(labels):
                raise GraphValidationError("node labels must be unique")
        lo, hi = _canonical_endpoints(src, dst)
        if len(lo):
            keys = lo.astype(np.int64) * n_nodes + hi
            if len(np.unique(keys)) != len(keys):
                raise GraphValidationError(
                    "duplicate edges detected; use from_edges(..., merge=...) to combine them"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Hashable, Hashable, float]],
        nodes: Iterable[Hashable] | None = None,
        *,
        merge: str = "error",
    ) -> "UncertainGraph":
        """Build a graph from ``(u, v, probability)`` triples.

        Node labels are collected from ``nodes`` (if given) plus edge
        endpoints, in first-seen order.  ``merge`` selects the duplicate
        edge policy: ``"error"`` (default), ``"max"``, ``"noisy-or"`` or
        ``"first"``.  Every triple's probability is checked by
        :func:`checked_probability`, a dropped duplicate's too, and an
        error names the triple's 1-based position.
        """
        if merge not in _MERGE_POLICIES:
            raise GraphValidationError(f"unknown merge policy {merge!r}; expected one of {_MERGE_POLICIES}")
        label_index: dict[Hashable, int] = {}
        labels: list[Hashable] = []

        def index_for(label):
            idx = label_index.get(label)
            if idx is None:
                idx = len(labels)
                label_index[label] = idx
                labels.append(label)
            return idx

        if nodes is not None:
            for label in nodes:
                index_for(label)
        src_list, dst_list, prob_list = [], [], []
        for position, (u, v, p) in enumerate(edges, start=1):
            src_list.append(index_for(u))
            dst_list.append(index_for(v))
            prob_list.append(checked_probability(p, f"edge {position}"))
        src = np.asarray(src_list, dtype=np.intp)
        dst = np.asarray(dst_list, dtype=np.intp)
        prob = np.asarray(prob_list, dtype=np.float64)
        if np.any(src == dst):
            raise GraphValidationError("self loops are not allowed")
        lo, hi = _canonical_endpoints(src, dst)
        if len(lo):
            lo, hi, prob = _merge_duplicates(lo, hi, prob, merge)
        plain_labels = labels == list(range(len(labels)))
        return cls(
            len(labels),
            lo,
            hi,
            prob,
            node_labels=None if plain_labels else labels,
            validate=True,
        )

    @classmethod
    def from_networkx(cls, graph, prob_attr: str = "prob", *, default_prob: float | None = None, merge: str = "error") -> "UncertainGraph":
        """Build from an (undirected) networkx graph.

        Edge probabilities are read from edge attribute ``prob_attr``;
        ``default_prob`` fills missing attributes (otherwise missing
        attributes raise :class:`GraphValidationError`).
        """
        if graph.is_directed():
            raise GraphValidationError("uncertain graphs are undirected; pass graph.to_undirected()")

        def edge_iter():
            for u, v, data in graph.edges(data=True):
                p = data.get(prob_attr, default_prob)
                if p is None:
                    raise GraphValidationError(
                        f"edge ({u!r}, {v!r}) is missing attribute {prob_attr!r} and no default_prob was given"
                    )
                yield u, v, float(p)

        return cls.from_edges(edge_iter(), nodes=graph.nodes(), merge=merge)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def revision(self) -> int:
        """Monotone mutation counter (0 for a freshly built graph).

        Every :meth:`mutate` (and its :meth:`add_edge` /
        :meth:`remove_edge` / :meth:`update_edge` shorthands) returns a
        *new* graph whose revision is one higher; the original object is
        never modified, so readers holding it are undisturbed.
        """
        return self._revision

    @property
    def n_edges(self) -> int:
        """Number of (undirected) edges."""
        return len(self._prob)

    @property
    def edge_src(self) -> np.ndarray:
        """Source endpoint of each edge (``src < dst``); read-only view."""
        return self._src

    @property
    def edge_dst(self) -> np.ndarray:
        """Destination endpoint of each edge; read-only view."""
        return self._dst

    @property
    def edge_prob(self) -> np.ndarray:
        """Existence probability of each edge; read-only view."""
        return self._prob

    @property
    def node_labels(self) -> tuple:
        """Node labels (defaults to ``0..n-1`` when none were provided)."""
        if self._labels is None:
            return tuple(range(self._n))
        return self._labels

    def index_of(self, label) -> int:
        """Dense index of the node ``label`` names (``KeyError`` if none).

        The one node-token rule of every surface: :meth:`mutate`, the
        ``repro estimate``/``repro mutate`` CLI and the service's
        estimate and PATCH handlers.  A node label names its node, and
        so does an integer, or a string of one, equal to an integer
        label: ``3`` and ``"3"`` both name node 3.  Bools and
        non-integral numbers name no node, so ``True`` is not node 1
        and ``2.9`` is not node 2.

        Examples
        --------
        >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
        >>> g.index_of(2), g.index_of("2")
        (2, 2)
        >>> g.index_of(2.9)
        Traceback (most recent call last):
        ...
        KeyError: 'unknown node label 2.9'
        """
        if not isinstance(label, (bool, np.bool_)):
            if self._label_index is None:
                number = _integer_token(label)
                if number is not None and 0 <= number < self._n:
                    return number
            else:
                try:
                    index = self._label_index.get(label)
                except TypeError:  # unhashable: no label equals it
                    index = None
                if index is None and (number := _integer_token(label)) is not None:
                    index = self._label_index.get(number)
                if index is not None:
                    return index
        raise KeyError(f"unknown node label {label!r}")

    def node_indices(self, nodes=None) -> np.ndarray:
        """Dense node indices as a 1-D ``intp`` array, range-checked.

        ``None`` means every node.  Any index outside ``[0, n)`` raises
        :class:`IndexError`; negative indices are rejected, never
        wrapped.  The oracles validate every query through this.

        Examples
        --------
        >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
        >>> g.node_indices([2, 0]).tolist()
        [2, 0]
        >>> g.node_indices([-1])
        Traceback (most recent call last):
        ...
        IndexError: node index -1 out of range [0, 3)
        """
        if nodes is None:
            return np.arange(self._n, dtype=np.intp)
        indices = np.asarray(nodes, dtype=np.intp).reshape(-1)
        bad = indices[(indices < 0) | (indices >= self._n)]
        if len(bad):
            raise IndexError(f"node index {int(bad[0])} out of range [0, {self._n})")
        return indices

    def label_of(self, index: int):
        """Map a dense index back to its label."""
        if not 0 <= index < self._n:
            raise IndexError(f"node index {index} out of range [0, {self._n})")
        if self._labels is None:
            return index
        return self._labels[index]

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------

    def _ensure_adjacency(self) -> None:
        if self._indptr is not None:
            return
        n, m = self._n, self.n_edges
        edge_ids = np.arange(m, dtype=np.intp)
        ends = np.concatenate([self._src, self._dst])
        others = np.concatenate([self._dst, self._src])
        both_ids = np.concatenate([edge_ids, edge_ids])
        order = np.argsort(ends, kind="stable")
        counts = np.bincount(ends, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        self._indptr = indptr
        self._adj_nodes = others[order]
        self._adj_edges = both_ids[order]

    @property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR adjacency as ``(indptr, neighbor_nodes, neighbor_edge_ids)``."""
        self._ensure_adjacency()
        return self._indptr, self._adj_nodes, self._adj_edges

    @property
    def degree_layout(self) -> tuple[np.ndarray, ...]:
        """The arcs relabelled by degree: ``(position, indptr, heads, tails, edges)``.

        Nodes are laid out by descending degree, ties by index: node
        ``v`` sits at ``position[v]``.  Arc ``a`` runs from position
        ``tails[a]`` into position ``heads[a]`` along edge ``edges[a]``;
        arcs are sorted by head, so ``indptr`` delimits each position's
        incoming arcs as a CSR row, and the arcs of all nodes of one
        degree ``d`` form one contiguous ``(nodes x d)`` block.  Built
        once per graph object, like :attr:`adjacency`.

        Examples
        --------
        >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
        >>> [a.tolist() for a in g.degree_layout]
        [[1, 0, 2], [0, 2, 3, 4], [0, 0, 1, 2], [2, 1, 0, 0], [1, 0, 0, 1]]
        """
        if self._degree_layout is None:
            indptr, adj_nodes, adj_edges = self.adjacency
            degrees = np.diff(indptr)
            order = np.argsort(-degrees, kind="stable")
            position = np.empty(self._n, dtype=np.intp)
            position[order] = np.arange(self._n)
            arcs = np.argsort(position[np.repeat(np.arange(self._n), degrees)], kind="stable")
            layout_indptr = np.zeros(self._n + 1, dtype=np.intp)
            np.cumsum(degrees[order], out=layout_indptr[1:])
            heads = np.repeat(np.arange(self._n), degrees[order])
            self._degree_layout = (
                position, layout_indptr, heads, position[adj_nodes[arcs]], adj_edges[arcs]
            )
        return self._degree_layout

    def content_hash(self, prefix: bytes):
        """A SHA-256 state over ``prefix``, the node count and the edge arrays.

        The edge endpoints are hashed as ``int64`` and the probabilities
        as ``float64``, so the state depends on the graph's content
        alone.  Built once per graph object and prefix, like
        :attr:`degree_layout`; every call returns a fresh copy for the
        caller to extend (:func:`repro.sampling.store.pool_fingerprint`
        adds the seed).

        Examples
        --------
        >>> g = UncertainGraph.from_edges([(0, 1, 0.5)])
        >>> g.content_hash(b"x").hexdigest() == g.content_hash(b"x").hexdigest()
        True
        """
        memo = self._content_hash
        if memo is None or memo[0] != prefix:
            state = hashlib.sha256(prefix)
            state.update(str(self._n).encode())
            state.update(np.ascontiguousarray(self._src, dtype=np.int64).tobytes())
            state.update(np.ascontiguousarray(self._dst, dtype=np.int64).tobytes())
            state.update(np.ascontiguousarray(self._prob, dtype=np.float64).tobytes())
            self._content_hash = memo = (prefix, state)
        return memo[1].copy()

    def __getstate__(self):
        # Hash states do not pickle; a copy rebuilds its own on first use.
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_content_hash"] = None
        return None, state

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbor indices of ``node`` (order unspecified but stable)."""
        indptr, adj_nodes, _ = self.adjacency
        return adj_nodes[indptr[node]:indptr[node + 1]]

    def incident_edges(self, node: int) -> np.ndarray:
        """Edge ids incident to ``node``."""
        indptr, _, adj_edges = self.adjacency
        return adj_edges[indptr[node]:indptr[node + 1]]

    def degrees(self) -> np.ndarray:
        """Degree of every node."""
        indptr, _, _ = self.adjacency
        return np.diff(indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether an edge between indices ``u`` and ``v`` exists."""
        return self.edge_probability_between(u, v) is not None

    def edge_probability_between(self, u: int, v: int) -> float | None:
        """Probability of the edge ``(u, v)`` or ``None`` if absent."""
        if u == v:
            return None
        neigh = self.neighbors(u)
        hits = np.flatnonzero(neigh == v)
        if len(hits) == 0:
            return None
        edge_id = self.incident_edges(u)[hits[0]]
        return float(self._prob[edge_id])

    # ------------------------------------------------------------------
    # Derived graphs and global properties
    # ------------------------------------------------------------------

    def subgraph(self, node_indices) -> "UncertainGraph":
        """Induced subgraph on ``node_indices`` (labels are preserved)."""
        node_indices = np.asarray(node_indices, dtype=np.intp)
        if len(np.unique(node_indices)) != len(node_indices):
            raise GraphValidationError("subgraph node indices must be unique")
        if len(node_indices) and (node_indices.min() < 0 or node_indices.max() >= self._n):
            raise GraphValidationError("subgraph node indices out of range")
        remap = np.full(self._n, -1, dtype=np.intp)
        remap[node_indices] = np.arange(len(node_indices), dtype=np.intp)
        keep = (remap[self._src] >= 0) & (remap[self._dst] >= 0)
        labels = None
        if self._labels is not None:
            labels = [self._labels[i] for i in node_indices]
        return UncertainGraph(
            len(node_indices),
            remap[self._src[keep]],
            remap[self._dst[keep]],
            self._prob[keep],
            node_labels=labels,
            validate=False,
        )

    def connected_components(self) -> np.ndarray:
        """Component labels of the *deterministic* skeleton (all edges present)."""
        return connected_component_labels(self._n, self._src, self._dst)

    def largest_component(self) -> "UncertainGraph":
        """Induced subgraph on the largest deterministic connected component."""
        labels = self.connected_components()
        return self.subgraph(largest_component_indices(labels))

    def log_distance_weights(self) -> np.ndarray:
        """Per-edge weights ``-ln p(e)`` (the paper's gmm baseline metric)."""
        return -np.log(self._prob)

    def expected_edge_count(self) -> float:
        """Expected number of edges in a random possible world."""
        return float(np.sum(self._prob))

    # ------------------------------------------------------------------
    # Mutation (copy-on-write)
    # ------------------------------------------------------------------

    def mutate(self, *, add=(), remove=(), update=()) -> tuple["UncertainGraph", dict]:
        """Apply edge mutations, returning ``(new_graph, counts)``.

        Copy-on-write: ``self`` is never modified — callers holding the
        old revision keep reading consistent data.  The new graph's
        :attr:`revision` is one higher and its edges are stored in
        canonical sorted order (the order ``from_edges`` produces), so
        a mutated graph is indistinguishable from cold-building the
        same edge set — including its sampled-world pool fingerprint.
        ``counts`` is ``{"added", "removed", "updated"}``, the op counts
        ``repro mutate`` and the service's PATCH report.

        Parameters
        ----------
        add:
            ``(u, v, probability)`` triples of new edges (node labels).
        remove:
            ``(u, v)`` pairs of edges to delete.
        update:
            ``(u, v, probability)`` triples changing an existing edge's
            probability.

        Raises
        ------
        GraphValidationError
            Unknown labels, self loops, adding an existing edge,
            removing/updating a missing one, out-of-range
            probabilities, or two ops touching the same edge.

        Examples
        --------
        >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
        >>> g2, counts = g.mutate(update=[(0, 1, 0.9)], add=[(0, 2, 0.3)])
        >>> (g.revision, g2.revision, g.n_edges, g2.n_edges)
        (0, 1, 2, 3)
        >>> counts
        {'added': 1, 'removed': 0, 'updated': 1}
        """
        # Every label resolves before any op is checked, so an input
        # with several faults reports its unknown label first.
        resolve = self._mutation_index
        ops = [("add", resolve(u), resolve(v), p) for u, v, p in add]
        ops += [("remove", resolve(u), resolve(v), None) for u, v in remove]
        ops += [("update", resolve(u), resolve(v), p) for u, v, p in update]
        n, m = self._n, self.n_edges
        # One O(m) index pass up front; each op is then a dict lookup,
        # so a k-op mutation is O(m + k) rather than O(k * m) — it runs
        # under the service registry lock.
        edge_index = {
            (int(u), int(v)): i
            for i, (u, v) in enumerate(zip(self._src.tolist(), self._dst.tolist(), strict=True))
        }
        seen: set[tuple[int, int]] = set()
        removed_idx: list[int] = []
        updated: list[tuple[int, float]] = []
        added: list[tuple[int, int, float]] = []
        for kind, u, v, p in ops:
            if u == v:
                raise GraphValidationError(f"self loop at node {u}; uncertain graphs here are simple")
            lo, hi = (u, v) if u < v else (v, u)
            if (lo, hi) in seen:
                raise GraphValidationError(f"edge ({lo}, {hi}) appears in more than one mutation op")
            seen.add((lo, hi))
            index = edge_index.get((lo, hi))
            if kind == "add":
                if index is not None:
                    raise GraphValidationError(
                        f"edge ({lo}, {hi}) already exists; use update to change its probability"
                    )
                added.append((lo, hi, checked_probability(p, f"edge ({lo}, {hi})")))
            elif index is None:
                raise GraphValidationError(f"no edge ({lo}, {hi}) to {kind}")
            elif kind == "remove":
                removed_idx.append(index)
            else:
                updated.append((index, checked_probability(p, f"edge ({lo}, {hi})")))

        prob = self._prob.copy()
        for index, p in updated:
            prob[index] = p
        keep = np.ones(m, dtype=bool)
        if removed_idx:
            keep[removed_idx] = False
        add_src = np.asarray([a[0] for a in added], dtype=np.intp)
        add_dst = np.asarray([a[1] for a in added], dtype=np.intp)
        add_prob = np.asarray([a[2] for a in added], dtype=np.float64)
        src = np.concatenate([self._src[keep], add_src])
        dst = np.concatenate([self._dst[keep], add_dst])
        prob = np.concatenate([prob[keep], add_prob])
        # Canonical sorted edge order: a mutated graph is bit-identical
        # (arrays and pool fingerprint) to from_edges on the final edge
        # set, so delta-derived world pools land under the cold digest.
        order = np.argsort(src.astype(np.int64) * n + dst, kind="stable")
        graph = UncertainGraph(
            n,
            src[order],
            dst[order],
            prob[order],
            node_labels=self._labels,
            validate=False,
            revision=self._revision + 1,
        )
        counts = {"added": len(added), "removed": len(removed_idx), "updated": len(updated)}
        return graph, counts

    def add_edge(self, u, v, probability) -> tuple["UncertainGraph", dict]:
        """Shorthand for ``mutate(add=[(u, v, probability)])``."""
        return self.mutate(add=[(u, v, probability)])

    def remove_edge(self, u, v) -> tuple["UncertainGraph", dict]:
        """Shorthand for ``mutate(remove=[(u, v)])``."""
        return self.mutate(remove=[(u, v)])

    def update_edge(self, u, v, probability) -> tuple["UncertainGraph", dict]:
        """Shorthand for ``mutate(update=[(u, v, probability)])``."""
        return self.mutate(update=[(u, v, probability)])

    def _mutation_index(self, label) -> int:
        """:meth:`index_of` with mutation-flavored error reporting."""
        try:
            return self.index_of(label)
        except KeyError:
            raise GraphValidationError(f"cannot mutate: unknown node label {label!r}") from None

    def to_networkx(self, prob_attr: str = "prob"):
        """Export to a :class:`networkx.Graph` with probability attributes."""
        import networkx as nx

        graph = nx.Graph()
        labels = self.node_labels
        graph.add_nodes_from(labels)
        for u, v, p in zip(self._src.tolist(), self._dst.tolist(), self._prob.tolist(), strict=True):
            graph.add_edge(labels[u], labels[v], **{prob_attr: p})
        return graph

    def edge_list(self) -> list[tuple]:
        """Edges as ``(label_u, label_v, probability)`` triples."""
        labels = self.node_labels
        return [
            (labels[u], labels[v], float(p))
            for u, v, p in zip(self._src.tolist(), self._dst.tolist(), self._prob.tolist(), strict=True)
        ]

    def __repr__(self) -> str:
        return (
            f"UncertainGraph(n_nodes={self._n}, n_edges={self.n_edges}, "
            f"expected_edges={self.expected_edge_count():.1f})"
        )
