"""Reading and writing uncertain graphs as text edge lists.

The format (extension ``.uel``, "uncertain edge list") matches the one
used by the authors' public code: one edge per line,

    <node_u> <node_v> <probability>

with ``#`` comments and blank lines ignored.  Node tokens are kept as
strings (labels); a companion convention maps purely numeric files onto
integer labels.

Node-order directive
--------------------
Writers emit ``#% node-order: <label> <label> ...`` lines (plain
comments to any other parser) pinning the label -> dense-index mapping.
Without it, node numbering is the first-seen order of the edge list, so
rewriting a graph with a different edge order silently renumbers the
nodes — which changes every pool fingerprint and defeats delta
derivation (:mod:`repro.sampling.deltas`).  With the directive, a
``repro mutate`` output file re-parses with exactly the numbering the
mutation produced, keeping cached world pools derivable; it also
preserves nodes whose last edge was removed.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

from repro.exceptions import GraphValidationError
from repro.graph.uncertain_graph import UncertainGraph, checked_probability


#: Directive prefix for machine-readable metadata inside ``.uel``
#: comments (currently only ``node-order``).
_DIRECTIVE_PREFIX = "#%"

#: Labels per ``node-order`` directive line (directives repeat).
_NODE_ORDER_WRAP = 64


def _node_order(lines, *, numeric_labels: bool):
    """Labels pinned by ``#% node-order:`` directives (``None`` if absent)."""
    order: list = []
    for raw in lines:
        line = raw.strip()
        if not line.startswith(_DIRECTIVE_PREFIX):
            continue
        body = line[len(_DIRECTIVE_PREFIX):].strip()
        if not body.startswith("node-order:"):
            continue
        tokens = body[len("node-order:"):].split()
        if numeric_labels:
            try:
                order.extend(int(token) for token in tokens)
            except ValueError:
                raise GraphValidationError(
                    "node-order directive has non-integer labels "
                    "(pass numeric_labels=False for string labels)"
                ) from None
        else:
            order.extend(tokens)
    return order or None


def _parse_lines(lines: Iterable[str], *, numeric_labels: bool):
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphValidationError(
                f"line {lineno}: expected 'u v probability', got {raw.rstrip()!r}"
            )
        u, v, p_text = parts
        # Validate here, with the line number, instead of letting a bad
        # value (NaN included) reach the sampler as a malformed
        # Bernoulli parameter.
        p = checked_probability(p_text, f"line {lineno}")
        if numeric_labels:
            try:
                yield int(u), int(v), p
                continue
            except ValueError:
                raise GraphValidationError(
                    f"line {lineno}: node token {u!r} or {v!r} is not an integer "
                    "(pass numeric_labels=False for string labels)"
                ) from None
        yield u, v, p


def read_uncertain_graph(
    path: str | os.PathLike,
    *,
    numeric_labels: bool = False,
    merge: str = "error",
) -> UncertainGraph:
    """Read an uncertain graph from a ``.uel`` text file.

    Parameters
    ----------
    path:
        File to read.
    numeric_labels:
        Parse node tokens as integers (labels become ints).
    merge:
        Duplicate-edge policy forwarded to
        :meth:`UncertainGraph.from_edges`.

    Raises
    ------
    GraphValidationError
        For malformed lines and for probabilities outside ``[0, 1]``
        (NaN included) or exactly 0, each reported with its line number
        — bad values never silently reach the world sampler.
    """
    # Two streaming passes: the node-order directive must be known
    # before ``from_edges`` starts consuming edges, but neither pass
    # holds the file in memory.
    with open(path, "r", encoding="utf-8") as handle:
        order = _node_order(handle, numeric_labels=numeric_labels)
    with open(path, "r", encoding="utf-8") as handle:
        return UncertainGraph.from_edges(
            _parse_lines(handle, numeric_labels=numeric_labels),
            nodes=order,
            merge=merge,
        )


def parse_uncertain_graph_text(
    text: str,
    *,
    numeric_labels: bool = False,
    merge: str = "error",
) -> UncertainGraph:
    """Parse ``.uel``-format text into an :class:`UncertainGraph`.

    Same grammar and validation as :func:`read_uncertain_graph` (line
    numbers in error messages count from the first line of ``text``);
    used by the clustering service for graph uploads, where the edge
    list arrives in a request body rather than a file.

    Examples
    --------
    >>> parse_uncertain_graph_text("a b 0.5\\nb c 0.25\\n").n_edges
    2
    """
    lines = text.splitlines()
    return UncertainGraph.from_edges(
        _parse_lines(lines, numeric_labels=numeric_labels),
        nodes=_node_order(lines, numeric_labels=numeric_labels),
        merge=merge,
    )


def write_uncertain_graph(graph: UncertainGraph, path: str | os.PathLike, *, header: str | None = None) -> None:
    """Write ``graph`` to ``path`` in ``.uel`` format.

    Emits ``#% node-order`` directives pinning the node numbering, so
    re-reading the file reproduces the graph's exact dense indices (and
    therefore its pool fingerprints) regardless of edge order.
    """
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# nodes={graph.n_nodes} edges={graph.n_edges}\n")
        labels = [str(label) for label in graph.node_labels]
        for start in range(0, len(labels), _NODE_ORDER_WRAP):
            chunk = " ".join(labels[start:start + _NODE_ORDER_WRAP])
            handle.write(f"{_DIRECTIVE_PREFIX} node-order: {chunk}\n")
        for u, v, p in graph.edge_list():
            handle.write(f"{u} {v} {p:.10g}\n")
