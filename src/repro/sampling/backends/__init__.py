"""Pluggable world-labeling backends for the Monte Carlo oracle.

A backend turns a chunk of sampled edge masks into per-world connected
component labels (see :mod:`repro.sampling.backends.base` for the
canonical labeling contract).  Two implementations ship:

``"scipy"``
    :class:`ScipyWorldBackend` — one block-diagonal sparse matrix and a
    single C-level ``connected_components`` call (the seed behavior).
``"unionfind"``
    :class:`UnionFindWorldBackend` — whole-chunk vectorized union-find
    with path halving; never builds the ``(r*n, r*n)`` sparse matrix,
    roughly halving the peak per-chunk memory of ``ensure_samples``.

Selection is by name, by instance (any object satisfying
:class:`WorldBackend` — custom or instrumented backends plug straight
in), or ``"auto"``/``None``, which picks by graph size using
:data:`AUTO_NODE_THRESHOLD`.
"""

from __future__ import annotations

from repro.exceptions import OracleError
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.backends.base import (
    WorldBackend,
    block_edge_endpoints,
    validate_masks,
)
from repro.sampling.backends.scipy_backend import ScipyWorldBackend
from repro.sampling.backends.unionfind import UnionFindWorldBackend

#: Name -> factory for the built-in backends.
BACKENDS = {
    ScipyWorldBackend.name: ScipyWorldBackend,
    UnionFindWorldBackend.name: UnionFindWorldBackend,
}

#: Names accepted wherever a ``backend=`` option is exposed.
BACKEND_NAMES = ("auto", *sorted(BACKENDS))

#: ``"auto"`` picks the union-find backend at or above this many nodes.
#: Below it the graphs are small enough that the sparse-matrix detour is
#: harmless and the scipy path has the shortest constant factor
#: (measured in ``benchmarks/test_bench_backends.py``).
AUTO_NODE_THRESHOLD = 512


def resolve_backend(spec=None, graph: UncertainGraph | None = None) -> WorldBackend:
    """Resolve a backend spec into a :class:`WorldBackend` instance.

    Parameters
    ----------
    spec:
        ``None`` or ``"auto"`` for graph-size auto-selection, a name
        from :data:`BACKENDS`, or a ready :class:`WorldBackend`
        instance (returned as-is).
    graph:
        The graph the backend will label; required only for
        auto-selection.

    Examples
    --------
    >>> resolve_backend("scipy").name
    'scipy'
    >>> resolve_backend("unionfind").name
    'unionfind'
    >>> small = UncertainGraph.from_edges([(0, 1, 0.5)])
    >>> resolve_backend("auto", small).name
    'scipy'
    """
    if spec is None or spec == "auto":
        if graph is not None and graph.n_nodes >= AUTO_NODE_THRESHOLD:
            return UnionFindWorldBackend()
        return ScipyWorldBackend()
    if isinstance(spec, str):
        try:
            return BACKENDS[spec]()
        except KeyError:
            raise OracleError(
                f"unknown world backend {spec!r}; expected one of {BACKEND_NAMES}"
            ) from None
    if isinstance(spec, WorldBackend):
        return spec
    raise OracleError(
        f"backend must be a name from {BACKEND_NAMES} or a WorldBackend instance, "
        f"got {type(spec).__name__}"
    )


__all__ = [
    "AUTO_NODE_THRESHOLD",
    "BACKENDS",
    "BACKEND_NAMES",
    "ScipyWorldBackend",
    "UnionFindWorldBackend",
    "WorldBackend",
    "block_edge_endpoints",
    "resolve_backend",
    "validate_masks",
]
