"""The world labeler of the Monte Carlo oracle.

:class:`UnionFindWorldBackend` turns a chunk of sampled edge masks into
per-world canonical component labels with a whole-chunk vectorized
union-find (see :mod:`repro.sampling.backends.unionfind` for the
labeling contract).  It is the only labeler: labels are canonical, so
no choice of labeler could change a result.
"""

from __future__ import annotations

from repro.sampling.backends.unionfind import UnionFindWorldBackend

#: Name -> class of the world labeler (one entry; instrumentation wraps
#: the methods of every class listed here).
BACKENDS = {UnionFindWorldBackend.name: UnionFindWorldBackend}

__all__ = ["BACKENDS", "UnionFindWorldBackend"]
