"""Generic synthetic uncertain graphs.

Building blocks used by tests, examples and the domain-specific
generators in :mod:`repro.datasets.ppi` and
:mod:`repro.datasets.collaboration`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphValidationError
from repro.graph.uncertain_graph import UncertainGraph
from repro.utils.rng import ensure_rng


def _dedupe_pairs(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalize and deduplicate undirected pairs, dropping self loops."""
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    keys = lo.astype(np.int64) * n + hi
    unique_keys = np.unique(keys)
    return (unique_keys // n).astype(np.intp), (unique_keys % n).astype(np.intp)


def sample_distinct_pairs(n: int, count: int, rng, *, exclude_keys=None) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` distinct node pairs uniformly (no self loops).

    ``exclude_keys`` is an optional sorted int64 array of canonical pair
    keys (``lo * n + hi``) to avoid.  Raises when the request cannot be
    met.
    """
    max_pairs = n * (n - 1) // 2
    excluded = 0 if exclude_keys is None else len(exclude_keys)
    if count > max_pairs - excluded:
        raise GraphValidationError(
            f"cannot sample {count} distinct pairs from {max_pairs - excluded} available"
        )
    chosen: np.ndarray = np.empty(0, dtype=np.int64)
    while len(chosen) < count:
        need = count - len(chosen)
        src = rng.integers(0, n, size=2 * need + 16)
        dst = rng.integers(0, n, size=2 * need + 16)
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        keep = lo != hi
        keys = lo[keep].astype(np.int64) * n + hi[keep]
        if exclude_keys is not None and len(exclude_keys):
            keys = keys[~np.isin(keys, exclude_keys)]
        chosen = np.unique(np.concatenate([chosen, keys]))
        if len(chosen) > count:
            chosen = rng.permutation(chosen)[:count]
            chosen = np.sort(chosen)
    return (chosen // n).astype(np.intp), (chosen % n).astype(np.intp)


def gnm_uncertain(
    n: int,
    m: int,
    *,
    prob_low: float = 0.1,
    prob_high: float = 1.0,
    seed=None,
) -> UncertainGraph:
    """Uniform random graph with ``m`` edges and U[prob_low, prob_high] probabilities."""
    if n < 2:
        raise GraphValidationError(f"n must be >= 2, got {n}")
    rng = ensure_rng(seed)
    src, dst = sample_distinct_pairs(n, m, rng)
    prob = rng.uniform(prob_low, prob_high, size=m)
    prob = np.clip(prob, np.nextafter(0.0, 1.0), 1.0)
    return UncertainGraph(n, src, dst, prob, validate=False)


def planted_partition(
    n: int,
    k: int,
    *,
    intra_degree: float = 6.0,
    inter_degree: float = 1.0,
    intra_prob: tuple[float, float] = (0.6, 0.95),
    inter_prob: tuple[float, float] = (0.05, 0.3),
    seed=None,
) -> tuple[UncertainGraph, np.ndarray]:
    """Planted-partition uncertain graph with ``k`` equal communities.

    Nodes are split into ``k`` groups; each node receives on average
    ``intra_degree`` within-group edge endpoints and ``inter_degree``
    cross-group ones.  Within-group edges draw probabilities from
    ``intra_prob`` and cross edges from ``inter_prob`` (uniform ranges).
    Every community is additionally wired with a random spanning path so
    it is connected in the skeleton.

    Returns
    -------
    (graph, membership)
        ``membership[u]`` is the planted community of node ``u``.
    """
    if k < 1 or n < 2 * k:
        raise GraphValidationError(f"need n >= 2k, got n={n}, k={k}")
    rng = ensure_rng(seed)
    membership = np.repeat(np.arange(k), int(np.ceil(n / k)))[:n]
    rng.shuffle(membership)

    intra_src_parts: list[np.ndarray] = []
    intra_dst_parts: list[np.ndarray] = []
    for community in range(k):
        nodes = np.flatnonzero(membership == community)
        order = rng.permutation(nodes)
        intra_src_parts.append(order[:-1])  # spanning path
        intra_dst_parts.append(order[1:])
        extra = int(round(intra_degree * len(nodes) / 2))
        if extra > 0:
            s = rng.choice(nodes, size=extra)
            t = rng.choice(nodes, size=extra)
            intra_src_parts.append(s)
            intra_dst_parts.append(t)
    intra_src = np.concatenate(intra_src_parts)
    intra_dst = np.concatenate(intra_dst_parts)
    intra_src, intra_dst = _dedupe_pairs(intra_src, intra_dst, n)

    n_inter = int(round(inter_degree * n / 2))
    inter_src = rng.integers(0, n, size=n_inter)
    inter_dst = rng.integers(0, n, size=n_inter)
    inter_src, inter_dst = _dedupe_pairs(inter_src, inter_dst, n)
    cross = membership[inter_src] != membership[inter_dst]
    inter_src, inter_dst = inter_src[cross], inter_dst[cross]

    # Drop inter pairs that duplicate intra pairs.
    intra_keys = intra_src.astype(np.int64) * n + intra_dst
    inter_keys = inter_src.astype(np.int64) * n + inter_dst
    fresh = ~np.isin(inter_keys, intra_keys)
    inter_src, inter_dst = inter_src[fresh], inter_dst[fresh]

    src = np.concatenate([intra_src, inter_src])
    dst = np.concatenate([intra_dst, inter_dst])
    prob = np.concatenate(
        [
            rng.uniform(*intra_prob, size=len(intra_src)),
            rng.uniform(*inter_prob, size=len(inter_src)),
        ]
    )
    prob = np.clip(prob, np.nextafter(0.0, 1.0), 1.0)
    graph = UncertainGraph(n, src, dst, prob, validate=False)
    return graph, membership
