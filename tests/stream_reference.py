"""Scalar per-edge streams: the reference the vectorized sampler is pinned against.

Builds each edge's stream the obvious way — a ``SeedSequence`` with the
edge's spawn key, a ``PCG64`` from it, one ``advance`` jump and one
``Generator.random`` call — exactly as the sampler drew worlds before
:func:`repro.sampling.parallel.sample_mask_rows` computed all streams at
once in ``numpy``.  It shares no arithmetic with the kernel, so the
suites compare the kernel's masks against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.parallel import EDGE_STREAM_TAG


def edge_seed_sequence(root: np.random.SeedSequence, u: int, v: int) -> np.random.SeedSequence:
    """The mask stream of edge ``(u, v)`` under root seed ``root``.

    Streams are keyed by the edge's canonical endpoints (``u < v`` is
    enforced here).

    Examples
    --------
    >>> root = np.random.SeedSequence(7)
    >>> edge_seed_sequence(root, 2, 5).spawn_key == (EDGE_STREAM_TAG, 2, 5)
    True
    >>> edge_seed_sequence(root, 5, 2).spawn_key == (EDGE_STREAM_TAG, 2, 5)
    True
    """
    u, v = int(u), int(v)
    if u > v:
        u, v = v, u
    return np.random.SeedSequence(
        entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (EDGE_STREAM_TAG, u, v)
    )


def edge_stream_state(root: np.random.SeedSequence, u: int, v: int) -> dict:
    """Position-0 PCG64 state of edge ``(u, v)``'s stream."""
    return np.random.PCG64(edge_seed_sequence(root, u, v)).state


def sample_edge_column(
    root: np.random.SeedSequence,
    u: int,
    v: int,
    probability: float,
    start: int,
    count: int,
    *,
    state: dict | None = None,
) -> np.ndarray:
    """Presence bits of edge ``(u, v)`` in worlds ``[start, start + count)``.

    Each world consumes one uniform double from the edge's stream, so
    ``start`` is one O(1) ``advance`` jump.  ``state`` optionally
    supplies the edge's position-0 PCG64 state (:func:`edge_stream_state`).

    Examples
    --------
    >>> root = np.random.SeedSequence(3)
    >>> whole = sample_edge_column(root, 0, 1, 0.5, 0, 20)
    >>> parts = [sample_edge_column(root, 0, 1, 0.5, 0, 8),
    ...          sample_edge_column(root, 0, 1, 0.5, 8, 12)]
    >>> bool(np.array_equal(whole, np.concatenate(parts)))
    True
    """
    if start < 0 or count < 0:
        raise ValueError(f"start and count must be non-negative, got {start}, {count}")
    bit_generator = np.random.PCG64(0)
    bit_generator.state = state if state is not None else edge_stream_state(root, u, v)
    if start:
        bit_generator.advance(start)
    return np.random.Generator(bit_generator).random(count) < float(probability)


def reference_mask_rows(edge_src, edge_dst, edge_prob, root, start: int, rows: int) -> np.ndarray:
    """``(rows, m)`` masks assembled column by column from :func:`sample_edge_column`."""
    columns = [
        sample_edge_column(root, u, v, p, start, rows)
        for u, v, p in zip(edge_src, edge_dst, np.asarray(edge_prob, dtype=np.float64), strict=True)
    ]
    return np.stack(columns, axis=1) if columns else np.zeros((rows, 0), dtype=bool)
