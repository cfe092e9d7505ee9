"""World-sampling engine with per-edge random streams.

The Monte Carlo pipelines spend nearly all their time drawing and
labeling possible worlds (paper Section 4).  This module supplies the
one path from a graph to labeled worlds: draw a chunk's edge masks
from per-edge streams (:func:`sample_mask_rows`), label them with one
:class:`~repro.sampling.backends.UnionFindWorldBackend`
``component_labels`` call, and pack the masks
for the store (:func:`~repro.sampling.store.pack_mask_columns`).  It
keeps reproducibility and *incremental resampling* at once.

Per-edge random streams
-----------------------
Every edge ``(u, v)`` (canonical ``u < v``) owns its own ``numpy``
stream, defined by explicit spawn key::

    PCG64(SeedSequence(entropy, spawn_key=root.spawn_key + (EDGE_STREAM_TAG, u, v)))

World ``i``'s presence bit for the edge is ``random() < p`` on the
stream's ``i``-th 64-bit output, i.e. the stream advanced ``i`` draws.
Consequences:

* mask bit ``(i, e)`` depends only on the root seed, the edge's
  endpoints and ``i`` — never on the chunking pattern of
  ``ensure_samples`` calls, never on the edge's *column position*, and
  never on any other edge (pinned by ``tests/test_parallel.py``);
* mutating one edge's probability (or adding/removing an edge) changes
  only that edge's column: :mod:`repro.sampling.deltas` regenerates the
  touched columns from the same streams and gets bits identical to
  cold-sampling the mutated graph — the determinism contract behind
  delta-aware world invalidation (pinned by ``tests/test_deltas.py``).

The vectorized kernel
---------------------
:func:`sample_mask_rows` never builds a ``SeedSequence`` or a
``PCG64`` object.  It computes the same streams for all ``m`` edges at
once in ``numpy``:

1. *Seed words.*  SeedSequence's uint32 ``hashmix``/``mix`` pool
   arithmetic.  The root's entropy and spawn key (plus the tag) are
   shared by every edge and mixed once as Python ints; only the last
   two words, ``u`` and ``v``, are vectors.  ``generate_state`` then
   yields each edge's PCG64 ``(seed, sequence)`` pair.
2. *PCG64 seeding* on ``(hi, lo)`` ``uint64`` limbs of the 128-bit
   state: ``inc = sequence << 1 | 1``, ``state = step(step(0) + seed)``.
3. *Jump.*  ``k`` LCG steps are the affine map ``x -> MULT^k x + (sum
   of MULT^i, i < k) * inc``; its two 128-bit constants are shared by
   every stream and computed once with Python ints.  World ``w``'s
   state is that map for ``k = w + 2`` (the two seeding steps
   included) applied to ``seed + inc``.
4. *Draw.*  Each world's bit is PCG64's XSL-RR output of its state,
   and ``random() < p`` is exactly ``(output >> 11) < ceil(p * 2**53)``.

The draw loop interleaves the worlds over ``lanes`` copies of every
stream — lane ``l`` draws worlds ``start + l``, ``start + l + lanes``,
… and jumps ``lanes`` steps per draw — so each ``numpy`` call covers
up to ``_LANE_STREAMS`` states whatever the edge count.  Nothing is
memoized: a one-world call on 2812 edges, state derivation included,
takes under a millisecond.  ``tests/stream_reference.py`` keeps the
scalar ``SeedSequence``/``PCG64`` construction the kernel is pinned
against, bit for bit.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.graph.uncertain_graph import UncertainGraph
from repro.sampling.backends import UnionFindWorldBackend
from repro.sampling.store import pack_mask_columns
from repro.utils.rng import ensure_seed_sequence

_SAMPLER_CHUNKS = telemetry.get_registry().counter(
    "repro_sampler_chunks_total", "World chunks produced."
)
_SAMPLER_WORLDS = telemetry.get_registry().counter(
    "repro_sampler_worlds_total", "Worlds drawn and labeled."
)
_SAMPLER_SAMPLE_SECONDS = telemetry.get_registry().counter(
    "repro_sampler_sample_seconds_total", "Wall seconds drawing edge masks."
)
_SAMPLER_LABEL_SECONDS = telemetry.get_registry().counter(
    "repro_sampler_label_seconds_total", "Wall seconds labeling components."
)
_SAMPLER_CHUNK_SECONDS = telemetry.get_registry().histogram(
    "repro_sampler_chunk_seconds", "Per-chunk wall time (sample + label)."
)

__all__ = [
    "EDGE_STREAM_TAG",
    "ParallelSampler",
    "ensure_seed_sequence",
    "sample_mask_rows",
]

#: Spawn-key tag separating per-edge mask streams from any other
#: SeedSequence children a caller might derive from the same root.
EDGE_STREAM_TAG = 0x65646765  # ascii "edge", fits a uint32 spawn-key word

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
#: Stream states one numpy call of the draw loop aims to cover, and the
#: most lanes (interleaved world sequences per stream) it uses for that:
#: each lane costs one Python-int jump in the setup.
_LANE_STREAMS = 16384
_MAX_LANES = 256


def _uint32_words(x) -> list[int]:
    """``x`` as the uint32 words SeedSequence coerces it to.

    An integer becomes its little-endian 32-bit words (``0`` is one
    word); a sequence or array concatenates its elements' words.
    """
    if isinstance(x, (int, np.integer)):
        n = int(x)
        words = [n & _MASK32]
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
        return words
    return [word for item in x for word in _uint32_words(item)]


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """SeedSequence's ``hashmix`` of a uint32 word, and the next constant."""
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    """SeedSequence's ``mix`` of Python ints or uint32 arrays."""
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _hash_consts(hash_const: int, mult: int, count: int) -> np.ndarray:
    """``hash_const`` and its next ``count`` products with ``mult``.

    Consecutive hash calls XOR with entry ``i`` and multiply by entry
    ``i + 1``; the result is a ``(count + 1, 1)`` uint32 column.
    """
    consts = [hash_const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _edge_seed_words(root: np.random.SeedSequence, lo: np.ndarray, hi: np.ndarray):
    """``generate_state(4, np.uint64)`` of every edge's SeedSequence.

    Returns a ``(4, m)`` uint64 array whose rows are the words PCG64
    seeds from — ``seed_hi, seed_lo, seq_hi, seq_lo`` — for the edges
    with canonical endpoints ``lo <= hi`` (each below ``2**32``, so one
    spawn-key word apiece).  Everything before the endpoint words is
    shared by every edge and mixed once; only ``lo`` and ``hi`` are
    vectors.
    """
    run = _uint32_words(root.entropy)
    # A non-empty spawn key pads the run entropy to the pool size.
    run += [0] * (_POOL_SIZE - len(run))
    words = run + _uint32_words(root.spawn_key) + [EDGE_STREAM_TAG]
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        mixed, hash_const = _hashmix(word, hash_const)
        pool.append(mixed)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], mixed)
    # Every later word is mixed into all four pool words, so its four
    # hashmix calls differ only in their constants.
    pool = np.array(pool, dtype=np.uint32)[:, None]
    for word in words[_POOL_SIZE:] + [lo.astype(np.uint32), hi.astype(np.uint32)]:
        consts = _hash_consts(hash_const, _MULT_A, _POOL_SIZE)
        hash_const = int(consts[-1, 0])
        mixed = (word ^ consts[:-1]) * consts[1:]
        pool = _mix(pool, mixed ^ (mixed >> 16))
    # generate_state cycles the pool for its 8 uint32 words.
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = (np.concatenate([pool, pool]) ^ consts[:-1]) * consts[1:]
    state = (state ^ (state >> 16)).astype(np.uint64)
    return state[0::2] | (state[1::2] << 32)


def _limbs(values) -> tuple[np.ndarray, np.ndarray]:
    """128-bit Python ints as ``(hi, lo)`` uint64 limb arrays."""
    return (np.array([x >> 64 for x in values], dtype=np.uint64),
            np.array([x & _MASK64 for x in values], dtype=np.uint64))


def _scratch(like: np.ndarray) -> tuple:
    """Scratch arrays for :func:`_mul_add` and the draw loop."""
    return tuple(np.empty_like(like) for _ in range(4)) + (np.empty(like.shape, dtype=bool),)


def _mul_add(hi, lo, b_hi, b_lo, c_hi, c_lo, scratch=None) -> None:
    """``(hi, lo) <- (hi, lo) * b + c`` mod ``2**128``, in place.

    128-bit values live as ``(hi, lo)`` uint64 limbs; ``b`` and ``c``
    broadcast against the state.  numpy's wrapping uint64 multiply gives
    every term of the product except the high half of ``lo * b_lo``,
    which is assembled from 32-bit halves.
    """
    a0, a1, t, u, carry = _scratch(lo) if scratch is None else scratch
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    np.bitwise_and(lo, _MASK32, out=a0)
    np.right_shift(lo, 32, out=a1)
    hi *= b_lo
    np.multiply(lo, b_hi, out=t)
    hi += t
    hi += c_hi
    lo *= b_lo
    lo += c_lo
    np.less(lo, c_lo, out=carry)
    hi += carry
    # High half of (a1 * 2**32 + a0) * (b1 * 2**32 + b0).
    np.multiply(a0, b0, out=t)
    t >>= 32
    np.multiply(a1, b0, out=u)
    t += u
    a0 *= b1
    np.bitwise_and(t, _MASK32, out=u)
    a0 += u
    a0 >>= 32
    hi += a0
    t >>= 32
    hi += t
    a1 *= b1
    hi += a1


def _jump(steps: int) -> tuple[int, int]:
    """``(MULT**steps, sum(MULT**i for i < steps))`` mod ``2**128``.

    ``steps`` PCG64 steps map state ``x`` to ``mult * x + plus * inc``.
    """
    mult, plus = 1, 0
    cur_mult, cur_plus = _PCG_MULT, 1
    while steps:
        if steps & 1:
            mult = mult * cur_mult & _MASK128
            plus = (plus * cur_mult + cur_plus) & _MASK128
        cur_plus = (cur_mult + 1) * cur_plus & _MASK128
        cur_mult = cur_mult * cur_mult & _MASK128
        steps >>= 1
    return mult, plus


def _validated_edges(edge_src, edge_dst, edge_prob):
    """Canonical ``(lo, hi)`` endpoints and float64 probabilities."""
    edge_src, edge_dst = np.asarray(edge_src), np.asarray(edge_dst)
    edge_prob = np.asarray(edge_prob, dtype=np.float64)
    if not edge_src.ndim == edge_dst.ndim == edge_prob.ndim == 1:
        raise ValueError(
            "edge_src, edge_dst and edge_prob must be 1-D, got shapes "
            f"{edge_src.shape}, {edge_dst.shape} and {edge_prob.shape}"
        )
    if not len(edge_src) == len(edge_dst) == len(edge_prob):
        raise ValueError(
            "edge_src, edge_dst and edge_prob must have equal lengths, got "
            f"{len(edge_src)}, {len(edge_dst)} and {len(edge_prob)}"
        )
    lo, hi = np.minimum(edge_src, edge_dst), np.maximum(edge_src, edge_dst)
    if len(lo) and (lo.min() < 0 or hi.max() > _MASK32):
        raise ValueError(
            f"edge endpoints must lie in [0, 2**32), got [{lo.min()}, {hi.max()}]"
        )
    return lo, hi, edge_prob


def sample_mask_rows(
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    edge_prob: np.ndarray,
    root: np.random.SeedSequence,
    start: int,
    rows: int,
) -> np.ndarray:
    """Edge masks of pool worlds ``[start, start + rows)``.

    Returns a ``(rows, m)`` boolean matrix whose entry ``(i, e)`` is
    edge ``e``'s ``random() < edge_prob[e]`` at position ``start + i``
    of its stream (see the module docstring).  Each column is a pure
    function of ``(root, edge_src[e], edge_dst[e], edge_prob[e], start,
    rows)``, so split windows equal whole ones.

    Examples
    --------
    >>> src, dst, prob = np.array([0, 1]), np.array([1, 2]), np.array([0.5, 0.5])
    >>> root = np.random.SeedSequence(1)
    >>> masks = sample_mask_rows(src, dst, prob, root, 0, 20)
    >>> masks.shape
    (20, 2)
    >>> parts = [sample_mask_rows(src, dst, prob, root, 0, 8),
    ...          sample_mask_rows(src, dst, prob, root, 8, 12)]
    >>> bool(np.array_equal(masks, np.concatenate(parts)))
    True
    """
    if start < 0 or rows < 0:
        raise ValueError(f"start and rows must be non-negative, got {start}, {rows}")
    lo, hi, edge_prob = _validated_edges(edge_src, edge_dst, edge_prob)
    m = len(edge_prob)
    if rows == 0 or m == 0:
        return np.zeros((rows, m), dtype=bool)
    seed_hi, seed_lo, seq_hi, seq_lo = _edge_seed_words(root, lo, hi)
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    # Lane l starts at world w = start + l, whose state is
    # mult * (seed + inc) + plus * inc for (mult, plus) = _jump(w + 2).
    lanes = min(rows, -(-_LANE_STREAMS // m), _MAX_LANES)
    seed_coefs, inc_coefs = [], []
    mult, plus = _jump(int(start) + 2)
    for _ in range(lanes):
        seed_coefs.append(mult)
        inc_coefs.append((mult + plus) & _MASK128)
        mult, plus = mult * _PCG_MULT & _MASK128, (plus * _PCG_MULT + 1) & _MASK128
    state_hi, state_lo = (np.repeat(limb[None, :], lanes, axis=0) for limb in (seed_hi, seed_lo))
    shift_hi, shift_lo = (np.repeat(limb[None, :], lanes, axis=0) for limb in (inc_hi, inc_lo))
    _mul_add(shift_hi, shift_lo, *(limb[:, None] for limb in _limbs(inc_coefs)), 0, 0)
    _mul_add(state_hi, state_lo, *(limb[:, None] for limb in _limbs(seed_coefs)), shift_hi, shift_lo)
    # Each draw then moves every lane `lanes` steps on.
    mult, plus = _jump(lanes)
    mult_hi, mult_lo = _limbs([mult])
    shift_hi, shift_lo = inc_hi.copy(), inc_lo.copy()
    _mul_add(shift_hi, shift_lo, *_limbs([plus]), 0, 0)
    # random() < p  <=>  (output >> 11) * 2**-53 < p  <=>  (output >> 11) < ceil(p * 2**53)
    threshold = np.where(
        edge_prob > 0, np.ceil(np.minimum(edge_prob, 1.0) * 2.0**53), 0.0
    ).astype(np.uint64)
    steps = -(-rows // lanes)
    masks = np.empty((steps * lanes, m), dtype=bool)
    blocks = masks.reshape(steps, lanes, m)
    scratch = _scratch(state_lo)
    x, rot, rotated = scratch[:3]
    for step in range(steps):
        if step:
            _mul_add(state_hi, state_lo, mult_hi, mult_lo, shift_hi, shift_lo, scratch)
        # PCG64's XSL-RR output: (hi ^ lo) rotated right by hi >> 58.
        np.bitwise_xor(state_hi, state_lo, out=x)
        np.right_shift(state_hi, 58, out=rot)
        np.right_shift(x, rot, out=rotated)
        np.subtract(64, rot, out=rot)
        rot &= 63
        x <<= rot
        x |= rotated
        x >>= 11
        np.less(x, threshold, out=blocks[step])
    return masks[:rows]


class ParallelSampler:
    """Draws and labels chunks of worlds.

    Parameters
    ----------
    graph:
        The uncertain graph being sampled.

    Examples
    --------
    >>> g = UncertainGraph.from_edges([(0, 1, 0.5), (1, 2, 0.5)])
    >>> sampler = ParallelSampler(g)
    >>> masks, labels = sampler.sample_chunk(np.random.SeedSequence(3), 0, 10)
    >>> masks.shape, labels.shape
    ((10, 2), (10, 3))
    """

    def __init__(self, graph: UncertainGraph):
        self._graph = graph
        self._labeler = UnionFindWorldBackend()
        #: Cumulative phase wall time of this sampler instance, the
        #: source of the per-job ``timings`` breakdown (the global
        #: telemetry counters aggregate the same numbers fleet-wide).
        self.sample_seconds = 0.0
        self.label_seconds = 0.0
        self.chunks_produced = 0

    def sample_chunk(
        self, root: np.random.SeedSequence, start: int, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Masks and labels of pool worlds ``[start, start + count)``.

        Returns ``(masks, labels)`` of shapes ``(count, m)`` and
        ``(count, n)``.  The result is a pure function of
        ``(graph, root, start, count)`` — identical under any chunking
        pattern.
        """
        started = time.perf_counter()
        masks = sample_mask_rows(
            self._graph.edge_src,
            self._graph.edge_dst,
            self._graph.edge_prob,
            root,
            start,
            count,
        )
        sampled_at = time.perf_counter()
        # One labeling call per chunk (through the instance, so an
        # instrumented labeler class observes exactly the
        # progressive-sampling growth steps).
        labels = self._labeler.component_labels(self._graph, masks)
        sample_s = sampled_at - started
        label_s = time.perf_counter() - sampled_at
        self.sample_seconds += sample_s
        self.label_seconds += label_s
        self.chunks_produced += 1
        _SAMPLER_CHUNKS.inc()
        _SAMPLER_WORLDS.inc(count)
        _SAMPLER_SAMPLE_SECONDS.inc(sample_s)
        _SAMPLER_LABEL_SECONDS.inc(label_s)
        _SAMPLER_CHUNK_SECONDS.observe(sample_s + label_s)
        return masks, labels

    def sample_chunk_packed(
        self, root: np.random.SeedSequence, start: int, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Packed columns and labels of pool worlds ``[start, start + count)``.

        :meth:`sample_chunk` plus one pack: ``packed_cols`` is the
        store's edge-major ``(m, packed_words(count))`` ``uint64`` form
        (:func:`repro.sampling.store.pack_mask_columns`).
        """
        masks, labels = self.sample_chunk(root, start, count)
        return pack_mask_columns(masks), labels

    def __repr__(self) -> str:
        return f"ParallelSampler(n_nodes={self._graph.n_nodes}, n_edges={self._graph.n_edges})"
