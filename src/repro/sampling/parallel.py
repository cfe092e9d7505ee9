"""World-sampling engine with per-edge random streams.

The Monte Carlo pipelines spend nearly all their time drawing and
labeling possible worlds (paper Section 4).  This module supplies the
one path from a graph to labeled worlds: draw a chunk's edge masks
from per-edge streams (the kernel of :func:`sample_mask_rows`), label them with one
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
stream, ``lanes`` fixed by the edge count so that each ``numpy`` call
covers up to ``_LANE_STREAMS`` states: world ``w`` sits in lane
``w % lanes`` at draw step ``w // lanes``, and each step jumps every
lane ``lanes`` LCG steps on.  The per-lane jump coefficients are
computed once per lane count (:func:`_lane_table`).

Stream cursor
-------------
Progressive sampling grows a pool in chunks (cold mcp on
krogan_like(0.4) draws 50, 6, 7, 21 and 167 worlds).  Deriving the
lane states costs the seed-word hash and two ``(lanes, m)`` jumps, so
a :class:`ParallelSampler` keeps them: its :class:`_StreamCursor`
holds every edge's lane states at the step of the last world it drew,
plus each edge's step increment and threshold.  A chunk whose first
world lies in that step or the next resumes from the cursor; any
other chunk, another root or the first chunk derives afresh, as the
stateless :func:`sample_mask_rows` always does.  Both paths run the
same step and output code, and the absolute lane layout makes their
bits equal.  ``tests/stream_reference.py`` keeps the scalar
``SeedSequence``/``PCG64`` construction the kernel is pinned against,
bit for bit.
"""

from __future__ import annotations

import functools
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


def _scratch(shape) -> tuple:
    """Scratch arrays for :func:`_mul_add` and the draw loop."""
    return tuple(np.empty(shape, dtype=np.uint64) for _ in range(4)) + (np.empty(shape, dtype=bool),)


def _mul_add(hi, lo, b_hi, b_lo, c_hi, c_lo, scratch) -> None:
    """``(hi, lo) <- (hi, lo) * b + c`` mod ``2**128``, in place.

    128-bit values live as ``(hi, lo)`` uint64 limbs; ``b`` and ``c``
    broadcast against the state.  numpy's wrapping uint64 multiply gives
    every term of the product except the high half of ``lo * b_lo``,
    which is assembled from 32-bit halves.  ``scratch`` is a
    :func:`_scratch` tuple of the state's shape.
    """
    a0, a1, t, u, carry = scratch
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


def _lane_count(m: int) -> int:
    """Lanes of an ``m``-edge draw: enough for ``_LANE_STREAMS`` states per call."""
    return min(-(-_LANE_STREAMS // m), _MAX_LANES)


@functools.lru_cache(maxsize=None)
def _lane_table(lanes: int):
    """Jump coefficients of the lane layout with ``lanes`` lanes.

    Returns ``(lane_mult, lane_plus, step_mult, step_plus)``.  Lane
    ``l`` sits ``l`` LCG steps after lane 0, so its state is
    ``lane_mult[l] * x + lane_plus[l] * inc`` for lane 0's state ``x``
    (:func:`_jump` of ``l``, as ``(hi, lo)`` limb columns of shape
    ``(lanes, 1)``).  One draw step moves every lane ``lanes`` LCG
    steps on: ``step_mult`` is a limb pair, ``step_plus`` a Python int.
    """
    mults, pluses = [], []
    mult, plus = 1, 0
    for _ in range(lanes):
        mults.append(mult)
        pluses.append(plus)
        mult, plus = mult * _PCG_MULT & _MASK128, (plus * _PCG_MULT + 1) & _MASK128
    lane_mult, lane_plus = (tuple(limb[:, None] for limb in _limbs(c)) for c in (mults, pluses))
    return lane_mult, lane_plus, _limbs([mult]), plus


class _StreamCursor:
    """Every edge's stream at one draw step of the lane layout.

    World ``w`` of every stream sits in lane ``w % lanes`` at step
    ``w // lanes``, with ``lanes`` fixed by the edge count
    (:func:`_lane_count`), so a cursor left at a chunk's last step
    holds the next chunk's first world or sits one step before it.
    Between draws it keeps the ``(lanes, m)`` lane states of ``step``
    and the per-edge step increment and threshold; scratch belongs to
    each call.
    """

    __slots__ = ("root", "step", "state_hi", "state_lo", "shift_hi", "shift_lo", "threshold")

    def __init__(self, root, edges, step: int, scratch: tuple):
        """Derive the lane states of ``step`` from ``root``'s seed words."""
        lo, hi, edge_prob = edges
        lanes = scratch[0].shape[0]
        lane_mult, lane_plus, _, step_plus = _lane_table(lanes)
        seed_hi, seed_lo, seq_hi, seq_lo = _edge_seed_words(root, lo, hi)
        inc_hi = (seq_hi << 1) | (seq_lo >> 63)
        inc_lo = (seq_lo << 1) | 1
        # World w's state is mult * (seed + inc) + plus * inc for
        # (mult, plus) = _jump(w + 2): the two seeding steps come first.
        # Lane l holds world w = step * lanes + l, _jump(l) after the
        # lane-0 world, so its seed and inc coefficients compose the
        # lane table with lane 0's jump.
        mult, plus = _jump(step * lanes + 2)
        coef_scratch = _scratch((lanes, 1))
        seed_coef, inc_coef = ([limb.copy() for limb in lane_mult] for _ in range(2))
        _mul_add(*seed_coef, *_limbs([mult]), 0, 0, coef_scratch)
        _mul_add(*inc_coef, *_limbs([(mult + plus) & _MASK128]), *lane_plus, coef_scratch)
        self.state_hi, self.state_lo = (np.repeat(limb[None, :], lanes, axis=0)
                                        for limb in (seed_hi, seed_lo))
        shift_hi, shift_lo = (np.repeat(limb[None, :], lanes, axis=0) for limb in (inc_hi, inc_lo))
        _mul_add(shift_hi, shift_lo, *inc_coef, 0, 0, scratch)
        _mul_add(self.state_hi, self.state_lo, *seed_coef, shift_hi, shift_lo, scratch)
        # Each draw step then moves every lane `lanes` LCG steps on.
        _mul_add(inc_hi, inc_lo, *_limbs([step_plus]), 0, 0, tuple(array[0] for array in scratch))
        self.shift_hi, self.shift_lo = inc_hi, inc_lo
        # random() < p  <=>  (output >> 11) * 2**-53 < p  <=>  (output >> 11) < ceil(p * 2**53)
        self.threshold = np.where(
            edge_prob > 0, np.ceil(np.minimum(edge_prob, 1.0) * 2.0**53), 0.0
        ).astype(np.uint64)
        self.root, self.step = root, step

    def draw(self, start: int, rows: int, scratch: tuple) -> np.ndarray:
        """Masks of worlds ``[start, start + rows)``, leaving the cursor
        at the step of the last one.  ``start`` must lie in the
        cursor's step or the next; ``rows`` is positive."""
        lanes, m = self.state_lo.shape
        first, last = start // lanes, (start + rows - 1) // lanes
        step_mult = _lane_table(lanes)[2]
        blocks = np.empty((last - first + 1, lanes, m), dtype=bool)
        x, rot, rotated = scratch[:3]
        for block, step in zip(blocks, range(first, last + 1), strict=True):
            if step != self.step:
                _mul_add(self.state_hi, self.state_lo, *step_mult,
                         self.shift_hi, self.shift_lo, scratch)
                self.step = step
            # PCG64's XSL-RR output: (hi ^ lo) rotated right by hi >> 58.
            np.bitwise_xor(self.state_hi, self.state_lo, out=x)
            np.right_shift(self.state_hi, 58, out=rot)
            np.right_shift(x, rot, out=rotated)
            np.subtract(64, rot, out=rot)
            rot &= 63
            x <<= rot
            x |= rotated
            x >>= 11
            np.less(x, self.threshold, out=block)
        offset = start - first * lanes
        return blocks.reshape(-1, m)[offset:offset + rows]


def _draw_rows(cursor, root, edges, start: int, rows: int):
    """Masks of worlds ``[start, start + rows)`` and the cursor after them.

    ``cursor`` (or ``None``) is resumed when it holds ``root``'s
    streams at ``start``'s step or the one before; otherwise the lane
    states are derived afresh from the seed words.
    """
    if start < 0 or rows < 0:
        raise ValueError(f"start and rows must be non-negative, got {start}, {rows}")
    m = len(edges[2])
    if rows == 0 or m == 0:
        return np.zeros((rows, m), dtype=bool), cursor
    lanes = _lane_count(m)
    scratch = _scratch((lanes, m))
    step = int(start) // lanes
    if cursor is None or cursor.root is not root or not 0 <= step - cursor.step <= 1:
        cursor = _StreamCursor(root, edges, step, scratch)
    return cursor.draw(start, rows, scratch), cursor


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
    edges = _validated_edges(edge_src, edge_dst, edge_prob)
    return _draw_rows(None, root, edges, start, rows)[0]


class ParallelSampler:
    """Draws and labels chunks of worlds.

    The sampler keeps a stream cursor for the root it last drew, so a
    chunk that starts where the previous one ended resumes every
    edge's stream instead of deriving it from the seed again
    (progressive sampling grows a pool this way).  Any other chunk
    derives afresh; the masks are the same either way.  Like its phase
    counters, the cursor serves one caller at a time.

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
        self._edges = _validated_edges(graph.edge_src, graph.edge_dst, graph.edge_prob)
        #: Where the last chunk left the streams (see :class:`_StreamCursor`).
        self._cursor = None
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
        masks, self._cursor = _draw_rows(self._cursor, root, self._edges, start, count)
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
