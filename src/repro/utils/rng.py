"""Random-number-generator plumbing.

Every stochastic component of the library accepts either ``None`` (fresh
entropy), an integer seed, or a ready :class:`numpy.random.Generator`.
Centralizing the coercion here keeps call sites one-liners and makes the
whole pipeline reproducible from a single integer.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | np.random.SeedSequence | None"


def ensure_rng(seed=None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` seed, a
        :class:`numpy.random.SeedSequence`, or an existing ``Generator``
        (returned unchanged so state is shared with the caller).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"expected None, int, SeedSequence or numpy Generator, got {type(seed).__name__}"
    )


def ensure_seed_sequence(seed=None) -> np.random.SeedSequence:
    """Coerce ``seed`` into a root :class:`numpy.random.SeedSequence`.

    Accepts ``None`` (fresh OS entropy), an ``int``, a ready
    ``SeedSequence`` (returned unchanged), or a
    :class:`numpy.random.Generator` — one 63-bit integer is drawn from
    the generator and used as entropy, so the derivation is
    deterministic given the generator's state.  This is the root of the
    per-edge mask streams of :mod:`repro.sampling.parallel`.

    Examples
    --------
    >>> ensure_seed_sequence(7).entropy
    7
    >>> ss = np.random.SeedSequence(5)
    >>> ensure_seed_sequence(ss) is ss
    True
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(int(seed.integers(2**63)))
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(seed if seed is None else int(seed))
    raise TypeError(
        f"expected None, int, SeedSequence or numpy Generator, got {type(seed).__name__}"
    )


def spawn_rngs(seed, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``.

    Used when an algorithm hands sub-tasks (e.g. repeated runs of an
    experiment) their own stream so that re-ordering sub-tasks does not
    perturb results.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = ensure_rng(seed)
    seeds = root.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
