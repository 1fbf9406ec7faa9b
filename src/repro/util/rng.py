"""Random-number generation helpers.

All stochastic components of the library accept a ``numpy.random.Generator``
(aliased here as :class:`RandomState`) so that experiments are reproducible
from a single integer seed.  The helpers in this module centralise how seeds
are turned into generators and how independent streams are derived for
replications of the same experiment.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

RandomState = np.random.Generator
SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


def default_rng(seed: SeedLike = None) -> RandomState:
    """Return a ``numpy.random.Generator``.

    Parameters
    ----------
    seed:
        ``None`` for entropy-based seeding, an integer, a ``SeedSequence``,
        or an existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Normalise any :data:`SeedLike` to a ``SeedSequence``.

    A generator contributes its bit generator's own sequence (so spawning
    from the result advances the generator's spawn state, keeping repeated
    derivations disjoint); a generator without one falls back to a single
    integer draw — note this advances the generator.  This is the single
    normalisation point for the whole code base: the executor's stream
    re-derivation (``repro.exec.seeds``) must agree with :func:`spawn_rngs`
    exactly, so both go through here.
    """
    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        if not isinstance(seq, np.random.SeedSequence):
            seq = np.random.SeedSequence(int(seed.integers(0, 2**63)))
        return seq
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def spawn_rngs(seed: SeedLike, count: int) -> list[RandomState]:
    """Derive ``count`` statistically independent generators from ``seed``.

    The streams are derived via ``SeedSequence.spawn`` so that replications of
    an experiment do not share random-number streams even when run in any
    order.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seq = as_seed_sequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def replication_seeds(seed: SeedLike, count: int) -> Sequence[int]:
    """Return ``count`` deterministic integer seeds derived from ``seed``.

    Useful when a configuration object stores plain integers rather than
    generator objects (e.g. for serialization).
    """
    rngs = spawn_rngs(seed, count)
    return [int(rng.integers(0, 2**31 - 1)) for rng in rngs]
