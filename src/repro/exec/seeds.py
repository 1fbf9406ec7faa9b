"""Deterministic, serialisable RNG stream derivation for work units.

The executor's determinism contract rests on one fact about
``numpy.random.SeedSequence``: the ``i``-th child spawned from a parent with
entropy ``E`` and spawn key ``K`` is exactly ``SeedSequence(entropy=E,
spawn_key=K + (i,))``.  A :class:`SeedStreamSpec` captures ``(E, K,
pool_size, n_children_spawned)`` — a JSON-able value — and can therefore
re-derive *any slice* of the per-trial streams that
:func:`repro.util.rng.spawn_rngs` would produce, in any process, without
shipping generator objects around.  Trial ``i`` always receives the same
stream no matter how trials are chunked, which worker runs the chunk, or in
which order chunks complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.util.rng import RandomState, SeedLike, as_seed_sequence


@dataclass(frozen=True)
class SeedStreamSpec:
    """Picklable, JSON-able description of a root ``SeedSequence``.

    Attributes
    ----------
    entropy:
        The sequence's entropy (an int, or a tuple of ints).
    spawn_key:
        The sequence's spawn key.
    pool_size:
        The entropy pool size (numpy default: 4).
    children_spawned:
        How many children the root had already spawned when captured; child
        ``i`` of this spec therefore has spawn key
        ``spawn_key + (children_spawned + i,)``.
    """

    entropy: Any
    spawn_key: tuple[int, ...]
    pool_size: int = 4
    children_spawned: int = 0

    @classmethod
    def from_seed(cls, seed: SeedLike) -> "SeedStreamSpec":
        """Capture any :data:`~repro.util.rng.SeedLike` as a stream spec.

        Normalisation goes through :func:`repro.util.rng.as_seed_sequence`
        — the same single point :func:`~repro.util.rng.spawn_rngs` uses —
        so the captured derivation cannot drift from the inline path.
        """
        return cls.from_sequence(as_seed_sequence(seed))

    @classmethod
    def from_sequence(cls, seq: np.random.SeedSequence) -> "SeedStreamSpec":
        """Capture an existing ``SeedSequence`` (including its spawn count)."""
        return cls(
            entropy=_jsonable_entropy(seq.entropy),
            spawn_key=tuple(int(k) for k in seq.spawn_key),
            pool_size=int(seq.pool_size),
            children_spawned=int(seq.n_children_spawned),
        )

    @classmethod
    def reserve(cls, seed: SeedLike, count: int) -> "SeedStreamSpec":
        """Capture a spec for ``count`` trials AND consume the live seed state.

        :func:`repro.util.rng.spawn_rngs` advances a ``SeedSequence``'s (or a
        generator's underlying sequence's) spawn counter when it derives
        trial streams, so a caller reusing one seed object across two
        replication runs gets disjoint streams.  Plain :meth:`from_seed`
        only *reads* the counter — two captures of the same object would
        alias.  This constructor spawns (and discards) ``count`` children
        after capturing, leaving the live object exactly as the inline path
        would, so executor and inline runs stay interchangeable even when
        seed objects are reused.
        """
        seq = as_seed_sequence(seed)
        spec = cls.from_sequence(seq)
        if isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
            # The sequence is (or belongs to) a live object the caller may
            # reuse: consume its spawn state like spawn_rngs would.  (In the
            # no-seed-sequence generator fallback the derived sequence is
            # fresh, so the extra spawn is inert — matching the inline path,
            # where each call draws a fresh fallback too.)
            seq.spawn(count)
        return spec

    def child_sequence(self, index: int) -> np.random.SeedSequence:
        """The ``SeedSequence`` of trial ``index`` (0-based)."""
        if index < 0:
            raise ValueError(f"index must be non-negative, got {index}")
        return np.random.SeedSequence(
            entropy=self.entropy,
            spawn_key=self.spawn_key + (self.children_spawned + index,),
            pool_size=self.pool_size,
        )

    def trial_sequences(self, start: int, stop: int) -> list[np.random.SeedSequence]:
        """Seed sequences of trials ``start .. stop-1``."""
        return [self.child_sequence(i) for i in range(start, stop)]

    def trial_rngs(self, start: int, stop: int) -> list[RandomState]:
        """Generators of trials ``start .. stop-1``.

        ``trial_rngs(0, n)`` is bit-for-bit the list
        :func:`repro.util.rng.spawn_rngs` derives for ``n`` replications of
        the captured seed; any sub-slice is the corresponding sub-slice of
        that list.
        """
        return [np.random.default_rng(seq) for seq in self.trial_sequences(start, stop)]

    def as_json(self) -> dict[str, Any]:
        """JSON-able form, used in work-unit fingerprints and store records."""
        return {
            "entropy": _jsonable_entropy(self.entropy),
            "spawn_key": list(self.spawn_key),
            "pool_size": self.pool_size,
            "children_spawned": self.children_spawned,
        }


def _jsonable_entropy(entropy: Any) -> Any:
    """Entropy as JSON builtins (int, or list of ints)."""
    if entropy is None:
        return None
    if isinstance(entropy, (int, np.integer)):
        return int(entropy)
    if isinstance(entropy, Sequence):
        return [int(e) for e in entropy]
    raise TypeError(f"unsupported entropy type {type(entropy)!r}")
