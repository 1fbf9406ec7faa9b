"""Tests for repro.util.rng."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.rng import default_rng, replication_seeds, spawn_rngs

from strategies import max_examples, seeds


class TestDefaultRng:
    def test_none_gives_generator(self):
        assert isinstance(default_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = default_rng(7).integers(0, 1000, size=10)
        b = default_rng(7).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = default_rng(1).integers(0, 10**9)
        b = default_rng(2).integers(0, 10**9)
        assert a != b

    def test_generator_passthrough(self):
        gen = np.random.default_rng(3)
        assert default_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(11)
        gen = default_rng(seq)
        assert isinstance(gen, np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_deterministic(self):
        a = [g.integers(0, 10**9) for g in spawn_rngs(42, 3)]
        b = [g.integers(0, 10**9) for g in spawn_rngs(42, 3)]
        assert a == b

    def test_streams_are_distinct(self):
        values = [int(g.integers(0, 10**12)) for g in spawn_rngs(9, 8)]
        assert len(set(values)) == len(values)

    def test_accepts_generator_seed(self):
        gen = np.random.default_rng(5)
        children = spawn_rngs(gen, 3)
        assert len(children) == 3
        assert all(isinstance(c, np.random.Generator) for c in children)

    def test_accepts_seed_sequence(self):
        children = spawn_rngs(np.random.SeedSequence(5), 2)
        assert len(children) == 2

    def test_accepts_none(self):
        children = spawn_rngs(None, 2)
        assert len(children) == 2

    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
    @pytest.mark.parametrize("size", [1, 2, 127, 128, (128, 5), (3, 7)])
    def test_int32_bounded_draws_equal_the_int64_stream(self, seed, size):
        """``integers(0, 5, dtype=np.int32)`` is the int64 stream, value for value.

        The lazy and obstacle walks draw their blocks as int32 on this
        assumption: numpy draws ranges below 2**32 through one 32-bit
        bounded routine for both output types, so the values and the
        generator state after the draw are the same.
        """
        narrow, wide = (spawn_rngs(seed, 3)[2] for _ in range(2))
        for _ in range(2):  # a second round after an interleaved int64 draw
            a = narrow.integers(0, 5, size=size, dtype=np.int32)
            b = wide.integers(0, 5, size=size)
            assert a.dtype == np.int32 and b.dtype == np.int64
            assert np.array_equal(a, b)
            assert narrow.bit_generator.state == wide.bit_generator.state
            assert narrow.integers(0, 10**12) == wide.integers(0, 10**12)
            assert narrow.bit_generator.state == wide.bit_generator.state

    @settings(max_examples=max_examples(100), deadline=None)
    @given(
        seed=seeds,
        sizes=st.lists(st.integers(0, 300), min_size=1, max_size=12),
        low=st.sampled_from([0, 1]),
        dtype=st.sampled_from([np.int32, np.int64]),
    )
    def test_concatenated_bounded_draws_equal_one_draw(self, seed, sizes, low, dtype):
        """Draws of sizes ``a`` then ``b`` are one draw of ``a + b``.

        The walk tapes (``TapeStepper``) refill each trial with one draw of
        whatever it read, so a trial sees the values its serial walk draws
        call by call only if bounded draws are chunk-invariant, in values
        and in the generator state after them.
        """
        sizes = np.array(sizes, dtype=np.int64)
        pieces, whole = (spawn_rngs(seed, 2)[1] for _ in range(2))
        parts = [pieces.integers(low, 5, size=int(size), dtype=dtype) for size in sizes]
        assert np.array_equal(
            np.concatenate(parts), whole.integers(low, 5, size=int(sizes.sum()), dtype=dtype)
        )
        assert pieces.bit_generator.state == whole.bit_generator.state


class TestReplicationSeeds:
    def test_count_and_determinism(self):
        a = replication_seeds(1, 4)
        b = replication_seeds(1, 4)
        assert list(a) == list(b)
        assert len(a) == 4

    def test_seeds_are_non_negative_ints(self):
        for seed in replication_seeds(2, 5):
            assert isinstance(seed, int)
            assert seed >= 0
