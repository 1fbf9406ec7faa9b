"""Tests for repro.walks.single."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.lattice import Grid2D
from repro.util.rng import spawn_rngs
from repro.walks.single import (
    displacement_tail_probability,
    distinct_nodes_visited,
    hitting_time,
    max_displacement,
    visit_within,
    walk_ranges,
    walk_trajectory,
)

from strategies import max_examples, seeds


class TestWalkTrajectory:
    def test_shape(self, small_grid):
        traj = walk_trajectory(small_grid, np.array([5, 5]), 20, rng=0)
        assert traj.shape == (21, 2)

    def test_starts_at_start(self, small_grid):
        traj = walk_trajectory(small_grid, np.array([2, 9]), 5, rng=0)
        assert traj[0].tolist() == [2, 9]

    def test_single_steps(self, small_grid):
        traj = walk_trajectory(small_grid, np.array([5, 5]), 50, rng=1)
        deltas = np.abs(np.diff(traj, axis=0)).sum(axis=1)
        assert np.all(deltas <= 1)

    def test_simple_rule_always_moves(self, small_grid):
        traj = walk_trajectory(small_grid, np.array([5, 5]), 50, rng=1, rule="simple")
        deltas = np.abs(np.diff(traj, axis=0)).sum(axis=1)
        assert np.all(deltas == 1)


class TestWalkRanges:
    @settings(max_examples=max_examples(40), deadline=None)
    @given(
        side=st.integers(2, 12),
        data=st.data(),
        steps=st.integers(0, 600),
        rule=st.sampled_from(["lazy", "simple"]),
        trials=st.integers(1, 8),
        seed=seeds,
    )
    def test_batched_ranges_equal_serial_trajectories(
        self, side, data, steps, rule, trials, seed
    ):
        grid = Grid2D(side)
        start = np.array([data.draw(st.integers(0, side - 1)) for _ in range(2)])
        expected = []
        for rng in spawn_rngs(seed, trials):
            traj = walk_trajectory(grid, start, steps, rng=rng, rule=rule)
            expected.append((distinct_nodes_visited(traj, grid), max_displacement(traj)))
        ranges, displacements = walk_ranges(grid, start, steps, spawn_rngs(seed, trials), rule)
        assert list(zip(ranges.tolist(), displacements.tolist())) == expected

    def test_trials_in_groups_equal_one_batch(self, monkeypatch):
        import repro.walks.single

        grid = Grid2D(6)
        whole = walk_ranges(grid, grid.center(), 200, spawn_rngs(4, 7))
        monkeypatch.setattr(repro.walks.single, "_MARK_BYTES", 3 * grid.n_nodes)
        grouped = walk_ranges(grid, grid.center(), 200, spawn_rngs(4, 7))
        assert all(np.array_equal(w, g) for w, g in zip(whole, grouped))

    def test_rejects_a_start_outside_the_grid(self, small_grid):
        with pytest.raises(ValueError):
            walk_ranges(small_grid, np.array([16, 0]), 5, spawn_rngs(0, 2))


class TestHittingTime:
    def test_zero_when_start_is_target(self, small_grid):
        assert hitting_time(small_grid, np.array([3, 3]), np.array([3, 3]), 10, rng=0) == 0

    def test_adjacent_target_hit_quickly(self, small_grid):
        t = hitting_time(small_grid, np.array([3, 3]), np.array([3, 4]), 2000, rng=0)
        assert 0 < t <= 2000

    def test_not_hit_returns_minus_one(self, small_grid):
        # Opposite corner cannot be reached in 3 steps.
        t = hitting_time(small_grid, np.array([0, 0]), np.array([15, 15]), 3, rng=0)
        assert t == -1

    def test_visit_within_consistency(self, small_grid):
        start, target = np.array([0, 0]), np.array([2, 2])
        hit = hitting_time(small_grid, start, target, 500, rng=5)
        assert visit_within(small_grid, start, target, 500, rng=5) == (hit >= 0)


class TestDisplacementAndRange:
    def test_max_displacement_simple_case(self):
        traj = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]])
        assert max_displacement(traj) == 2

    def test_max_displacement_zero_for_static(self):
        traj = np.tile(np.array([3, 3]), (10, 1))
        assert max_displacement(traj) == 0

    def test_max_displacement_bad_shape(self):
        with pytest.raises(ValueError):
            max_displacement(np.zeros((5, 3)))

    def test_distinct_nodes_counts_unique(self, small_grid):
        traj = np.array([[0, 0], [0, 1], [0, 0], [1, 0]])
        assert distinct_nodes_visited(traj, small_grid) == 3

    def test_distinct_nodes_at_most_length(self, small_grid):
        traj = walk_trajectory(small_grid, np.array([8, 8]), 100, rng=2)
        count = distinct_nodes_visited(traj, small_grid)
        assert 1 <= count <= 101

    def test_distinct_nodes_bad_shape(self, small_grid):
        with pytest.raises(ValueError):
            distinct_nodes_visited(np.zeros((4, 3)), small_grid)

    def test_displacement_scales_like_sqrt_steps(self, rng):
        # Diffusive scaling: quadrupling the number of steps should roughly
        # double the typical displacement, certainly not quadruple it.
        grid = Grid2D(201)
        short = [
            max_displacement(walk_trajectory(grid, grid.center(), 100, rng=rng))
            for _ in range(30)
        ]
        long = [
            max_displacement(walk_trajectory(grid, grid.center(), 400, rng=rng))
            for _ in range(30)
        ]
        ratio = np.mean(long) / np.mean(short)
        assert 1.3 < ratio < 3.2


class TestDisplacementTail:
    def test_probability_in_unit_interval(self, rng):
        grid = Grid2D(64)
        p = displacement_tail_probability(grid, steps=50, lam=1.0, trials=20, rng=rng)
        assert 0.0 <= p <= 1.0

    def test_large_lambda_gives_small_probability(self, rng):
        grid = Grid2D(64)
        p = displacement_tail_probability(grid, steps=50, lam=6.0, trials=20, rng=rng)
        assert p <= 0.1

    def test_zero_trials(self, rng):
        grid = Grid2D(16)
        assert displacement_tail_probability(grid, 10, 1.0, 0, rng=rng) == 0.0
