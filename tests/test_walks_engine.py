"""Tests for the walk engine (repro.walks.walkers + the primitive rules)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.lattice import Grid2D
from repro.mobility.kernels import lazy_step, simple_step
from repro.walks.walkers import WalkEngine


class TestLazyStep:
    def test_moves_are_single_steps(self, small_grid, rng):
        positions = small_grid.random_positions(200, rng)
        new = lazy_step(small_grid, positions, rng)
        deltas = np.abs(new - positions).sum(axis=1)
        assert np.all(deltas <= 1)

    def test_stays_inside_grid(self, rng):
        grid = Grid2D(3)
        positions = grid.random_positions(100, rng)
        for _ in range(50):
            positions = lazy_step(grid, positions, rng)
            assert positions.min() >= 0
            assert positions.max() < 3

    def test_interior_stay_probability_near_one_fifth(self, rng):
        grid = Grid2D(101)
        center = np.tile(grid.center(), (20000, 1))
        new = lazy_step(grid, center, rng)
        stayed = np.all(new == center, axis=1).mean()
        assert 0.17 < stayed < 0.23

    def test_corner_stay_probability_near_three_fifths(self, rng):
        grid = Grid2D(50)
        corner = np.zeros((20000, 2), dtype=np.int64)
        new = lazy_step(grid, corner, rng)
        stayed = np.all(new == corner, axis=1).mean()
        assert 0.56 < stayed < 0.64

    def test_each_neighbor_probability_near_one_fifth(self, rng):
        grid = Grid2D(101)
        center = np.tile(grid.center(), (40000, 1))
        new = lazy_step(grid, center, rng)
        for direction in ([1, 0], [-1, 0], [0, 1], [0, -1]):
            frac = np.all(new == center + np.array(direction), axis=1).mean()
            assert 0.17 < frac < 0.23

    def test_uniform_distribution_is_stationary(self, rng):
        # Start uniform, run many steps, occupancy should remain uniform.
        grid = Grid2D(6)
        positions = grid.random_positions(36000, rng)
        for _ in range(10):
            positions = lazy_step(grid, positions, rng)
        counts = np.bincount(grid.node_id(positions), minlength=36)
        assert counts.min() > 700
        assert counts.max() < 1300


class TestSimpleStep:
    def test_always_moves(self, small_grid, rng):
        positions = small_grid.random_positions(300, rng)
        new = simple_step(small_grid, positions, rng)
        deltas = np.abs(new - positions).sum(axis=1)
        assert np.all(deltas == 1)

    def test_stays_inside_grid(self, rng):
        grid = Grid2D(2)
        positions = grid.random_positions(50, rng)
        for _ in range(30):
            positions = simple_step(grid, positions, rng)
            assert positions.min() >= 0
            assert positions.max() < 2

    def test_corner_moves_to_valid_neighbor(self, rng):
        grid = Grid2D(10)
        corner = np.zeros((5000, 2), dtype=np.int64)
        new = simple_step(grid, corner, rng)
        # only (1,0) and (0,1) are valid targets
        ok = (np.all(new == [1, 0], axis=1)) | (np.all(new == [0, 1], axis=1))
        assert ok.all()
        frac_right = np.all(new == [1, 0], axis=1).mean()
        assert 0.42 < frac_right < 0.58


class TestWalkEngine:
    def test_requires_positions_or_k(self, small_grid):
        with pytest.raises(ValueError):
            WalkEngine(small_grid)

    def test_random_initialisation(self, small_grid):
        engine = WalkEngine(small_grid, k=10, rng=0)
        assert engine.n_walkers == 10
        assert engine.positions.shape == (10, 2)

    def test_invalid_rule(self, small_grid):
        with pytest.raises(ValueError):
            WalkEngine(small_grid, k=2, rule="levy", rng=0)

    def test_invalid_positions_shape(self, small_grid):
        with pytest.raises(ValueError):
            WalkEngine(small_grid, positions=np.zeros((3, 3)), rng=0)

    def test_positions_outside_grid_rejected(self, small_grid):
        with pytest.raises(ValueError):
            WalkEngine(small_grid, positions=np.array([[20, 0]]), rng=0)

    def test_step_increments_time(self, small_grid):
        engine = WalkEngine(small_grid, k=4, rng=0)
        engine.step()
        engine.step()
        assert engine.time == 2

    def test_run_returns_final_positions(self, small_grid):
        engine = WalkEngine(small_grid, k=4, rng=0)
        final = engine.run(25)
        assert engine.time == 25
        assert final.shape == (4, 2)

    def test_run_negative_raises(self, small_grid):
        engine = WalkEngine(small_grid, k=2, rng=0)
        with pytest.raises(ValueError):
            engine.run(-1)

    def test_trajectory_shape_and_start(self, small_grid):
        start = np.array([[3, 3], [7, 7]])
        engine = WalkEngine(small_grid, positions=start, rng=0)
        traj = engine.trajectory(10)
        assert traj.shape == (11, 2, 2)
        assert np.array_equal(traj[0], start)

    def test_trajectory_steps_are_contiguous(self, small_grid):
        engine = WalkEngine(small_grid, k=3, rng=1)
        traj = engine.trajectory(30)
        deltas = np.abs(np.diff(traj, axis=0)).sum(axis=2)
        assert np.all(deltas <= 1)

    def test_deterministic_with_same_seed(self, small_grid):
        a = WalkEngine(small_grid, k=5, rng=7).run(20)
        b = WalkEngine(small_grid, k=5, rng=7).run(20)
        assert np.array_equal(a, b)

    def test_positions_property_returns_copy(self, small_grid):
        engine = WalkEngine(small_grid, k=2, rng=0)
        pos = engine.positions
        pos[:] = 999
        assert engine.positions.max() < 16

    def test_walks_are_independent(self, rng):
        # Two walkers starting at the same node should diverge over time.
        grid = Grid2D(30)
        engine = WalkEngine(grid, positions=np.array([[15, 15], [15, 15]]), rng=3)
        final = engine.run(200)
        assert not np.array_equal(final[0], final[1])
