"""Tests for the mobility models (repro.mobility)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.geometry import manhattan_distance
from repro.grid.lattice import Grid2D
from repro.grid.obstacles import ObstacleGrid
from repro.mobility import make_mobility
from repro.mobility.brownian import BrownianMobility, _reflect
from repro.mobility.jump import JumpMobility
from repro.mobility.obstacle_walk import ObstacleWalkMobility
from repro.mobility.random_walk import RandomWalkMobility
from repro.mobility.static import StaticMobility
from repro.mobility.waypoint import RandomWaypointMobility, WaypointState


class TestFactory:
    def test_all_names(self, small_grid):
        for name, cls in [
            ("random_walk", RandomWalkMobility),
            ("static", StaticMobility),
            ("jump", JumpMobility),
            ("brownian", BrownianMobility),
            ("waypoint", RandomWaypointMobility),
        ]:
            model = make_mobility(name, small_grid)
            assert isinstance(model, cls)

    def test_unknown_name(self, small_grid):
        with pytest.raises(ValueError, match="unknown mobility"):
            make_mobility("teleport", small_grid)

    def test_kwargs_forwarded(self, small_grid):
        model = make_mobility("jump", small_grid, jump_radius=5)
        assert model.jump_radius == 5

    def test_initial_positions_uniform_and_inside(self, small_grid, rng):
        model = make_mobility("random_walk", small_grid)
        pts = model.initial_positions(200, rng)
        assert pts.shape == (200, 2)
        assert np.all(small_grid.contains(pts))


class TestRandomWalkMobility:
    def test_step_moves_at_most_one(self, small_grid, rng):
        model = RandomWalkMobility(small_grid)
        pts = small_grid.random_positions(100, rng)
        new = model.step(pts, rng)
        assert np.all(np.abs(new - pts).sum(axis=1) <= 1)

    def test_simple_rule_always_moves(self, small_grid, rng):
        model = RandomWalkMobility(small_grid, rule="simple")
        pts = small_grid.random_positions(100, rng)
        new = model.step(pts, rng)
        assert np.all(np.abs(new - pts).sum(axis=1) == 1)

    def test_invalid_rule(self, small_grid):
        with pytest.raises(ValueError):
            RandomWalkMobility(small_grid, rule="flight")

    def test_does_not_mutate_input(self, small_grid, rng):
        model = RandomWalkMobility(small_grid)
        pts = small_grid.random_positions(20, rng)
        original = pts.copy()
        model.step(pts, rng)
        assert np.array_equal(pts, original)


class TestStaticMobility:
    def test_never_moves(self, small_grid, rng):
        model = StaticMobility(small_grid)
        pts = small_grid.random_positions(30, rng)
        for _ in range(5):
            new = model.step(pts, rng)
            assert np.array_equal(new, pts)

    def test_returns_copy(self, small_grid, rng):
        model = StaticMobility(small_grid)
        pts = small_grid.random_positions(5, rng)
        new = model.step(pts, rng)
        assert new is not pts


class TestJumpMobility:
    def test_jump_within_radius(self, small_grid, rng):
        model = JumpMobility(small_grid, jump_radius=3)
        pts = small_grid.random_positions(200, rng)
        new = model.step(pts, rng)
        assert np.all(manhattan_distance(pts, new) <= 3)

    def test_stays_inside_grid(self, rng):
        grid = Grid2D(4)
        model = JumpMobility(grid, jump_radius=6)
        pts = grid.random_positions(50, rng)
        for _ in range(10):
            pts = model.step(pts, rng)
            assert np.all(grid.contains(pts))

    def test_invalid_radius(self, small_grid):
        with pytest.raises(Exception):
            JumpMobility(small_grid, jump_radius=0)

    def test_jumps_actually_spread(self, small_grid, rng):
        # With radius 3, after one step most agents should have moved.
        model = JumpMobility(small_grid, jump_radius=3)
        pts = small_grid.random_positions(500, rng)
        new = model.step(pts, rng)
        moved = (manhattan_distance(pts, new) > 0).mean()
        assert moved > 0.8


class TestBrownianMobility:
    def test_sigma_zero_is_static(self, small_grid, rng):
        model = BrownianMobility(small_grid, sigma=0.0)
        pts = small_grid.random_positions(20, rng)
        assert np.array_equal(model.step(pts, rng), pts)

    def test_stays_inside_grid(self, rng):
        grid = Grid2D(8)
        model = BrownianMobility(grid, sigma=3.0)
        pts = grid.random_positions(100, rng)
        for _ in range(20):
            pts = model.step(pts, rng)
            assert np.all(grid.contains(pts))

    def test_negative_sigma_rejected(self, small_grid):
        with pytest.raises(Exception):
            BrownianMobility(small_grid, sigma=-1.0)

    def test_reflect_helper(self):
        assert _reflect(np.array([[-1, 5]]), 10).tolist() == [[1, 5]]
        assert _reflect(np.array([[10, 0]]), 10).tolist() == [[8, 0]]
        assert _reflect(np.array([[3, 3]]), 10).tolist() == [[3, 3]]

    def test_reflect_degenerate_side(self):
        assert _reflect(np.array([[4, -7]]), 1).tolist() == [[0, 0]]

    def test_displacement_scales_with_sigma(self, rng):
        grid = Grid2D(101)
        slow = BrownianMobility(grid, sigma=0.5)
        fast = BrownianMobility(grid, sigma=4.0)
        pts = np.tile(grid.center(), (2000, 1))
        d_slow = manhattan_distance(pts, slow.step(pts, rng)).mean()
        d_fast = manhattan_distance(pts, fast.step(pts, rng)).mean()
        assert d_fast > 2 * d_slow


class TestRandomWaypointMobility:
    def test_step_moves_at_most_one(self, small_grid, rng):
        model = RandomWaypointMobility(small_grid)
        state = model.init_state(50, rng)
        pts = small_grid.random_positions(50, rng)
        new = model.step(pts, rng, state)
        assert np.all(np.abs(new - pts).sum(axis=1) <= 1)

    def test_stays_inside_grid(self, rng):
        grid = Grid2D(6)
        model = RandomWaypointMobility(grid)
        state = model.init_state(30, rng)
        pts = grid.random_positions(30, rng)
        for _ in range(60):
            pts = model.step(pts, rng, state)
            assert np.all(grid.contains(pts))

    def test_progresses_towards_waypoint(self, rng):
        grid = Grid2D(20)
        model = RandomWaypointMobility(grid)
        state = WaypointState(np.array([[19, 19]]))
        pts = np.array([[0, 0]])
        for _ in range(38):
            pts = model.step(pts, rng, state)
        assert manhattan_distance(pts[0], np.array([19, 19])) == 0

    def test_reset_on_size_mismatch(self, small_grid, rng):
        # A trial of another agent count draws its own state; the model
        # keeps none from the trial before.
        model = RandomWaypointMobility(small_grid)
        model.step(small_grid.random_positions(3, rng), rng, model.init_state(3, rng))
        pts = small_grid.random_positions(7, rng)
        new = model.step(pts, rng, model.init_state(7, rng))
        assert new.shape == (7, 2)

    def test_step_without_state_raises(self, small_grid, rng):
        model = RandomWaypointMobility(small_grid)
        with pytest.raises(TypeError, match="WaypointState"):
            model.step(small_grid.random_positions(4, rng), rng)


class TestObstacleWalkFactory:
    def test_make_mobility_builds_obstacle_walk(self):
        domain = ObstacleGrid.with_wall(16, gap_width=2)
        model = make_mobility("obstacle_walk", domain.grid, domain=domain)
        assert isinstance(model, ObstacleWalkMobility)
        assert model.domain is domain

    def test_grid_mismatch_rejected(self):
        domain = ObstacleGrid.with_wall(16, gap_width=2)
        with pytest.raises(ValueError, match="grid"):
            make_mobility("obstacle_walk", Grid2D(8), domain=domain)


class TestExplicitMobilityState:
    """Per-trial auxiliary state is explicit, not keyed on array identity."""

    def test_stateless_models_return_none(self, small_grid, rng):
        for name in ("random_walk", "static", "jump", "brownian"):
            model = make_mobility(name, small_grid)
            assert model.init_state(10, rng) is None

    def test_waypoint_states_are_independent(self, small_grid, rng):
        model = RandomWaypointMobility(small_grid)
        state_a = model.init_state(5, rng)
        state_b = model.init_state(5, rng)
        assert isinstance(state_a, WaypointState)
        assert state_a is not state_b
        pts = small_grid.random_positions(5, rng)
        before_b = state_b.waypoints.copy()
        for _ in range(30):
            pts = model.step(pts, rng, state_a)
        # Advancing trial A never touches trial B's state.
        assert np.array_equal(state_b.waypoints, before_b)

    def test_copied_positions_array_does_not_break_state(self, small_grid, rng):
        # Regression: state must not be keyed on the identity of the
        # positions array — stepping a copy must behave identically.
        model = RandomWaypointMobility(small_grid)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        state_a = model.init_state(4, rng_a)
        state_b = model.init_state(4, rng_b)
        pts = small_grid.random_positions(4, np.random.default_rng(7))
        a = model.step(pts, rng_a, state_a)
        b = model.step(pts.copy(), rng_b, state_b)
        assert np.array_equal(a, b)

    def test_two_simulations_can_share_one_model(self, small_grid):
        # Two concurrent trials with equal agent counts used to clobber each
        # other's waypoints through the model-held state.
        from repro.core.config import BroadcastConfig
        from repro.core.simulation import BroadcastSimulation

        config = BroadcastConfig(
            n_nodes=256, n_agents=6, mobility="waypoint", max_steps=30
        )
        model = RandomWaypointMobility(small_grid)
        sim_a = BroadcastSimulation(config, rng=0, mobility=model)
        sim_b = BroadcastSimulation(config, rng=1, mobility=model)
        solo = BroadcastSimulation(config, rng=0, mobility=RandomWaypointMobility(small_grid))
        for _ in range(30):
            sim_a.step()
            sim_b.step()
            solo.step()
        # Interleaving an unrelated simulation must not perturb trial A.
        assert np.array_equal(sim_a.positions, solo.positions)

    def test_waypoint_state_size_mismatch_rejected(self, small_grid, rng):
        model = RandomWaypointMobility(small_grid)
        state = model.init_state(3, rng)
        with pytest.raises(ValueError, match="waypoints"):
            model.step(small_grid.random_positions(5, rng), rng, state)

    def test_batched_stepping_requires_states_for_stateful_models(self, small_grid, rng):
        from repro.util.rng import spawn_rngs

        model = RandomWaypointMobility(small_grid)
        rngs = spawn_rngs(0, 3)
        with pytest.raises(ValueError, match="init_states"):
            model.batch_stepper(4, rngs)
