"""Tests for repro.core.simulation (BroadcastSimulation)."""

from __future__ import annotations

import numpy as np

from repro.core.config import BroadcastConfig
from repro.core.simulation import BroadcastSimulation


class TestInitialState:
    def test_exactly_one_informed_at_start(self):
        config = BroadcastConfig(n_nodes=256, n_agents=10)
        sim = BroadcastSimulation(config, rng=0)
        assert sim.n_informed == 1
        assert sim.informed[sim.source]

    def test_explicit_source(self):
        config = BroadcastConfig(n_nodes=256, n_agents=10, source=3)
        sim = BroadcastSimulation(config, rng=0)
        assert sim.source == 3
        assert sim.informed[3]

    def test_positions_inside_grid(self):
        config = BroadcastConfig(n_nodes=256, n_agents=50)
        sim = BroadcastSimulation(config, rng=0)
        assert np.all(sim.grid.contains(sim.positions))

    def test_time_starts_at_zero(self):
        config = BroadcastConfig(n_nodes=256, n_agents=5)
        sim = BroadcastSimulation(config, rng=0)
        assert sim.time == 0
        assert sim.broadcast_time == -1


class TestDynamics:
    def test_informed_is_monotone_over_time(self):
        config = BroadcastConfig(n_nodes=144, n_agents=12)
        sim = BroadcastSimulation(config, rng=1)
        previous = sim.informed
        for _ in range(200):
            sim.step()
            current = sim.informed
            assert np.all(current[previous])  # nobody forgets
            previous = current

    def test_step_advances_time(self):
        config = BroadcastConfig(n_nodes=144, n_agents=4)
        sim = BroadcastSimulation(config, rng=0)
        sim.step()
        assert sim.time == 1

    def test_single_agent_completes_immediately(self):
        config = BroadcastConfig(n_nodes=64, n_agents=1)
        result = BroadcastSimulation(config, rng=0).run()
        assert result.completed
        assert result.broadcast_time == 0

    def test_two_colocated_agents_with_radius(self):
        # Huge radius: all agents are one component at t=0, so T_B = 0.
        config = BroadcastConfig(n_nodes=64, n_agents=5, radius=100)
        result = BroadcastSimulation(config, rng=0).run()
        assert result.broadcast_time == 0

    def test_run_completes_small_system(self):
        config = BroadcastConfig(n_nodes=144, n_agents=8)
        result = BroadcastSimulation(config, rng=2).run()
        assert result.completed
        assert result.broadcast_time >= 0
        assert result.n_informed == 8

    def test_run_respects_horizon(self):
        config = BroadcastConfig(n_nodes=64 * 64, n_agents=2, max_steps=5)
        result = BroadcastSimulation(config, rng=3).run()
        assert result.n_steps <= 5
        # With only 5 steps on a 4096-node grid the broadcast almost surely
        # did not complete, but either way the invariant holds:
        if not result.completed:
            assert result.broadcast_time == -1

    def test_informed_curve_monotone_and_bounded(self):
        config = BroadcastConfig(n_nodes=144, n_agents=10)
        result = BroadcastSimulation(config, rng=4).run()
        curve = result.informed_curve
        assert curve[0] >= 1
        assert np.all(np.diff(curve) >= 0)
        assert curve[-1] == 10

    def test_broadcast_time_matches_curve(self):
        config = BroadcastConfig(n_nodes=144, n_agents=10)
        result = BroadcastSimulation(config, rng=5).run()
        curve = result.informed_curve
        first_full = int(np.flatnonzero(curve == 10)[0])
        assert result.broadcast_time == first_full

    def test_time_to_fraction(self):
        config = BroadcastConfig(n_nodes=144, n_agents=10)
        result = BroadcastSimulation(config, rng=6).run()
        t_half = result.time_to_fraction(0.5)
        t_full = result.time_to_fraction(1.0)
        assert 0 <= t_half <= t_full == result.broadcast_time

    def test_deterministic_given_seed(self):
        config = BroadcastConfig(n_nodes=144, n_agents=8)
        a = BroadcastSimulation(config, rng=9).run()
        b = BroadcastSimulation(config, rng=9).run()
        assert a.broadcast_time == b.broadcast_time
        assert np.array_equal(a.informed_curve, b.informed_curve)

    def test_different_seeds_differ(self):
        config = BroadcastConfig(n_nodes=1024, n_agents=8)
        a = BroadcastSimulation(config, rng=1).run()
        b = BroadcastSimulation(config, rng=2).run()
        assert a.broadcast_time != b.broadcast_time or not np.array_equal(
            a.informed_curve, b.informed_curve
        )


class TestOptionsAndVariants:
    def test_frontier_recording(self):
        config = BroadcastConfig(n_nodes=144, n_agents=8, record_frontier=True)
        result = BroadcastSimulation(config, rng=1).run()
        assert result.frontier_history is not None
        hist = result.frontier_history
        assert np.all(np.diff(hist) >= 0)  # the frontier never retreats
        assert hist.max() < 12

    def test_frontier_absent_by_default(self):
        config = BroadcastConfig(n_nodes=144, n_agents=8)
        result = BroadcastSimulation(config, rng=1).run()
        assert result.frontier_history is None

    def test_coverage_recording(self):
        config = BroadcastConfig(
            n_nodes=64, n_agents=8, record_coverage=True, max_steps=20000
        )
        result = BroadcastSimulation(config, rng=1).run()
        assert result.coverage_time >= result.broadcast_time >= 0 or (
            result.coverage_time >= 0
        )
        assert result.coverage_fraction == 1.0

    def test_larger_radius_is_not_slower(self):
        # Broadcast time is non-increasing in the radius (same seed comparison
        # is noisy, so compare means over a few seeds).
        times_r0, times_r2 = [], []
        for seed in range(5):
            config0 = BroadcastConfig(n_nodes=256, n_agents=16, radius=0)
            config2 = BroadcastConfig(n_nodes=256, n_agents=16, radius=2)
            times_r0.append(BroadcastSimulation(config0, rng=seed).run().broadcast_time)
            times_r2.append(BroadcastSimulation(config2, rng=seed).run().broadcast_time)
        assert np.mean(times_r2) <= np.mean(times_r0) * 1.5

    def test_static_mobility_never_completes_for_separated_agents(self):
        # With static agents and r = 0, agents on distinct nodes can never
        # exchange the rumor.
        config = BroadcastConfig(
            n_nodes=1024, n_agents=4, radius=0, mobility="static", max_steps=50
        )
        result = BroadcastSimulation(config, rng=12).run()
        assert not result.completed

    def test_jump_mobility_runs(self):
        config = BroadcastConfig(
            n_nodes=144,
            n_agents=12,
            radius=1,
            mobility="jump",
            mobility_kwargs={"jump_radius": 2},
        )
        result = BroadcastSimulation(config, rng=3).run()
        assert result.completed

    def test_waypoint_mobility_runs(self):
        config = BroadcastConfig(n_nodes=144, n_agents=12, radius=1, mobility="waypoint")
        result = BroadcastSimulation(config, rng=3).run()
        assert result.completed

    def test_brownian_mobility_runs(self):
        config = BroadcastConfig(
            n_nodes=144,
            n_agents=12,
            radius=1,
            mobility="brownian",
            mobility_kwargs={"sigma": 1.0},
        )
        result = BroadcastSimulation(config, rng=3).run()
        assert result.completed


class TestBroadcastResultTimeToFraction:
    def _result(self, n_agents: int, curve: list[int]):
        from repro.core.simulation import BroadcastResult

        config = BroadcastConfig(n_nodes=256, n_agents=n_agents)
        return BroadcastResult(
            config=config,
            broadcast_time=len(curve) - 1,
            completed=curve[-1] == n_agents,
            n_steps=len(curve),
            n_informed=curve[-1],
            informed_curve=np.asarray(curve),
        )

    def test_float_threshold_regression(self):
        # 0.7 * 10 exceeds 7 by one ulp in binary floating point; the old
        # float comparison therefore demanded an 8th informed agent.  The
        # integer threshold accepts the step where 7 agents know the rumor.
        result = self._result(10, [1, 3, 7, 10])
        assert result.time_to_fraction(0.7) == 2

    def test_fraction_never_reached(self):
        result = self._result(10, [1, 3, 4])
        assert result.time_to_fraction(0.5) == -1
