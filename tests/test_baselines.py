"""Tests for repro.baselines."""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest

from repro.baselines.dense_model import DenseModelSimulation
from repro.baselines.dimitriou_bound import (
    dimitriou_infection_time_bound,
    grid_maximum_meeting_time,
)
from repro.baselines.peres_above import above_percolation_broadcast
from repro.baselines.static_pushpull import push_pull_rounds
from repro.baselines.wang_bound import wang_claimed_infection_time, wang_vs_true_ratio
from repro.connectivity.percolation import percolation_radius
from repro.core.config import BroadcastConfig
from repro.core.simulation import BroadcastSimulation
from repro.experiments.e14_above_percolation import ABOVE_FACTOR, BELOW_FACTOR, _regime_trials
from repro.util.rng import spawn_rngs


class TestDenseModel:
    def test_runs_to_completion(self):
        sim = DenseModelSimulation(n_nodes=100, n_agents=100, exchange_radius=3, jump_radius=1)
        result = sim.run(rng=0)
        assert result.completed
        assert result.broadcast_time >= 0

    def test_informed_curve_monotone(self):
        result = DenseModelSimulation(100, 100, exchange_radius=2, jump_radius=1).run(rng=1)
        assert np.all(np.diff(result.informed_curve) >= 0)
        assert result.informed_curve[-1] == 100

    def test_single_hop_is_slower_than_instant(self):
        # With single-hop exchange the rumor needs several steps to traverse
        # the grid even though the visibility graph is connected at t = 0.
        result = DenseModelSimulation(576, 576, exchange_radius=2, jump_radius=1).run(rng=2)
        assert result.broadcast_time >= 3

    def test_larger_radius_is_faster_on_average(self):
        small, large = [], []
        for seed in range(3):
            small.append(
                DenseModelSimulation(576, 576, exchange_radius=2, jump_radius=1)
                .run(rng=seed)
                .broadcast_time
            )
            large.append(
                DenseModelSimulation(576, 576, exchange_radius=8, jump_radius=1)
                .run(rng=seed)
                .broadcast_time
            )
        assert np.mean(large) < np.mean(small)

    def test_invalid_parameters(self):
        with pytest.raises(Exception):
            DenseModelSimulation(100, 100, exchange_radius=-1, jump_radius=1)
        with pytest.raises(Exception):
            DenseModelSimulation(100, 100, exchange_radius=1, jump_radius=0)

    def test_properties_exposed(self):
        sim = DenseModelSimulation(100, 50, exchange_radius=2, jump_radius=3)
        assert sim.exchange_radius == 2
        assert sim.jump_radius == 3
        assert sim.grid.n_nodes == 100

    def test_deterministic_given_seed(self):
        a = DenseModelSimulation(100, 100, exchange_radius=2, jump_radius=1).run(rng=7)
        b = DenseModelSimulation(100, 100, exchange_radius=2, jump_radius=1).run(rng=7)
        assert a.broadcast_time == b.broadcast_time


class TestClosedFormBounds:
    def test_wang_formula(self):
        n, k = 1024, 16
        expected = n * math.log(n) * math.log(k) / k
        assert wang_claimed_infection_time(n, k) == pytest.approx(expected)

    def test_wang_decreases_in_k(self):
        assert wang_claimed_infection_time(1024, 64) < wang_claimed_infection_time(1024, 4)

    def test_wang_vs_true_ratio_grows_with_k(self):
        assert wang_vs_true_ratio(4096, 256) > wang_vs_true_ratio(4096, 4)

    def test_dimitriou_formula(self):
        n, k = 1024, 16
        expected = n * math.log(n) * math.log(k)
        assert dimitriou_infection_time_bound(n, k) == pytest.approx(expected)

    def test_dimitriou_grows_with_k(self):
        assert dimitriou_infection_time_bound(1024, 64) > dimitriou_infection_time_bound(1024, 4)

    def test_meeting_time_scale(self):
        assert grid_maximum_meeting_time(1024) == pytest.approx(1024 * math.log(1024))

    def test_small_n_log_floor(self):
        # log is floored at 1 to avoid degenerate values at tiny n.
        assert grid_maximum_meeting_time(2) == pytest.approx(2.0)


class TestAbovePercolation:
    def test_completes_and_is_fast(self):
        time_above = above_percolation_broadcast(1024, 64, radius_factor=3.0, rng=0)
        assert 0 <= time_above < 200

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            above_percolation_broadcast(256, 8, radius_factor=0.0, rng=0)

    # r_below = 0.71 (the fused r = 0 driver under auto) and 1.25 (⌊r⌋ = 1).
    @pytest.mark.parametrize("n_nodes, n_agents", [(256, 32), (400, 16)])
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_regime_trials_equal_the_per_trial_loop(self, n_nodes, n_agents, seed):
        """E14's map function runs each regime as one replication run over the
        trials' spawned children; it must equal the serial loop it replaced."""
        radius_below = BELOW_FACTOR * percolation_radius(n_nodes, n_agents)
        expected = []
        for rng in spawn_rngs(seed, 3):
            below, above = spawn_rngs(rng, 2)
            config = BroadcastConfig(n_nodes=n_nodes, n_agents=n_agents, radius=radius_below)
            expected.append(
                {
                    "below_time": BroadcastSimulation(config, rng=below).run().broadcast_time,
                    "above_time": above_percolation_broadcast(
                        n_nodes, n_agents, radius_factor=ABOVE_FACTOR, rng=above
                    ),
                }
            )
        got = _regime_trials(spawn_rngs(seed, 3), n_nodes, n_agents, radius_below)
        assert got == expected


class TestPushPull:
    def test_complete_graph_is_fast(self):
        graph = nx.complete_graph(32)
        result = push_pull_rounds(graph, rng=0)
        assert result.completed
        assert result.rounds <= 12

    def test_path_graph_completes(self):
        graph = nx.path_graph(16)
        result = push_pull_rounds(graph, rng=1)
        assert result.completed

    def test_informed_curve_monotone(self):
        graph = nx.cycle_graph(20)
        result = push_pull_rounds(graph, rng=2)
        assert np.all(np.diff(result.informed_curve) >= 0)
        assert result.informed_curve[0] == 1

    def test_disconnected_graph_incomplete(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        # nodes 2 and 3 are isolated: the rumor can never reach them
        result = push_pull_rounds(graph, source=0, max_rounds=50, rng=3)
        assert not result.completed

    def test_explicit_source(self):
        graph = nx.star_graph(10)
        result = push_pull_rounds(graph, source=0, rng=4)
        assert result.completed

    def test_deterministic_given_seed(self):
        graph = nx.grid_2d_graph(5, 5)
        a = push_pull_rounds(graph, rng=9)
        b = push_pull_rounds(graph, rng=9)
        assert a.rounds == b.rounds
