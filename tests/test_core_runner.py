"""Tests for repro.core.runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batched import (
    run_broadcast_replications_batched,
    run_gossip_replications_batched,
    supports_batched,
)
from repro.core.config import BroadcastConfig, GossipConfig
from repro.core.runner import (
    ReplicationSummary,
    backend_override,
    replicate,
    resolve_backend,
    run_broadcast_replications,
    run_gossip_replications,
    summarise_values,
)
from repro.util.validation import ValidationError


def _auto_fast() -> str:
    """What ``"auto"`` resolves to on a supported config on this host."""
    import repro.compiled

    return "compiled" if repro.compiled.available() else "batched"


class TestSummariseValues:
    def test_basic_stats(self):
        summary = summarise_values([10, 20, 30])
        assert summary.n_replications == 3
        assert summary.n_completed == 3
        assert summary.mean == pytest.approx(20.0)
        assert summary.median == pytest.approx(20.0)
        assert summary.min == 10
        assert summary.max == 30
        assert summary.completion_rate == 1.0

    def test_incomplete_marked_by_negative(self):
        summary = summarise_values([10, -1, 30])
        assert summary.n_completed == 2
        assert summary.completion_rate == pytest.approx(2 / 3)
        assert summary.mean == pytest.approx(20.0)

    def test_all_incomplete(self):
        summary = summarise_values([-1, -1])
        assert summary.n_completed == 0
        assert np.isnan(summary.mean)
        assert np.isnan(summary.median)

    def test_empty(self):
        summary = summarise_values([])
        assert summary.n_replications == 0
        assert summary.completion_rate == 0.0

    def test_single_value_std(self):
        assert summarise_values([5]).std == 0.0


class TestReplicate:
    def test_runs_factory_per_replication(self):
        calls = []

        def factory(rng):
            calls.append(1)
            return float(rng.integers(0, 100))

        summary = replicate(factory, 5, seed=0)
        assert len(calls) == 5
        assert summary.n_replications == 5

    def test_deterministic(self):
        def factory(rng):
            return float(rng.integers(0, 10**9))

        a = replicate(factory, 3, seed=1)
        b = replicate(factory, 3, seed=1)
        assert np.array_equal(a.values, b.values)

    def test_invalid_count(self):
        with pytest.raises(ValidationError):
            replicate(lambda rng: 0.0, 0, seed=0)


class TestBroadcastReplications:
    def test_returns_summary_and_results(self):
        config = BroadcastConfig(n_nodes=144, n_agents=8)
        summary, results = run_broadcast_replications(config, 3, seed=0)
        assert isinstance(summary, ReplicationSummary)
        assert len(results) == 3
        assert summary.completion_rate == 1.0
        assert all(res.completed for res in results)

    def test_values_match_results(self):
        config = BroadcastConfig(n_nodes=144, n_agents=8)
        summary, results = run_broadcast_replications(config, 3, seed=1)
        assert summary.values.tolist() == [float(r.broadcast_time) for r in results]

    def test_deterministic_given_seed(self):
        config = BroadcastConfig(n_nodes=144, n_agents=8)
        a, _ = run_broadcast_replications(config, 3, seed=5)
        b, _ = run_broadcast_replications(config, 3, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_replications_are_independent(self):
        config = BroadcastConfig(n_nodes=1024, n_agents=8)
        summary, _ = run_broadcast_replications(config, 4, seed=3)
        assert len(set(summary.values.tolist())) > 1


class TestGossipReplications:
    def test_returns_summary_and_results(self):
        config = GossipConfig(n_nodes=100, n_agents=6)
        summary, results = run_gossip_replications(config, 2, seed=0)
        assert len(results) == 2
        assert summary.n_completed == 2
        assert all(res.gossip_time >= 0 for res in results)


class TestBackendSeam:
    def test_auto_resolves_to_fastest_for_paper_model(self):
        config = BroadcastConfig(n_nodes=144, n_agents=8)
        assert resolve_backend(config) == _auto_fast()
        # The fused r = 0 driver runs broadcasts only; gossip at r = 0 is
        # fastest on batched x incremental, with or without a provider.
        assert resolve_backend(GossipConfig(n_nodes=100, n_agents=4)) == "batched"
        assert resolve_backend(GossipConfig(n_nodes=100, n_agents=4, radius=1.0)) == _auto_fast()

    def test_every_builtin_mobility_is_batched_under_auto(self):
        for mobility, kwargs in [
            ("random_walk", {}),
            ("random_walk", {"rule": "simple"}),
            ("static", {}),
            ("jump", {"jump_radius": 2}),
            ("brownian", {"sigma": 1.0}),
            ("waypoint", {}),
        ]:
            config = BroadcastConfig(
                n_nodes=144, n_agents=8, mobility=mobility, mobility_kwargs=kwargs
            )
            assert supports_batched(config), mobility
            assert resolve_backend(config) == _auto_fast()
            gossip = GossipConfig(
                n_nodes=100, n_agents=4, mobility=mobility, mobility_kwargs=kwargs
            )
            assert supports_batched(gossip), mobility
            assert resolve_backend(gossip) == "batched"

    def test_obstacle_walk_is_batched_under_auto(self):
        from repro.grid.obstacles import ObstacleGrid

        domain = ObstacleGrid.with_wall(12, gap_width=2)
        config = BroadcastConfig(
            n_nodes=144, n_agents=8, mobility="obstacle_walk",
            mobility_kwargs={"domain": domain},
        )
        assert supports_batched(config)
        assert resolve_backend(config) == _auto_fast()

    def test_auto_falls_back_to_serial_when_unsupported(self):
        # The frontier and coverage observables run on the batched face.
        assert supports_batched(BroadcastConfig(n_nodes=144, n_agents=8, record_frontier=True))
        assert supports_batched(BroadcastConfig(n_nodes=144, n_agents=8, record_coverage=True))
        # Unknown mobility kwargs must fall back to serial, which rejects
        # them — the batched backend must not accept what serial refuses.
        bad_kwargs = BroadcastConfig(
            n_nodes=144, n_agents=8, mobility_kwargs={"rule": "lazy", "speed": 2}
        )
        assert not supports_batched(bad_kwargs)
        assert resolve_backend(bad_kwargs) == "serial"
        with pytest.raises(TypeError):
            run_broadcast_replications(bad_kwargs, 1, seed=0)
        assert not supports_batched(
            GossipConfig(n_nodes=100, n_agents=4, mobility_kwargs={"rul": "simple"})
        )
        # An observed broadcast at r = 0 is no fused-driver run: batched.
        config = BroadcastConfig(n_nodes=144, n_agents=8, record_frontier=True)
        assert resolve_backend(config) == "batched"

    def test_argument_overrides_config_backend(self):
        config = BroadcastConfig(n_nodes=144, n_agents=8)
        with backend_override("serial"):
            assert resolve_backend(config) == "serial"
            assert resolve_backend(config, backend="batched") == "batched"
            assert resolve_backend(config, backend="auto") == _auto_fast()

    def test_invalid_backend_rejected(self):
        config = BroadcastConfig(n_nodes=144, n_agents=8)
        with pytest.raises(ValidationError):
            resolve_backend(config, backend="gpu")

    def test_explicit_batched_on_unsupported_config_raises(self):
        config = BroadcastConfig(n_nodes=144, n_agents=8, mobility_kwargs={"speed": 2})
        with pytest.raises(ValueError):
            run_broadcast_replications_batched(config, 2, seed=0)
        frontier = BroadcastConfig(n_nodes=144, n_agents=8, record_frontier=True, max_steps=40)
        _, results = run_broadcast_replications_batched(frontier, 2, seed=0)
        assert all(res.frontier_history is not None for res in results)
        gossip = GossipConfig(n_nodes=100, n_agents=4, mobility_kwargs={"bad": 1})
        with pytest.raises(ValueError):
            run_gossip_replications_batched(gossip, 2, seed=0)

    def test_backends_agree_bit_for_bit(self):
        config = BroadcastConfig(n_nodes=256, n_agents=12)
        serial, _ = run_broadcast_replications(config, 4, seed=9, backend="serial")
        batched, _ = run_broadcast_replications(config, 4, seed=9, backend="batched")
        assert np.array_equal(serial.values, batched.values)

    def test_serial_fallback_configs_still_run(self):
        config = BroadcastConfig(n_nodes=144, n_agents=6, record_frontier=True, max_steps=40)
        summary, results = run_broadcast_replications(config, 2, seed=0)
        assert summary.n_replications == 2
        assert all(res.frontier_history is not None for res in results)
