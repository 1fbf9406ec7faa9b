"""Tests for repro.core.config."""

from __future__ import annotations

import pytest

from repro.core.config import BroadcastConfig, GossipConfig, default_max_steps
from repro.core.runner import requested_pair, resolve_pair
from repro.util.validation import ValidationError


class TestDefaultMaxSteps:
    def test_positive(self):
        assert default_max_steps(1024, 16) > 0

    def test_grows_with_n(self):
        assert default_max_steps(4096, 16) > default_max_steps(1024, 16)

    def test_shrinks_with_k(self):
        assert default_max_steps(1024, 64) < default_max_steps(1024, 4)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            default_max_steps(0, 4)


class TestBroadcastConfig:
    def test_defaults(self):
        config = BroadcastConfig(n_nodes=256, n_agents=8)
        assert config.radius == 0.0
        assert config.source is None
        assert config.mobility == "random_walk"
        assert config.horizon == default_max_steps(256, 8)

    def test_explicit_horizon(self):
        config = BroadcastConfig(n_nodes=256, n_agents=8, max_steps=123)
        assert config.horizon == 123

    def test_valid_source(self):
        config = BroadcastConfig(n_nodes=256, n_agents=8, source=7)
        assert config.source == 7

    def test_source_out_of_range(self):
        with pytest.raises(ValidationError):
            BroadcastConfig(n_nodes=256, n_agents=8, source=8)
        with pytest.raises(ValidationError):
            BroadcastConfig(n_nodes=256, n_agents=8, source=-1)

    def test_negative_radius(self):
        with pytest.raises(ValidationError):
            BroadcastConfig(n_nodes=256, n_agents=8, radius=-1.0)

    def test_invalid_counts(self):
        with pytest.raises(ValidationError):
            BroadcastConfig(n_nodes=0, n_agents=8)
        with pytest.raises(ValidationError):
            BroadcastConfig(n_nodes=256, n_agents=0)

    def test_invalid_max_steps(self):
        with pytest.raises(ValidationError):
            BroadcastConfig(n_nodes=256, n_agents=8, max_steps=0)

    def test_frozen(self):
        config = BroadcastConfig(n_nodes=256, n_agents=8)
        with pytest.raises(Exception):
            config.n_nodes = 512  # type: ignore[misc]

    def test_mobility_kwargs_stored(self):
        config = BroadcastConfig(
            n_nodes=256, n_agents=8, mobility="jump", mobility_kwargs={"jump_radius": 2}
        )
        assert config.mobility_kwargs["jump_radius"] == 2


class TestGossipConfig:
    def test_defaults(self):
        config = GossipConfig(n_nodes=144, n_agents=6)
        assert config.radius == 0.0
        assert config.horizon == default_max_steps(144, 6)

    def test_explicit_horizon(self):
        config = GossipConfig(n_nodes=144, n_agents=6, max_steps=50)
        assert config.horizon == 50

    def test_invalid(self):
        with pytest.raises(ValidationError):
            GossipConfig(n_nodes=144, n_agents=0)
        with pytest.raises(ValidationError):
            GossipConfig(n_nodes=144, n_agents=4, radius=-2)


class TestConnectivityField:
    """The connectivity engine is a request of the run, not a config field."""

    def test_defaults_to_auto(self):
        assert requested_pair() == ("auto", "auto")
        for config in (
            BroadcastConfig(n_nodes=100, n_agents=4),
            GossipConfig(n_nodes=100, n_agents=4),
        ):
            assert resolve_pair(config) == resolve_pair(config, "auto", "auto")

    def test_explicit_modes_accepted(self):
        config = BroadcastConfig(n_nodes=100, n_agents=4)
        for mode in ("auto", "recompute", "incremental"):
            assert requested_pair(connectivity=mode)[1] == mode
        for mode in ("recompute", "incremental"):
            assert resolve_pair(config, connectivity=mode)[1] == mode

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValidationError):
            resolve_pair(BroadcastConfig(n_nodes=100, n_agents=4), connectivity="magic")
        with pytest.raises(ValidationError):
            resolve_pair(GossipConfig(n_nodes=100, n_agents=4), connectivity="magic")


def test_described_specs_name_neither_backend_nor_connectivity():
    """Unit keys hash the described spec, and must not depend on how a run executes."""
    from repro.dissemination.kernels import BroadcastProcess, GossipProcess
    from repro.exec.units import describe_payload

    for process in (
        BroadcastProcess(BroadcastConfig(n_nodes=100, n_agents=4)),
        GossipProcess(GossipConfig(n_nodes=100, n_agents=4)),
    ):
        described = describe_payload(process.spec)["kwargs"]["config"]
        assert "backend" not in described
        assert "connectivity" not in described
