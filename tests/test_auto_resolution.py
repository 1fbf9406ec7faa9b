"""The ``auto`` policy: one backend × connectivity table, and the ⌊r⌋ rule.

``repro.core.runner.auto_pair`` resolves backend and connectivity as one
pair for every runner (broadcast, gossip, process kernels) and the sweep
executor.  This module pins its table row by row, with and without a
compiled provider, plus explicit requests, the process-wide overrides and
the serial case; checks that every step-loop path advances the same step
counter; and verifies that ``auto`` at radius ``r`` equals the numpy
recompute reference at ``r`` (serial, raw radius) and at ``⌊r⌋``, bit for
bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compiled
from repro.core import batched as batched_module
from repro.core.config import BroadcastConfig, GossipConfig
from repro.core.gossip import GossipSimulation
from repro.core.runner import (
    backend_override,
    connectivity_override,
    resolve_backend,
    resolve_connectivity,
    resolve_pair,
    run_broadcast_replications,
    run_gossip_replications,
)
from repro.core.simulation import BroadcastSimulation
from repro.dissemination.kernels import (
    FrogProcess,
    PredatorPreyProcess,
    resolve_process_backend,
    resolve_process_connectivity,
    resolve_process_pair,
)
from repro.grid.obstacles import ObstacleGrid
from repro.obs.metrics import global_registry

from strategies import max_examples, seeds

RADII = (0.0, 0.5, 1.0, 1.5, 2.0, 4.0)

#: kind -> {radius: ((backend, connectivity) with a provider, ... without one)}.
TABLE = {
    "broadcast": {
        0.0: (("compiled", "incremental"), ("batched", "incremental")),
        0.5: (("compiled", "incremental"), ("batched", "incremental")),
        1.0: (("compiled", "incremental"), ("batched", "incremental")),
        1.5: (("compiled", "incremental"), ("batched", "incremental")),
        2.0: (("compiled", "incremental"), ("batched", "recompute")),
        4.0: (("compiled", "incremental"), ("batched", "recompute")),
    },
    "gossip": {
        0.0: (("compiled", "incremental"), ("batched", "incremental")),
        0.5: (("compiled", "incremental"), ("batched", "incremental")),
        1.0: (("compiled", "incremental"), ("batched", "incremental")),
        1.5: (("compiled", "incremental"), ("batched", "incremental")),
        2.0: (("compiled", "incremental"), ("batched", "recompute")),
        4.0: (("compiled", "incremental"), ("batched", "recompute")),
    },
    # Frog: at r_eff = 0 the numpy same-cell engine beats the compiled
    # labels kernel for every label process (process kernels get no
    # compiled mobility or flood).
    "label process": {
        0.0: (("batched", "incremental"), ("batched", "incremental")),
        0.5: (("batched", "incremental"), ("batched", "incremental")),
        1.0: (("compiled", "incremental"), ("batched", "incremental")),
        1.5: (("compiled", "incremental"), ("batched", "incremental")),
        2.0: (("compiled", "incremental"), ("batched", "recompute")),
        4.0: (("compiled", "incremental"), ("batched", "recompute")),
    },
    # Predator-prey: co-location labels below r = 1, direct pairs from 1 up.
    "pair process": {
        0.0: (("batched", "incremental"), ("batched", "incremental")),
        0.5: (("batched", "incremental"), ("batched", "incremental")),
        1.0: (("compiled", "recompute"), ("batched", "recompute")),
        1.5: (("compiled", "recompute"), ("batched", "recompute")),
        2.0: (("compiled", "recompute"), ("batched", "recompute")),
        4.0: (("compiled", "recompute"), ("batched", "recompute")),
    },
}

requires_compiled = pytest.mark.skipif(
    not repro.compiled.available(), reason="no repro.compiled provider on this host"
)


@pytest.fixture
def provider_env(monkeypatch):
    """Pin ``REPRO_COMPILED_PROVIDER`` and re-probe; restores on teardown."""

    def pin(value: str) -> None:
        monkeypatch.setenv("REPRO_COMPILED_PROVIDER", value)
        repro.compiled.reset_probe()

    yield pin
    monkeypatch.undo()
    repro.compiled.reset_probe()


def _resolve(kind: str, radius: float) -> tuple[str, str]:
    """The resolved pair, checked against both single-choice resolvers."""
    if kind in ("broadcast", "gossip"):
        cls = BroadcastConfig if kind == "broadcast" else GossipConfig
        config = cls(n_nodes=100, n_agents=4, radius=radius)
        pair = resolve_pair(config)
        assert pair == (resolve_backend(config), resolve_connectivity(config))
        return pair
    if kind == "label process":
        process = FrogProcess(100, 4, radius=radius)
    else:
        process = PredatorPreyProcess(100, 2, 3, capture_radius=radius)
    pair = resolve_process_pair(process)
    assert pair == (resolve_process_backend(process), resolve_process_connectivity(process))
    return pair


@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("kind", list(TABLE))
@pytest.mark.parametrize("provider", ["active", "none"])
def test_resolution_table(provider_env, provider, kind, radius):
    if provider == "none":
        provider_env("none")
    with_provider, without = TABLE[kind][radius]
    expected = with_provider if repro.compiled.available() else without
    assert _resolve(kind, radius) == expected


def test_explicit_requests_win():
    config = BroadcastConfig(n_nodes=100, n_agents=4, radius=1.0)
    assert resolve_pair(config, "batched") == ("batched", "incremental")
    assert resolve_pair(config, "serial") == ("serial", "incremental")
    assert resolve_pair(config, connectivity="incremental")[1] == "incremental"
    assert resolve_pair(config, "compiled", "incremental") == ("compiled", "incremental")
    wide = BroadcastConfig(n_nodes=100, n_agents=4, radius=2.5)
    assert resolve_pair(wide, "batched") == ("batched", "recompute")
    fields = BroadcastConfig(
        n_nodes=100, n_agents=4, radius=1.0, backend="batched", connectivity="recompute"
    )
    assert resolve_pair(fields) == ("batched", "recompute")
    assert resolve_pair(fields, "serial", "incremental") == ("serial", "incremental")


def test_explicit_compiled_follows_the_compiled_column():
    """Resolution alone: no provider is needed to name the pair."""
    for radius in (0.0, 0.5, 1.0, 4.0):
        config = BroadcastConfig(n_nodes=100, n_agents=4, radius=radius)
        assert resolve_pair(config, "compiled") == ("compiled", "incremental")
        assert resolve_pair(config, "compiled", "recompute") == ("compiled", "recompute")


@requires_compiled
def test_label_process_recompute_request_keeps_compiled():
    process = FrogProcess(100, 4, radius=0.0)
    assert resolve_process_pair(process, connectivity="recompute") == ("compiled", "recompute")
    assert resolve_process_pair(process, "compiled") == ("compiled", "incremental")


def test_overrides_beat_config_fields_not_arguments():
    config = BroadcastConfig(n_nodes=100, n_agents=4, radius=1.0, backend="serial")
    with backend_override("batched"):
        assert resolve_pair(config) == ("batched", "incremental")
        assert resolve_pair(config, "serial")[0] == "serial"
        with connectivity_override("recompute"):
            assert resolve_pair(config) == ("batched", "recompute")
            assert resolve_pair(config, connectivity="incremental")[1] == "incremental"
    process = FrogProcess(100, 4, radius=1.0)
    with backend_override("batched"), connectivity_override("recompute"):
        assert resolve_process_pair(process) == ("batched", "recompute")
        assert resolve_process_pair(process, "serial", "incremental") == ("serial", "incremental")


@pytest.mark.parametrize("radius", RADII)
def test_serial_runs_resolve_for_the_serial_backend(radius):
    """Serial-only configs and direct simulations keep the numpy rule."""
    expected = "incremental" if radius < 2 else "recompute"
    frontier = BroadcastConfig(n_nodes=100, n_agents=4, radius=radius, record_frontier=True)
    assert resolve_pair(frontier) == ("serial", expected)
    config = BroadcastConfig(n_nodes=100, n_agents=4, radius=radius)
    assert (BroadcastSimulation(config, rng=0)._engine is not None) == (expected == "incremental")
    gossip = GossipConfig(n_nodes=100, n_agents=4, radius=radius)
    assert (GossipSimulation(gossip, rng=0)._engine is not None) == (expected == "incremental")


def test_sweep_units_carry_the_resolved_pair(monkeypatch):
    from repro.analysis.sweep import ParameterSweep
    from repro.exec import SweepExecutor

    seen = []
    original = SweepExecutor.decompose

    def recording(self, *args, **kwargs):
        seen.append((kwargs["backend"], kwargs["connectivity"]))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SweepExecutor, "decompose", recording)
    sweep = ParameterSweep("radius", [0.5, 1.5, 3.0], {"n_nodes": 49, "n_agents": 3})
    with SweepExecutor(jobs=1) as executor:
        executor.run_sweep(
            sweep, lambda point: BroadcastConfig(max_steps=20, **point.as_kwargs()), 2, seed=0
        )
    assert seen == [
        resolve_pair(BroadcastConfig(n_nodes=49, n_agents=3, radius=r)) for r in (0.5, 1.5, 3.0)
    ]


@requires_compiled
@pytest.mark.parametrize("connectivity", [None, "incremental"])
def test_compiled_incremental_runs_the_compiled_engine(monkeypatch, connectivity):
    """Above r_eff = 0, compiled × incremental (auto or explicit) labels
    through ``CompiledDeltaEngine``, never the numpy engine."""
    from repro.compiled.engine import CompiledDeltaEngine
    from repro.connectivity.incremental import DeltaConnectivityEngine

    calls = {CompiledDeltaEngine: 0, DeltaConnectivityEngine: 0}
    for cls in calls:
        original = cls.step

        def counting(self, *args, _cls=cls, _original=original, **kwargs):
            calls[_cls] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "step", counting)
    config = BroadcastConfig(n_nodes=100, n_agents=6, radius=1.0, max_steps=30)
    compiled = run_broadcast_replications(
        config, 3, seed=4, backend="compiled", connectivity=connectivity
    )
    assert calls[CompiledDeltaEngine] > 0 and calls[DeltaConnectivityEngine] == 0
    serial = run_broadcast_replications(
        config, 3, seed=4, backend="serial", connectivity="recompute"
    )
    assert np.array_equal(compiled[0].values, serial[0].values)


# --------------------------------------------------------------------------- #
# Every step-loop path advances repro_sim_steps_total
# --------------------------------------------------------------------------- #
def _steps_total() -> float:
    return sum(
        metric.value
        for metric in global_registry().collect()
        if metric.name == "repro_sim_steps_total"
    )


@pytest.mark.parametrize("radius", [0.5, 1.5])
def test_every_path_advances_the_step_counter(monkeypatch, radius):
    config = BroadcastConfig(n_nodes=144, n_agents=6, radius=radius, max_steps=400)
    fused_runs = []
    original_fused = batched_module._fused_broadcast_usable

    def spying(*args, **kwargs):
        usable = original_fused(*args, **kwargs)
        fused_runs.append(usable)
        return usable

    monkeypatch.setattr(batched_module, "_fused_broadcast_usable", spying)
    paths = [("serial", "recompute"), ("batched", "recompute"), ("batched", "incremental")]
    if repro.compiled.available():
        # The labels kernel, then auto: the fused driver at 0.5, the
        # compiled engine at 1.5.
        paths += [("compiled", "recompute"), ("compiled", "auto")]
    totals = set()
    for backend, connectivity in paths:
        before = _steps_total()
        _summary, results = run_broadcast_replications(
            config, 4, seed=11, backend=backend, connectivity=connectivity
        )
        trial_steps = sum(result.n_steps for result in results)
        assert _steps_total() - before == trial_steps, (backend, connectivity)
        totals.add(trial_steps)
    assert len(totals) == 1
    if repro.compiled.available():
        has_driver = repro.compiled.require_ops().has_block_driver
        assert fused_runs[-1] == (has_driver and radius < 1)


# --------------------------------------------------------------------------- #
# G_t(r) = G_t(⌊r⌋): auto at r ≡ numpy recompute at r and at ⌊r⌋
# --------------------------------------------------------------------------- #
def _block_draw_mobility(name: str, side: int) -> tuple[str, dict]:
    return {
        "lazy": ("random_walk", {}),
        "brownian": ("brownian", {"sigma": 1.3}),
        "obstacle": ("obstacle_walk", {"domain": ObstacleGrid.with_wall(side, gap_width=2)}),
    }[name]


def _broadcast_outcome(results) -> list[tuple]:
    return [
        (r.broadcast_time, r.completed, r.n_steps, r.n_informed, r.informed_curve.tolist())
        for r in results
    ]


def _gossip_outcome(results) -> list[tuple]:
    return [
        (
            r.gossip_time,
            r.completed,
            r.n_steps,
            r.min_rumors_known,
            r.first_rumor_broadcast_time,
            r.knowledge_curve.tolist(),
        )
        for r in results
    ]


@settings(max_examples=max_examples(30), deadline=None)
@given(
    radius=st.floats(0.0, 6.0, exclude_max=True, allow_nan=False),
    mobility=st.sampled_from(["lazy", "brownian", "obstacle"]),
    side=st.integers(6, 11),
    k=st.integers(2, 8),
    n_replications=st.integers(1, 4),
    seed=seeds,
)
def test_auto_equals_recompute_at_r_and_floor_r(radius, mobility, side, k, n_replications, seed):
    """The serial reference labels with the raw radius, the batched one with ⌊r⌋."""
    name, kwargs = _block_draw_mobility(mobility, side)
    common = dict(n_nodes=side * side, n_agents=k, mobility=name, mobility_kwargs=kwargs)
    references = (("serial", radius), ("batched", float(math.floor(radius))))
    broadcast = BroadcastConfig(radius=radius, max_steps=80, **common)
    auto = run_broadcast_replications(broadcast, n_replications, seed=seed)[1]
    for backend, r in references:
        reference = run_broadcast_replications(
            BroadcastConfig(radius=r, max_steps=80, **common), n_replications, seed=seed,
            backend=backend, connectivity="recompute",
        )[1]
        assert _broadcast_outcome(auto) == _broadcast_outcome(reference)
    gossip = GossipConfig(radius=radius, max_steps=40, **common)
    auto = run_gossip_replications(gossip, n_replications, seed=seed)[1]
    for backend, r in references:
        reference = run_gossip_replications(
            GossipConfig(radius=r, max_steps=40, **common), n_replications, seed=seed,
            backend=backend, connectivity="recompute",
        )[1]
        assert _gossip_outcome(auto) == _gossip_outcome(reference)
