"""Property suite: the incremental connectivity engine ≡ the recompute path.

The contract of :mod:`repro.connectivity.incremental` is exact equivalence:
for any trajectory, the engine's per-step labels describe the same partition
as ``visibility_components``, and simulations driven by either engine return
bit-for-bit identical results — across mobility kernels, radii (including
the ``r = 0`` same-cell path), backends (including mid-run compaction of the
batched loop) and sharded execution.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.incremental import (
    DeltaConnectivityEngine,
    labels_equivalent,
)
from repro.connectivity.visibility import same_cell_labels, visibility_components
from repro.core.config import BroadcastConfig
from repro.core.runner import run_broadcast_replications, run_gossip_replications
from repro.exec import SweepExecutor, execution_override
from repro.grid.lattice import Grid2D
from repro.mobility import make_mobility
from tests.strategies import (
    broadcast_configs,
    chunk_sizes,
    gossip_configs,
    max_examples,
    point_sets,
    replication_counts,
    seeds,
)

#: Radii exercising the same-cell path, the one-node-per-cell delta engine
#: and the multi-node-cell engine (incl. a fractional radius).
engine_radii = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])

#: Mobility kernels with distinct stepping behaviour (single-cell lazy and
#: simple steps, multi-cell jumps, waypoint trajectories, Brownian moves).
kernels = st.sampled_from(
    [
        ("random_walk", {}),
        ("random_walk", {"rule": "simple"}),
        ("jump", {"jump_radius": 2}),
        ("waypoint", {}),
        ("brownian", {"sigma": 1.0}),
    ]
)


def assert_broadcast_results_identical(lhs, rhs) -> None:
    """Trial-for-trial equality of two broadcast replication outcomes."""
    (summary_a, results_a), (summary_b, results_b) = lhs, rhs
    np.testing.assert_array_equal(summary_a.values, summary_b.values)
    assert len(results_a) == len(results_b)
    for res_a, res_b in zip(results_a, results_b):
        assert res_a.broadcast_time == res_b.broadcast_time
        assert res_a.completed == res_b.completed
        assert res_a.n_steps == res_b.n_steps
        assert res_a.n_informed == res_b.n_informed
        np.testing.assert_array_equal(res_a.informed_curve, res_b.informed_curve)


def assert_gossip_results_identical(lhs, rhs) -> None:
    """Trial-for-trial equality of two gossip replication outcomes."""
    (summary_a, results_a), (summary_b, results_b) = lhs, rhs
    np.testing.assert_array_equal(summary_a.values, summary_b.values)
    for res_a, res_b in zip(results_a, results_b):
        assert res_a.gossip_time == res_b.gossip_time
        assert res_a.n_steps == res_b.n_steps
        assert res_a.min_rumors_known == res_b.min_rumors_known
        assert res_a.first_rumor_broadcast_time == res_b.first_rumor_broadcast_time
        np.testing.assert_array_equal(res_a.knowledge_curve, res_b.knowledge_curve)


# --------------------------------------------------------------------------- #
# Engine vs recompute, label level
# --------------------------------------------------------------------------- #
@settings(max_examples=max_examples(60), deadline=None)
@given(
    side=st.integers(4, 14),
    n_agents=st.integers(1, 10),
    radius=engine_radii,
    kernel=kernels,
    seed=seeds,
)
def test_engine_partitions_match_recompute_on_kernel_trajectories(
    side, n_agents, radius, kernel, seed
):
    """Per-step engine labels ≡ recompute labels along real trajectories."""
    name, kwargs = kernel
    grid = Grid2D(side)
    mobility = make_mobility(name, grid, **kwargs)
    rng = np.random.default_rng(seed)
    state = mobility.init_state(n_agents, rng)
    positions = mobility.initial_positions(n_agents, rng)
    engine = DeltaConnectivityEngine(n_agents, radius, side)
    for _ in range(25):
        expected = visibility_components(positions, radius)
        got = engine.step(positions)
        assert labels_equivalent(got, expected)
        # Engine labels must be valid flooding input: within [0, k).
        assert got.min() >= 0 and got.max() < n_agents
        positions = mobility.step(positions, rng, state)


@settings(max_examples=max_examples(40), deadline=None)
@given(
    side=st.integers(3, 8),
    n_agents=st.integers(4, 14),
    radius=st.sampled_from([1.0, 2.0]),
    seed=seeds,
)
def test_engine_survives_edge_deletion_heavy_trajectories(side, n_agents, radius, seed):
    """Dense near-threshold configurations churn edges heavily every step.

    With many agents on a tiny grid most steps delete and create several
    edges at once, exercising the bounded-repair path (dissolve + re-union)
    far beyond the sparse regime.
    """
    rng = np.random.default_rng(seed)
    engine = DeltaConnectivityEngine(n_agents, radius, side)
    positions = rng.integers(0, side, size=(n_agents, 2))
    for _ in range(40):
        assert labels_equivalent(
            engine.step(positions), visibility_components(positions, radius)
        )
        step = rng.integers(-1, 2, size=(n_agents, 2))
        teleport = rng.random(n_agents) < 0.2
        positions = np.clip(positions + step, 0, side - 1)
        positions[teleport] = rng.integers(0, side, size=(int(teleport.sum()), 2))


@settings(max_examples=max_examples(50), deadline=None)
@given(points=point_sets(max_coord=12, min_size=1, max_size=30))
def test_same_cell_labels_match_r0_components(points):
    """The scatter/gather same-cell path groups exactly like ``r = 0``."""
    side = 13
    expected = visibility_components(points, 0.0)
    scratch = np.empty(side * side, dtype=np.int64)
    assert labels_equivalent(same_cell_labels(points, side, scratch=scratch), expected)
    # A second pass through the same dirty scratch must still be exact.
    assert labels_equivalent(same_cell_labels(points, side, scratch=scratch), expected)
    assert labels_equivalent(same_cell_labels(points, side), expected)


@settings(max_examples=max_examples(25), deadline=None)
@given(
    side=st.integers(4, 10),
    n_agents=st.integers(2, 6),
    n_trials=st.integers(1, 5),
    radius=st.sampled_from([0.0, 1.0, 2.0]),
    seed=seeds,
)
def test_engine_batched_labels_match_per_trial_with_compaction(
    side, n_agents, n_trials, radius, seed
):
    """Batched engine labels ≡ per-trial recompute, across random compaction."""
    rng = np.random.default_rng(seed)
    engine = DeltaConnectivityEngine(n_agents, radius, side, n_trials=n_trials)
    positions = rng.integers(0, side, size=(n_trials, n_agents, 2))
    active = np.arange(n_trials)
    for _ in range(25):
        labels = engine.step(positions, active)
        for row in range(active.size):
            assert labels_equivalent(
                labels[row], visibility_components(positions[row], radius)
            )
        # Labels of different trials must never collide (flooding relies
        # on batch-global distinctness).
        flat = [set(labels[row].tolist()) for row in range(active.size)]
        for i in range(len(flat)):
            for j in range(i + 1, len(flat)):
                assert not (flat[i] & flat[j])
        positions = np.clip(
            positions + rng.integers(-1, 2, size=positions.shape), 0, side - 1
        )
        if active.size > 1 and rng.random() < 0.2:
            drop = rng.integers(active.size)
            keep = np.ones(active.size, dtype=bool)
            keep[drop] = False
            active = active[keep]
            positions = positions[keep]


# --------------------------------------------------------------------------- #
# Engine vs recompute, simulation level (bit-for-bit)
# --------------------------------------------------------------------------- #
@settings(max_examples=max_examples(25), deadline=None)
@given(
    config=broadcast_configs(),
    n_replications=replication_counts,
    seed=seeds,
    backend=st.sampled_from(["serial", "batched"]),
)
def test_broadcast_incremental_is_bit_for_bit(config, n_replications, seed, backend):
    """``connectivity="incremental"`` ≡ ``"recompute"`` on both backends."""
    reference = run_broadcast_replications(
        config, n_replications, seed=seed, backend=backend, connectivity="recompute"
    )
    incremental = run_broadcast_replications(
        config, n_replications, seed=seed, backend=backend, connectivity="incremental"
    )
    assert_broadcast_results_identical(reference, incremental)


@settings(max_examples=max_examples(15), deadline=None)
@given(
    config=gossip_configs(),
    n_replications=st.integers(1, 3),
    seed=seeds,
    backend=st.sampled_from(["serial", "batched"]),
)
def test_gossip_incremental_is_bit_for_bit(config, n_replications, seed, backend):
    """Gossip too: engine choice never changes a result."""
    reference = run_gossip_replications(
        config, n_replications, seed=seed, backend=backend, connectivity="recompute"
    )
    incremental = run_gossip_replications(
        config, n_replications, seed=seed, backend=backend, connectivity="incremental"
    )
    assert_gossip_results_identical(reference, incremental)


@settings(max_examples=max_examples(20), deadline=None)
@given(
    config=broadcast_configs(),
    n_replications=replication_counts,
    seed=seeds,
    kernel=kernels,
)
def test_broadcast_incremental_covers_all_kernels(config, n_replications, seed, kernel):
    """Engine equivalence holds for every registered mobility kernel."""
    name, kwargs = kernel
    config = dataclasses.replace(config, mobility=name, mobility_kwargs=kwargs)
    reference = run_broadcast_replications(
        config, n_replications, seed=seed, connectivity="recompute"
    )
    incremental = run_broadcast_replications(
        config, n_replications, seed=seed, connectivity="incremental"
    )
    assert_broadcast_results_identical(reference, incremental)


@settings(max_examples=max_examples(12), deadline=None)
@given(
    config=broadcast_configs(max_side=9, max_agents=6),
    n_replications=replication_counts,
    seed=seeds,
    chunk_size=chunk_sizes,
)
def test_broadcast_incremental_is_chunking_invariant(
    config, n_replications, seed, chunk_size
):
    """Engine state never leaks across executor chunk boundaries.

    A sharded run re-derives each chunk's engine from its own trajectory, so
    chunked incremental execution must equal both the unchunked incremental
    run and the recompute reference.
    """
    reference = run_broadcast_replications(
        config, n_replications, seed=seed, connectivity="recompute"
    )
    inline = run_broadcast_replications(
        config, n_replications, seed=seed, connectivity="incremental"
    )
    with execution_override(SweepExecutor(jobs=1, chunk_size=chunk_size)):
        sharded = run_broadcast_replications(
            config, n_replications, seed=seed, connectivity="incremental"
        )
    assert_broadcast_results_identical(reference, inline)
    assert_broadcast_results_identical(reference, sharded)


def test_connectivity_override_reaches_simulations():
    """The process-wide override mirrors ``backend_override``."""
    from repro.core.runner import connectivity_override, resolve_connectivity

    config = BroadcastConfig(n_nodes=100, n_agents=4, radius=1.0)
    for forced in ("recompute", "incremental"):
        with connectivity_override(forced):
            assert resolve_connectivity(config) == forced


def test_engine_fallback_mode_matches_recompute():
    """Key spaces beyond the table limit degrade to exact recomputation."""
    import repro.connectivity.incremental as incremental

    original = incremental.SAME_CELL_TABLE_LIMIT
    incremental.SAME_CELL_TABLE_LIMIT = 8
    try:
        engine = DeltaConnectivityEngine(5, 1.0, 9)
        assert engine._fallback
        rng = np.random.default_rng(0)
        positions = rng.integers(0, 9, size=(5, 2))
        for _ in range(10):
            assert labels_equivalent(
                engine.step(positions), visibility_components(positions, 1.0)
            )
            positions = np.clip(
                positions + rng.integers(-1, 2, size=(5, 2)), 0, 8
            )
    finally:
        incremental.SAME_CELL_TABLE_LIMIT = original


def test_engine_rejects_out_of_range_positions():
    engine = DeltaConnectivityEngine(3, 1.0, 5)
    engine.step(np.array([[0, 0], [2, 2], [4, 4]]))
    try:
        engine.step(np.array([[0, 0], [2, 2], [5, 4]]))
    except ValueError:
        pass
    else:  # pragma: no cover - defends the validation contract
        raise AssertionError("expected ValueError for out-of-grid position")


def test_engine_reset_rebuilds_cleanly():
    rng = np.random.default_rng(3)
    engine = DeltaConnectivityEngine(6, 1.0, 7)
    for _ in range(5):
        engine.step(rng.integers(0, 7, size=(6, 2)))
    engine.reset()
    positions = rng.integers(0, 7, size=(6, 2))
    assert labels_equivalent(
        engine.step(positions), visibility_components(positions, 1.0)
    )


# --------------------------------------------------------------------------- #
# Compiled engine and compiled-backend incremental runs
# --------------------------------------------------------------------------- #
import pytest  # noqa: E402

import repro.compiled  # noqa: E402

requires_compiled = pytest.mark.skipif(
    not repro.compiled.available(), reason="no repro.compiled provider on this host"
)


@requires_compiled
@settings(max_examples=max_examples(30), deadline=None)
@given(
    side=st.integers(4, 14),
    n_agents=st.integers(1, 10),
    radius=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    kernel=kernels,
    seed=seeds,
)
def test_compiled_engine_partitions_match_recompute_on_kernel_trajectories(
    side, n_agents, radius, kernel, seed
):
    """The compiled engine ≡ recompute along real trajectories."""
    from repro.compiled.engine import CompiledDeltaEngine

    ops = repro.compiled.require_ops()
    name, kwargs = kernel
    grid = Grid2D(side)
    mobility = make_mobility(name, grid, **kwargs)
    rng = np.random.default_rng(seed)
    state = mobility.init_state(n_agents, rng)
    positions = mobility.initial_positions(n_agents, rng)
    engine = CompiledDeltaEngine(ops, n_agents, radius)
    for _ in range(25):
        got = engine.step(positions[None, :, :], np.arange(1))
        assert labels_equivalent(got[0], visibility_components(positions, radius))
        positions = mobility.step(positions, rng, state)


@requires_compiled
@settings(max_examples=max_examples(20), deadline=None)
@given(
    side=st.integers(4, 10),
    n_agents=st.integers(2, 8),
    n_trials=st.integers(1, 5),
    radius=st.sampled_from([1.0, 2.0]),
    seed=seeds,
)
def test_compiled_engine_batched_labels_match_per_trial_with_compaction(
    side, n_agents, n_trials, radius, seed
):
    """Batched compiled-engine labels ≡ per-trial recompute, with compaction."""
    from repro.compiled.engine import CompiledDeltaEngine

    ops = repro.compiled.require_ops()
    rng = np.random.default_rng(seed)
    engine = CompiledDeltaEngine(ops, n_agents, radius, n_trials=n_trials)
    positions = rng.integers(0, side, size=(n_trials, n_agents, 2))
    active = np.arange(n_trials)
    for _ in range(20):
        labels = engine.step(positions, active)
        for row in range(active.size):
            assert labels_equivalent(
                labels[row], visibility_components(positions[row], radius)
            )
        # Batch-global label distinctness, as flooding requires.
        flat = [set(labels[row].tolist()) for row in range(active.size)]
        for i in range(len(flat)):
            for j in range(i + 1, len(flat)):
                assert not (flat[i] & flat[j])
        positions = np.clip(
            positions + rng.integers(-1, 2, size=positions.shape), 0, side - 1
        )
        if active.size > 1 and rng.random() < 0.25:
            drop = rng.integers(active.size)
            keep = np.ones(active.size, dtype=bool)
            keep[drop] = False
            active = active[keep]
            positions = positions[keep]


@requires_compiled
@settings(max_examples=max_examples(15), deadline=None)
@given(
    config=broadcast_configs(),
    n_replications=replication_counts,
    seed=seeds,
)
def test_broadcast_compiled_incremental_is_bit_for_bit(config, n_replications, seed):
    """``backend="compiled"``: incremental ≡ recompute, and both ≡ serial."""
    serial = run_broadcast_replications(
        config, n_replications, seed=seed, backend="serial", connectivity="recompute"
    )
    recompute = run_broadcast_replications(
        config, n_replications, seed=seed, backend="compiled", connectivity="recompute"
    )
    incremental = run_broadcast_replications(
        config, n_replications, seed=seed, backend="compiled", connectivity="incremental"
    )
    assert_broadcast_results_identical(serial, recompute)
    assert_broadcast_results_identical(serial, incremental)


@requires_compiled
@settings(max_examples=max_examples(10), deadline=None)
@given(
    config=gossip_configs(),
    n_replications=st.integers(1, 3),
    seed=seeds,
)
def test_gossip_compiled_incremental_is_bit_for_bit(config, n_replications, seed):
    reference = run_gossip_replications(
        config, n_replications, seed=seed, backend="compiled", connectivity="recompute"
    )
    incremental = run_gossip_replications(
        config, n_replications, seed=seed, backend="compiled", connectivity="incremental"
    )
    assert_gossip_results_identical(reference, incremental)
