"""Property-based tests (hypothesis) for the batched replication backend.

Three families of invariants:

* **backend equivalence** — the batched backend must reproduce the serial
  backend *trial for trial* (not just in distribution) under identical
  seeds, across radii, step rules and horizon truncation;
* **connectivity oracles** — the lexsort spatial hash, the batched
  union–find and the batched component labelling must match naive
  ``O(k^2)`` references on random small inputs;
* **compiled equivalence** — when a :mod:`repro.compiled` provider is
  available, ``backend="compiled"`` must reproduce the serial backend
  trial for trial over the same strategy space (skip-marked otherwise).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.compiled

from repro.connectivity.batched import batched_visibility_labels
from repro.connectivity.spatial_hash import neighbor_pairs
from repro.connectivity.unionfind import UnionFind
from repro.connectivity.visibility import visibility_components
from repro.core import batched as batched_module
from repro.core.config import BroadcastConfig, GossipConfig
from repro.core.protocol import (
    flood_informed,
    flood_informed_batch,
    flood_rumors,
    flood_rumors_batch,
)
from repro.core.runner import run_broadcast_replications, run_gossip_replications
from repro.grid.geometry import pairwise_manhattan
from repro.obs.metrics import global_registry

from strategies import (
    MOBILITY_MODELS,
    max_examples,
    mobility_config,
    point_sets as point_sets_strategy,
    radii,
)

point_sets = point_sets_strategy(max_coord=25)

requires_compiled = pytest.mark.skipif(
    not repro.compiled.available(), reason="no repro.compiled provider on this host"
)


def _steps_total() -> float:
    return sum(
        metric.value
        for metric in global_registry().collect()
        if metric.name == "repro_sim_steps_total"
    )


def brute_force_pairs(positions: np.ndarray, radius: float) -> set[tuple[int, int]]:
    dists = pairwise_manhattan(positions)
    k = positions.shape[0]
    return {(i, j) for i in range(k) for j in range(i + 1, k) if dists[i, j] <= radius}


def reference_labels(positions: np.ndarray, radius: float) -> np.ndarray:
    """Naive O(k^2) component labelling via sequential single unions."""
    k = positions.shape[0]
    uf = UnionFind(k)
    for a, b in brute_force_pairs(positions, radius):
        uf.union(a, b)
    return uf.labels()


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two label arrays induce the same partition."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(a[:, None] == a[None, :], b[:, None] == b[None, :]))


# --------------------------------------------------------------------------- #
# Connectivity oracles
# --------------------------------------------------------------------------- #
class TestConnectivityOracles:
    @settings(max_examples=40, deadline=None)
    @given(pts=point_sets, radius=radii)
    def test_neighbor_pairs_matches_naive_reference(self, pts, radius):
        pairs = neighbor_pairs(pts, radius)
        assert {(int(a), int(b)) for a, b in pairs} == brute_force_pairs(pts, radius)
        if pairs.shape[0]:
            assert np.all(pairs[:, 0] < pairs[:, 1])
            assert len({tuple(p) for p in pairs.tolist()}) == pairs.shape[0]

    @settings(max_examples=40, deadline=None)
    @given(pts=point_sets, radius=radii)
    def test_visibility_components_match_naive_reference(self, pts, radius):
        assert same_partition(
            visibility_components(pts, radius), reference_labels(pts, radius)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 40),
        edge_seed=st.integers(0, 2**31 - 1),
        n_edges=st.integers(0, 60),
    )
    def test_union_batch_matches_sequential_unions(self, n, edge_seed, n_edges):
        rng = np.random.default_rng(edge_seed)
        edges = rng.integers(0, n, size=(n_edges, 2))
        sequential = UnionFind(n)
        for a, b in edges:
            sequential.union(int(a), int(b))
        batched = UnionFind(n)
        batched.union_batch(edges)
        assert batched.n_components == sequential.n_components
        assert same_partition(batched.labels(), sequential.labels())
        assert all(
            batched.component_size(i) == sequential.component_size(i) for i in range(n)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        n_trials=st.integers(1, 5),
        k=st.integers(1, 15),
        radius=radii,
        pos_seed=st.integers(0, 2**31 - 1),
    )
    def test_batched_labels_match_per_trial_components(self, n_trials, k, radius, pos_seed):
        rng = np.random.default_rng(pos_seed)
        positions = rng.integers(0, 12, size=(n_trials, k, 2))
        labels = batched_visibility_labels(positions, radius)
        for trial in range(n_trials):
            assert same_partition(labels[trial], visibility_components(positions[trial], radius))
        # Components of different trials must never share a label.
        for trial in range(1, n_trials):
            assert not np.intersect1d(labels[trial], labels[:trial]).size


# --------------------------------------------------------------------------- #
# Batched flooding
# --------------------------------------------------------------------------- #
class TestBatchedFlooding:
    @settings(max_examples=30, deadline=None)
    @given(
        n_trials=st.integers(1, 4),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_flood_informed_batch_matches_per_trial(self, n_trials, k, seed):
        rng = np.random.default_rng(seed)
        positions = rng.integers(0, 6, size=(n_trials, k, 2))
        informed = rng.random((n_trials, k)) < 0.3
        labels = batched_visibility_labels(positions, 0.0)
        flooded = flood_informed_batch(informed, labels)
        for trial in range(n_trials):
            per_trial_labels = visibility_components(positions[trial], 0.0)
            expected = flood_informed(informed[trial], per_trial_labels)
            assert np.array_equal(flooded[trial], expected)

    @settings(max_examples=30, deadline=None)
    @given(
        n_trials=st.integers(1, 4),
        k=st.integers(1, 10),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_flood_rumors_batch_matches_per_trial(self, n_trials, k, seed):
        rng = np.random.default_rng(seed)
        positions = rng.integers(0, 6, size=(n_trials, k, 2))
        rumors = rng.random((n_trials, k, k)) < 0.2
        labels = batched_visibility_labels(positions, 1.0)
        flooded = flood_rumors_batch(rumors, labels)
        for trial in range(n_trials):
            per_trial_labels = visibility_components(positions[trial], 1.0)
            expected = flood_rumors(rumors[trial], per_trial_labels)
            assert np.array_equal(flooded[trial], expected)


# --------------------------------------------------------------------------- #
# Backend equivalence (the batched engine's core contract)
# --------------------------------------------------------------------------- #
class TestBackendEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        side=st.integers(6, 14),
        k=st.integers(2, 10),
        radius=st.sampled_from([0.0, 1.0, 2.0]),
        rule=st.sampled_from(["lazy", "simple"]),
        n_replications=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_broadcast_backends_identical_trial_for_trial(
        self, side, k, radius, rule, n_replications, seed
    ):
        config = BroadcastConfig(
            n_nodes=side * side,
            n_agents=k,
            radius=radius,
            max_steps=80,
            mobility_kwargs={"rule": rule},
        )
        serial_summary, serial_results = run_broadcast_replications(
            config, n_replications, seed=seed, backend="serial"
        )
        batched_summary, batched_results = run_broadcast_replications(
            config, n_replications, seed=seed, backend="batched"
        )
        assert np.array_equal(serial_summary.values, batched_summary.values)
        for serial, batched in zip(serial_results, batched_results):
            assert serial.broadcast_time == batched.broadcast_time
            assert serial.completed == batched.completed
            assert serial.n_steps == batched.n_steps
            assert serial.n_informed == batched.n_informed
            assert np.array_equal(serial.informed_curve, batched.informed_curve)

    @settings(max_examples=10, deadline=None)
    @given(
        side=st.integers(5, 10),
        k=st.integers(2, 7),
        radius=st.sampled_from([0.0, 1.0]),
        n_replications=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_gossip_backends_identical_trial_for_trial(
        self, side, k, radius, n_replications, seed
    ):
        config = GossipConfig(
            n_nodes=side * side, n_agents=k, radius=radius, max_steps=80
        )
        serial_summary, serial_results = run_gossip_replications(
            config, n_replications, seed=seed, backend="serial"
        )
        batched_summary, batched_results = run_gossip_replications(
            config, n_replications, seed=seed, backend="batched"
        )
        assert np.array_equal(serial_summary.values, batched_summary.values)
        for serial, batched in zip(serial_results, batched_results):
            assert serial.gossip_time == batched.gossip_time
            assert serial.completed == batched.completed
            assert serial.n_steps == batched.n_steps
            assert serial.min_rumors_known == batched.min_rumors_known
            assert serial.first_rumor_broadcast_time == batched.first_rumor_broadcast_time
            assert np.array_equal(serial.knowledge_curve, batched.knowledge_curve)


# --------------------------------------------------------------------------- #
# Per-kernel serial <-> batched equivalence (all mobility models)
# --------------------------------------------------------------------------- #
def _make_model(name: str, side: int):
    """A mobility model on a ``side x side`` grid, plus its config kwargs."""
    from repro.grid.lattice import Grid2D
    from repro.mobility import make_mobility

    fields = mobility_config(name, side)
    registry_name, kwargs = fields["mobility"], fields["mobility_kwargs"]
    return make_mobility(registry_name, Grid2D(side), **kwargs), registry_name, kwargs


MOBILITY_NAMES = list(MOBILITY_MODELS)


class TestKernelStepping:
    """Every kernel's batched entry points reproduce its serial steps bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        side=st.integers(4, 12),
        n_trials=st.integers(1, 5),
        k=st.integers(1, 10),
        name=st.sampled_from(MOBILITY_NAMES),
        seed=st.integers(0, 2**31 - 1),
        n_steps=st.integers(1, 12),
    )
    def test_batch_stepper_matches_per_trial_serial_steps(
        self, side, n_trials, k, name, seed, n_steps
    ):
        """The loop-persistent (block pre-drawing) stepper is stream-equivalent,
        including under active-trial compaction."""
        from repro.util.rng import spawn_rngs

        model, _, _ = _make_model(name, side)
        init = np.stack(
            [model.initial_positions(k, rng) for rng in spawn_rngs(seed, n_trials)]
        )
        batch_rngs = spawn_rngs(seed, n_trials)
        serial_rngs = spawn_rngs(seed, n_trials)
        batch_states = model.init_states(k, batch_rngs)
        serial_states = model.init_states(k, serial_rngs)
        stepper = model.batch_stepper(k, batch_rngs, batch_states)

        # Drop one trial halfway through, as the replication loop does.
        active = np.arange(n_trials)
        batched = init.copy()
        serial = init.copy()
        for step_no in range(n_steps):
            if step_no == n_steps // 2 and active.size > 1:
                batched = batched[1:]
                active = active[1:]
            batched = stepper.step(batched, active)
            for trial in active:
                serial[trial] = model.step(
                    serial[trial], serial_rngs[trial], serial_states[trial]
                )
        assert np.array_equal(batched, serial[active])

    @settings(max_examples=max_examples(25), deadline=None)
    @given(
        side=st.integers(2, 12),
        n_trials=st.integers(1, 6),
        k=st.integers(1, 6),
        rule=st.sampled_from(["lazy", "simple"]),
        seed=st.integers(0, 2**31 - 1),
        n_steps=st.integers(1, 300),
        data=st.data(),
    )
    def test_tape_stepper_matches_serial_walk_steps(
        self, side, n_trials, k, rule, seed, n_steps, data
    ):
        """Per-trial tapes reproduce lazy_step / simple_step bit for bit, across
        several tape refills, corner redraws and active-trial compaction."""
        from repro.grid.lattice import Grid2D
        from repro.mobility.kernels import TapeStepper, lazy_step, simple_step
        from repro.util.rng import spawn_rngs

        grid = Grid2D(side)
        serial_step = lazy_step if rule == "lazy" else simple_step
        init = np.stack([grid.random_positions(k, rng) for rng in spawn_rngs(seed, n_trials)])
        serial_rngs = spawn_rngs(seed + 1, n_trials)
        stepper = TapeStepper(grid, spawn_rngs(seed + 1, n_trials), rule, n_walkers=k)
        leave_at = data.draw(
            st.lists(st.integers(0, n_steps), min_size=n_trials, max_size=n_trials)
        )

        active = np.arange(n_trials)
        batched = init.copy()
        serial = init.copy()
        for step_no in range(n_steps):
            stay = np.array([leave_at[trial] > step_no for trial in active], dtype=bool)
            batched, active = batched[stay], active[stay]
            batched = stepper.step(batched, active)
            for trial in active:
                serial[trial] = serial_step(grid, serial[trial], serial_rngs[trial])
            assert np.array_equal(batched, serial[active])

    @pytest.mark.property
    @settings(max_examples=max_examples(25), deadline=None)
    @given(
        side=st.integers(2, 12),
        n_trials=st.integers(1, 6),
        k=st.integers(1, 6),
        rule=st.sampled_from(["lazy", "simple"]),
        seed=st.integers(0, 2**31 - 1),
        n_steps=st.integers(1, 300),
        data=st.data(),
    )
    def test_tape_stepper_moving_mask_steps_only_the_movers(
        self, side, n_trials, k, rule, seed, n_steps, data
    ):
        """Under a moving mask, each trial's masked walkers take exactly the
        serial step of those walkers alone and the others stay put, over
        all-False and all-True rows, tape refills and active-trial compaction."""
        from repro.grid.lattice import Grid2D
        from repro.mobility.kernels import TapeStepper, lazy_step, simple_step
        from repro.util.rng import spawn_rngs

        grid = Grid2D(side)
        serial_step = lazy_step if rule == "lazy" else simple_step
        init = np.stack([grid.random_positions(k, rng) for rng in spawn_rngs(seed, n_trials)])
        serial_rngs = spawn_rngs(seed + 1, n_trials)
        stepper = TapeStepper(grid, spawn_rngs(seed + 1, n_trials), rule, n_walkers=k)
        leave_at = data.draw(
            st.lists(st.integers(0, n_steps), min_size=n_trials, max_size=n_trials)
        )
        masks = np.random.default_rng(seed + 2)

        active = np.arange(n_trials)
        batched = init.copy()
        serial = init.copy()
        for step_no in range(n_steps):
            stay = np.array([leave_at[trial] > step_no for trial in active], dtype=bool)
            batched, active = batched[stay], active[stay]
            # Each row moves none, about half or all of its walkers.
            share = masks.choice([0.0, 0.5, 1.0], size=(active.size, 1))
            moving = masks.random((active.size, k)) < share
            batched = stepper.step(batched, active, moving)
            for row, trial in enumerate(active):
                movers = moving[row]
                if movers.any():
                    serial[trial, movers] = serial_step(
                        grid, serial[trial, movers], serial_rngs[trial]
                    )
            assert np.array_equal(batched, serial[active])


class TestBackendEquivalenceAllModels:
    """run_*_replications: serial == batched for every mobility model."""

    @settings(max_examples=10, deadline=None)
    @given(
        side=st.integers(6, 12),
        k=st.integers(2, 8),
        radius=st.sampled_from([0.0, 1.0]),
        name=st.sampled_from(MOBILITY_NAMES),
        n_replications=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_broadcast_backends_identical_for_every_model(
        self, side, k, radius, name, n_replications, seed
    ):
        _, registry_name, kwargs = _make_model(name, side)
        config = BroadcastConfig(
            n_nodes=side * side,
            n_agents=k,
            radius=radius,
            max_steps=60,
            mobility=registry_name,
            mobility_kwargs=kwargs,
        )
        serial_summary, serial_results = run_broadcast_replications(
            config, n_replications, seed=seed, backend="serial"
        )
        batched_summary, batched_results = run_broadcast_replications(
            config, n_replications, seed=seed, backend="batched"
        )
        assert np.array_equal(serial_summary.values, batched_summary.values)
        for serial, batched in zip(serial_results, batched_results):
            assert serial.broadcast_time == batched.broadcast_time
            assert serial.completed == batched.completed
            assert serial.n_steps == batched.n_steps
            assert serial.n_informed == batched.n_informed
            assert np.array_equal(serial.informed_curve, batched.informed_curve)

    @settings(max_examples=8, deadline=None)
    @given(
        side=st.integers(5, 9),
        k=st.integers(2, 6),
        name=st.sampled_from(MOBILITY_NAMES),
        n_replications=st.integers(1, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_gossip_backends_identical_for_every_model(
        self, side, k, name, n_replications, seed
    ):
        _, registry_name, kwargs = _make_model(name, side)
        config = GossipConfig(
            n_nodes=side * side,
            n_agents=k,
            radius=1.0,
            max_steps=60,
            mobility=registry_name,
            mobility_kwargs=kwargs,
        )
        serial_summary, serial_results = run_gossip_replications(
            config, n_replications, seed=seed, backend="serial"
        )
        batched_summary, batched_results = run_gossip_replications(
            config, n_replications, seed=seed, backend="batched"
        )
        assert np.array_equal(serial_summary.values, batched_summary.values)
        for serial, batched in zip(serial_results, batched_results):
            assert serial.gossip_time == batched.gossip_time
            assert serial.n_steps == batched.n_steps
            assert serial.min_rumors_known == batched.min_rumors_known
            assert np.array_equal(serial.knowledge_curve, batched.knowledge_curve)


# --------------------------------------------------------------------------- #
# Compiled backend equivalence (skip-marked when no provider is available)
# --------------------------------------------------------------------------- #
@requires_compiled
class TestCompiledBackendEquivalence:
    """``backend="compiled"`` reproduces serial trial for trial.

    The same strategy space as the serial-vs-batched suite above: every
    mobility model, r = 0 (the fused flood driver) and r >= 1 (compiled
    labelling), multi-trial runs whose horizon truncation and mid-run
    trial compaction must not disturb the shared pre-drawn RNG streams.
    """

    @settings(max_examples=15, deadline=None)
    @given(
        side=st.integers(6, 14),
        k=st.integers(2, 10),
        radius=st.sampled_from([0.0, 1.0, 2.0]),
        rule=st.sampled_from(["lazy", "simple"]),
        n_replications=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_broadcast_compiled_identical_trial_for_trial(
        self, side, k, radius, rule, n_replications, seed
    ):
        config = BroadcastConfig(
            n_nodes=side * side,
            n_agents=k,
            radius=radius,
            max_steps=80,
            mobility_kwargs={"rule": rule},
        )
        serial_summary, serial_results = run_broadcast_replications(
            config, n_replications, seed=seed, backend="serial"
        )
        compiled_summary, compiled_results = run_broadcast_replications(
            config, n_replications, seed=seed, backend="compiled"
        )
        assert np.array_equal(serial_summary.values, compiled_summary.values)
        for serial, compiled in zip(serial_results, compiled_results):
            assert serial.broadcast_time == compiled.broadcast_time
            assert serial.completed == compiled.completed
            assert serial.n_steps == compiled.n_steps
            assert serial.n_informed == compiled.n_informed
            assert np.array_equal(serial.informed_curve, compiled.informed_curve)

    @settings(max_examples=10, deadline=None)
    @given(
        side=st.integers(6, 12),
        k=st.integers(2, 8),
        radius=st.sampled_from([0.0, 1.0]),
        name=st.sampled_from(MOBILITY_NAMES),
        n_replications=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_broadcast_compiled_identical_for_every_model(
        self, side, k, radius, name, n_replications, seed
    ):
        _, registry_name, kwargs = _make_model(name, side)
        config = BroadcastConfig(
            n_nodes=side * side,
            n_agents=k,
            radius=radius,
            max_steps=60,
            mobility=registry_name,
            mobility_kwargs=kwargs,
        )
        serial_summary, _ = run_broadcast_replications(
            config, n_replications, seed=seed, backend="serial"
        )
        compiled_summary, _ = run_broadcast_replications(
            config, n_replications, seed=seed, backend="compiled"
        )
        assert np.array_equal(serial_summary.values, compiled_summary.values)

    @settings(max_examples=max_examples(12), deadline=None)
    @given(
        side=st.integers(5, 10),
        k=st.integers(2, 6),
        radius=st.sampled_from([0.0, 0.5]),
        name=st.sampled_from(["random_walk", "obstacle_walk", "brownian", "static"]),
        horizon=st.integers(130, 400),
        n_replications=st.integers(2, 5),
        helper=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_fused_driver_identical_across_block_refills(
        self, side, k, radius, name, horizon, n_replications, helper, seed
    ):
        """Past the first 128-step draw block, trial for trial, with and
        without the draw helper thread.

        Horizons beyond one block on small grids make some trials complete
        mid-block while others run on, so draw-block refills, the
        view/copy switch of ``next_draws`` and compaction followed by
        further blocks are all compared draw for draw.  With ``helper`` the
        draw threshold is 0 and the process has a CPU to spare, so every
        block but the last is drawn ahead on the helper thread; without it
        the CPU check reports 1 and no helper starts.
        """
        from repro.compiled import driver

        _, registry_name, kwargs = _make_model(name, side)
        config = BroadcastConfig(
            n_nodes=side * side,
            n_agents=k,
            radius=radius,
            max_steps=horizon,
            mobility=registry_name,
            mobility_kwargs=kwargs,
        )
        _, serial_results = run_broadcast_replications(
            config, n_replications, seed=seed, backend="serial"
        )
        fused = []
        usable = batched_module._fused_broadcast_usable

        def spying(*args):
            fused.append(usable(*args))
            return fused[-1]

        started = []
        pool = driver.ThreadPoolExecutor

        def spying_pool(*args, **kwargs):
            started.append(True)
            return pool(*args, **kwargs)

        min_draws = 0 if helper else driver.PREFETCH_MIN_DRAWS
        before = _steps_total()
        with mock.patch.object(batched_module, "_fused_broadcast_usable", spying), \
                mock.patch.object(driver, "ThreadPoolExecutor", spying_pool), \
                mock.patch.object(driver, "PREFETCH_MIN_DRAWS", min_draws), \
                mock.patch.object(driver, "cpu_share", lambda: 2 if helper else 1):
            _, compiled_results = run_broadcast_replications(
                config, n_replications, seed=seed, backend="compiled"
            )
        assert _steps_total() - before == sum(r.n_steps for r in compiled_results)
        has_block_driver = repro.compiled.require_ops().has_block_driver
        assert fused == [has_block_driver]
        assert started == [True] * (helper and has_block_driver and name != "static")
        for serial, compiled in zip(serial_results, compiled_results):
            assert serial.broadcast_time == compiled.broadcast_time
            assert serial.completed == compiled.completed
            assert serial.n_steps == compiled.n_steps
            assert serial.n_informed == compiled.n_informed
            assert np.array_equal(serial.informed_curve, compiled.informed_curve)

    @settings(max_examples=8, deadline=None)
    @given(
        side=st.integers(5, 9),
        k=st.integers(2, 6),
        radius=st.sampled_from([0.0, 1.0]),
        n_replications=st.integers(1, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_gossip_compiled_identical_trial_for_trial(
        self, side, k, radius, n_replications, seed
    ):
        config = GossipConfig(
            n_nodes=side * side, n_agents=k, radius=radius, max_steps=80
        )
        serial_summary, serial_results = run_gossip_replications(
            config, n_replications, seed=seed, backend="serial"
        )
        compiled_summary, compiled_results = run_gossip_replications(
            config, n_replications, seed=seed, backend="compiled"
        )
        assert np.array_equal(serial_summary.values, compiled_summary.values)
        for serial, compiled in zip(serial_results, compiled_results):
            assert serial.gossip_time == compiled.gossip_time
            assert serial.min_rumors_known == compiled.min_rumors_known
            assert serial.first_rumor_broadcast_time == compiled.first_rumor_broadcast_time
            assert np.array_equal(serial.knowledge_curve, compiled.knowledge_curve)
