"""Property-based equivalence suite for the dissemination process kernels.

The process-kernel contract promises that every execution path produces
bit-for-bit identical results for identical seeds:

* ``backend="serial"`` vs ``backend="batched"`` (including mid-run
  compaction: with several trials per run some finish early);
* ``backend="compiled"`` vs both, when a :mod:`repro.compiled` provider is
  available on the host (skip-marked otherwise);
* ``connectivity="recompute"`` vs ``connectivity="incremental"`` on both
  backends (label-consuming kernels drive the
  :class:`~repro.connectivity.incremental.DeltaConnectivityEngine`);
* the plain in-process path vs the sharded executor (``jobs=1`` chunked and
  ``jobs>1`` pooled, including store round-trips), built on the exec
  strategies shared with ``tests/test_properties_exec.py``;
* the single-trial facades (``BroadcastSimulation``, ``GossipSimulation``,
  ``FrogModelSimulation`` etc.) vs the serial kernel driver.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.compiled

from repro.core.config import BroadcastConfig, GossipConfig
from repro.core.gossip import GossipSimulation
from repro.core.simulation import BroadcastSimulation
from repro.dissemination.frog import FrogModelSimulation
from repro.dissemination.kernels import (
    BroadcastProcess,
    FrogProcess,
    GossipProcess,
    PredatorPreyProcess,
    make_process,
    run_process_replications,
    run_process_serial,
)
from repro.dissemination.predator_prey import PredatorPreySimulation
from repro.exec import SweepExecutor, execution_override
from repro.util.rng import default_rng, spawn_rngs

from tests.strategies import (
    chunk_sizes,
    max_examples,
    process_kernels,
    replication_counts,
    seeds,
)

_SETTINGS = dict(
    deadline=None,
    max_examples=max_examples(25),
    suppress_health_check=[HealthCheck.too_slow],
)

_requires_compiled = pytest.mark.skipif(
    not repro.compiled.available(), reason="no repro.compiled provider on this host"
)


def assert_results_identical(results_a, results_b) -> None:
    """Field-by-field bit-for-bit equality of two result lists."""
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb), f.name
            else:
                assert va == vb, f.name


class TestSerialBatchedEquivalence:
    @given(process=process_kernels(), n=replication_counts, seed=seeds)
    @settings(**_SETTINGS)
    def test_batched_matches_serial_bit_for_bit(self, process, n, seed):
        s_serial, r_serial = run_process_replications(
            process, n, seed=seed, backend="serial", connectivity="recompute"
        )
        s_batched, r_batched = run_process_replications(
            process, n, seed=seed, backend="batched", connectivity="recompute"
        )
        assert np.array_equal(s_serial.values, s_batched.values)
        assert_results_identical(r_serial, r_batched)

    @given(process=process_kernels(), n=replication_counts, seed=seeds)
    @settings(**_SETTINGS)
    def test_incremental_matches_recompute_on_both_backends(self, process, n, seed):
        _, reference = run_process_replications(
            process, n, seed=seed, backend="serial", connectivity="recompute"
        )
        for backend in ("serial", "batched"):
            _, results = run_process_replications(
                process, n, seed=seed, backend=backend, connectivity="incremental"
            )
            assert_results_identical(reference, results)

    @given(process=process_kernels(), n=replication_counts, seed=seeds)
    @settings(**_SETTINGS)
    def test_auto_resolution_matches_explicit(self, process, n, seed):
        _, reference = run_process_replications(
            process, n, seed=seed, backend="serial", connectivity="recompute"
        )
        _, results = run_process_replications(process, n, seed=seed)
        assert_results_identical(reference, results)


@_requires_compiled
class TestCompiledEquivalence:
    """``backend="compiled"`` ≡ serial for every registered process kernel.

    Skip-marked when no :mod:`repro.compiled` provider is available; the
    strategy space (all kernels × replication counts, so mid-run compaction
    occurs, × both connectivity engines) mirrors the batched suite above.
    """

    @given(process=process_kernels(), n=replication_counts, seed=seeds)
    @settings(**_SETTINGS)
    def test_compiled_matches_serial_bit_for_bit(self, process, n, seed):
        _, reference = run_process_replications(
            process, n, seed=seed, backend="serial", connectivity="recompute"
        )
        for connectivity in ("recompute", "incremental"):
            _, results = run_process_replications(
                process, n, seed=seed, backend="compiled", connectivity=connectivity
            )
            assert_results_identical(reference, results)

    @given(process=process_kernels(), n=replication_counts, seed=seeds,
           chunk_size=chunk_sizes)
    @settings(deadline=None, max_examples=max_examples(10),
              suppress_health_check=[HealthCheck.too_slow])
    def test_sharded_compiled_matches_plain(self, process, n, seed, chunk_size):
        s_plain, r_plain = run_process_replications(
            process, n, seed=seed, backend="compiled"
        )
        with execution_override(SweepExecutor(jobs=1, chunk_size=chunk_size)):
            s_shard, r_shard = run_process_replications(
                process, n, seed=seed, backend="compiled"
            )
        assert np.array_equal(s_plain.values, s_shard.values)
        assert_results_identical(r_plain, r_shard)


class TestExecutorEquivalence:
    @given(
        process=process_kernels(),
        n=replication_counts,
        seed=seeds,
        chunk_size=chunk_sizes,
        backend=st.sampled_from(["serial", "batched"]),
    )
    @settings(deadline=None, max_examples=max_examples(15),
              suppress_health_check=[HealthCheck.too_slow])
    def test_sharded_matches_plain(self, process, n, seed, chunk_size, backend):
        s_plain, r_plain = run_process_replications(process, n, seed=seed, backend=backend)
        with execution_override(SweepExecutor(jobs=1, chunk_size=chunk_size)):
            s_shard, r_shard = run_process_replications(
                process, n, seed=seed, backend=backend
            )
        assert np.array_equal(s_plain.values, s_shard.values)
        assert_results_identical(r_plain, r_shard)

    def test_jobs_gt_one_matches_plain(self):
        process = FrogProcess(49, 4, max_steps=60)
        _, reference = run_process_replications(process, 6, seed=5)
        with execution_override(SweepExecutor(jobs=2, chunk_size=2)):
            _, sharded = run_process_replications(process, 6, seed=5)
        assert_results_identical(reference, sharded)

    def test_store_roundtrip_and_resume(self, tmp_path):
        process = PredatorPreyProcess(49, 2, 3, max_steps=60)
        _, reference = run_process_replications(process, 5, seed=9)
        with execution_override(SweepExecutor(jobs=1, chunk_size=2, store=str(tmp_path))):
            _, first = run_process_replications(process, 5, seed=9)
        with execution_override(SweepExecutor(jobs=1, chunk_size=2, store=str(tmp_path))):
            _, resumed = run_process_replications(process, 5, seed=9)
        assert_results_identical(reference, first)
        assert_results_identical(reference, resumed)


class TestFacadesMatchKernels:
    @given(
        seed=seeds,
        record=st.sampled_from(["none", "frontier", "coverage"]),
        radius=st.sampled_from([0.0, 1.0]),
        connectivity=st.sampled_from(["recompute", "incremental"]),
        pre_steps=st.integers(0, 6),
    )
    @settings(**_SETTINGS)
    def test_broadcast_facade_matches_serial_driver(
        self, seed, record, radius, connectivity, pre_steps
    ):
        """A facade stepped by hand, then run, equals one serial-loop run."""
        config = BroadcastConfig(
            n_nodes=49,
            n_agents=4,
            radius=radius,
            max_steps=400,
            record_frontier=record == "frontier",
            record_coverage=record == "coverage",
        )
        sim = BroadcastSimulation(config, rng=default_rng(seed), connectivity=connectivity)
        while sim.time < pre_steps and sim.broadcast_time < 0:
            sim.step()
        facade = sim.run()
        kernel = run_process_serial(BroadcastProcess(config), default_rng(seed), connectivity)
        assert_results_identical([facade], [kernel])
        assert (sim.time, sim.broadcast_time, sim.n_informed) == (
            facade.n_steps, facade.broadcast_time, facade.n_informed
        )
        assert (facade.frontier_history is not None) == (record == "frontier")
        if record != "coverage":
            assert facade.coverage_time == -1

    @given(
        seed=seeds,
        connectivity=st.sampled_from(["recompute", "incremental"]),
        pre_steps=st.integers(0, 6),
    )
    @settings(**_SETTINGS)
    def test_gossip_facade_matches_serial_driver(self, seed, connectivity, pre_steps):
        config = GossipConfig(n_nodes=49, n_agents=4, radius=1.0, max_steps=400)
        sim = GossipSimulation(config, rng=default_rng(seed), connectivity=connectivity)
        while sim.time < pre_steps and sim.gossip_time < 0:
            sim.step()
        facade = sim.run()
        kernel = run_process_serial(GossipProcess(config), default_rng(seed), connectivity)
        assert_results_identical([facade], [kernel])
        assert (sim.time, sim.gossip_time, sim.all_know_all) == (
            facade.n_steps, facade.gossip_time, facade.completed
        )

    @given(seed=seeds)
    @settings(**_SETTINGS)
    def test_frog_facade_matches_serial_driver(self, seed):
        facade = FrogModelSimulation(64, 5, max_steps=50, rng=default_rng(seed)).run()
        kernel = run_process_serial(
            FrogProcess(64, 5, max_steps=50), default_rng(seed)
        )
        assert_results_identical([facade], [kernel])

    @given(seed=seeds)
    @settings(**_SETTINGS)
    def test_predator_prey_facade_matches_serial_driver(self, seed):
        facade = PredatorPreySimulation(
            64, 3, 4, max_steps=50, rng=default_rng(seed)
        ).run()
        kernel = run_process_serial(
            PredatorPreyProcess(64, 3, 4, max_steps=50), default_rng(seed)
        )
        assert_results_identical([facade], [kernel])


class TestRegistry:
    @given(process=process_kernels(), seed=seeds)
    @settings(**_SETTINGS)
    def test_spec_roundtrip_rebuilds_equivalent_kernel(self, process, seed):
        spec = process.spec
        rebuilt = make_process(spec["name"], **spec["kwargs"])
        assert_results_identical(
            [run_process_serial(process, spawn_rngs(seed, 1)[0])],
            [run_process_serial(rebuilt, spawn_rngs(seed, 1)[0])],
        )
        assert rebuilt.spec == spec
