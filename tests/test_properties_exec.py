"""Property-based tests (hypothesis) for the sharded sweep executor.

The executor's contract: for ANY sweep/seed/chunk-size/worker-count
combination, the sharded path produces bit-for-bit the same
``ReplicationSummary.values``, the same per-trial results and the same
report tables as the classic in-process path — ``jobs=1`` (in-process
chunks), ``jobs>1`` (process-pool chunks) and the pre-executor serial path
are interchangeable.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import BroadcastConfig
from repro.core.runner import run_broadcast_replications, run_gossip_replications
from repro.exec import (
    SweepExecutor,
    SeedStreamSpec,
    chunk_bounds,
    default_chunk_size,
    execution_override,
    map_replications,
    unit_key,
)
from repro.exec.units import WorkUnit
from repro.util.rng import spawn_rngs

from strategies import (
    broadcast_configs,
    chunk_sizes,
    gossip_configs,
    max_examples,
    replication_counts,
    seeds,
    sweep_grids,
)

import repro.compiled

#: Backends exercised by the composition tests: "compiled" joins the sample
#: whenever a provider is available on the host.
_AVAILABLE_BACKENDS = ["serial", "batched"] + (
    ["compiled"] if repro.compiled.available() else []
)


# --------------------------------------------------------------------------- #
# Stream derivation: the root of the determinism contract
# --------------------------------------------------------------------------- #
class TestSeedStreamSpec:
    @settings(max_examples=max_examples(50), deadline=None)
    @given(seed=seeds, n=st.integers(1, 12), data=st.data())
    def test_any_slice_matches_spawn_rngs(self, seed, n, data):
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.integers(start + 1, n))
        reference = spawn_rngs(seed, n)
        spec = SeedStreamSpec.from_seed(seed)
        sliced = spec.trial_rngs(start, stop)
        for ref, got in zip(reference[start:stop], sliced):
            assert np.array_equal(ref.integers(0, 2**31, size=8), got.integers(0, 2**31, size=8))

    @settings(max_examples=max_examples(30), deadline=None)
    @given(seed=seeds, n=st.integers(1, 10))
    def test_generator_seed_capture_matches_spawn(self, seed, n):
        # Experiments hand sweep-point generators (spawned children) to the
        # replication runners; the spec must re-derive their trial streams.
        point_rng = spawn_rngs(seed, 3)[1]
        reference = spawn_rngs(spawn_rngs(seed, 3)[1], n)
        spec = SeedStreamSpec.from_seed(point_rng)
        for ref, got in zip(reference, spec.trial_rngs(0, n)):
            assert np.array_equal(ref.integers(0, 2**31, size=4), got.integers(0, 2**31, size=4))

    @settings(max_examples=max_examples(30), deadline=None)
    @given(seed=seeds)
    def test_json_roundtrip(self, seed):
        # The JSON form is hashed into unit keys and stored with every
        # record, whose fingerprint check compares it after a JSON round trip.
        form = SeedStreamSpec.from_seed(seed).as_json()
        assert json.loads(json.dumps(form)) == form

    @settings(max_examples=max_examples(10), deadline=None)
    @given(
        config=broadcast_configs(max_side=8, max_agents=5),
        seed=seeds,
        n_replications=st.integers(1, 3),
    )
    def test_reused_seed_object_stays_equivalent_to_inline_path(
        self, config, seed, n_replications
    ):
        # spawn_rngs advances a live seed's spawn counter, so two successive
        # runs reusing one generator draw disjoint streams; the executor
        # must consume the state identically (regression: it used to only
        # read it, aliasing the second run onto the first).
        inline_rng = spawn_rngs(seed, 1)[0]
        first_inline, _ = run_broadcast_replications(config, n_replications, seed=inline_rng)
        second_inline, _ = run_broadcast_replications(config, n_replications, seed=inline_rng)

        sharded_rng = spawn_rngs(seed, 1)[0]
        with execution_override(SweepExecutor(jobs=1, chunk_size=1)):
            first_sharded, _ = run_broadcast_replications(config, n_replications, seed=sharded_rng)
            second_sharded, _ = run_broadcast_replications(config, n_replications, seed=sharded_rng)
        assert np.array_equal(first_inline.values, first_sharded.values)
        assert np.array_equal(second_inline.values, second_sharded.values)


class TestChunking:
    @settings(max_examples=max_examples(60), deadline=None)
    @given(n=st.integers(1, 200), size=st.none() | st.integers(1, 40))
    def test_chunks_partition_trial_range(self, n, size):
        bounds = chunk_bounds(n, size)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
        expected = size if size is not None else default_chunk_size(n)
        assert all(stop - start <= expected for start, stop in bounds)

    @settings(max_examples=max_examples(30), deadline=None)
    @given(n=st.integers(1, 100))
    def test_default_chunk_size_ignores_worker_count(self, n):
        # Unit keys must be identical across --jobs settings, so the default
        # chunk layout may depend on the replication count only.
        assert 1 <= default_chunk_size(n) <= max(1, n)


class TestUnitKeys:
    @settings(max_examples=max_examples(25), deadline=None)
    @given(seed=seeds, n=st.integers(2, 10))
    def test_key_is_deterministic_and_chunk_sensitive(self, seed, n):
        spec = SeedStreamSpec.from_seed(seed)
        make = lambda start, stop: WorkUnit(
            label="sweep[x=1]",
            kind="map",
            payload={"fn": _double_trials, "kwargs": {"scale": 2.0}},
            n_replications=n,
            start=start,
            stop=stop,
            seed=spec,
        )
        assert unit_key(make(0, n)) == unit_key(make(0, n))
        if n >= 2:
            assert unit_key(make(0, 1)) != unit_key(make(1, 2))


# --------------------------------------------------------------------------- #
# Executor equivalence: serial <-> sharded <-> parallel, bit for bit
# --------------------------------------------------------------------------- #
class TestBroadcastExecutorEquivalence:
    @settings(max_examples=max_examples(12), deadline=None)
    @given(
        config=broadcast_configs(),
        n_replications=replication_counts,
        seed=seeds,
        chunk_size=chunk_sizes,
    )
    def test_sharded_matches_pre_executor_path(self, config, n_replications, seed, chunk_size):
        plain_summary, plain_results = run_broadcast_replications(config, n_replications, seed=seed)
        with execution_override(SweepExecutor(jobs=1, chunk_size=chunk_size)):
            sharded_summary, sharded_results = run_broadcast_replications(
                config, n_replications, seed=seed
            )
        assert np.array_equal(plain_summary.values, sharded_summary.values)
        assert plain_summary.n_completed == sharded_summary.n_completed
        for plain, sharded in zip(plain_results, sharded_results):
            assert plain.broadcast_time == sharded.broadcast_time
            assert plain.completed == sharded.completed
            assert plain.n_steps == sharded.n_steps
            assert plain.n_informed == sharded.n_informed
            assert np.array_equal(plain.informed_curve, sharded.informed_curve)

    @settings(max_examples=max_examples(4), deadline=None)
    @given(
        config=broadcast_configs(max_side=9, max_agents=6),
        n_replications=replication_counts,
        seed=seeds,
        chunk_size=chunk_sizes,
    )
    def test_process_pool_matches_pre_executor_path(self, config, n_replications, seed, chunk_size):
        plain_summary, _ = run_broadcast_replications(config, n_replications, seed=seed)
        with execution_override(SweepExecutor(jobs=2, chunk_size=chunk_size)):
            pool_summary, _ = run_broadcast_replications(config, n_replications, seed=seed)
        assert np.array_equal(plain_summary.values, pool_summary.values)

    @settings(max_examples=max_examples(8), deadline=None)
    @given(
        config=broadcast_configs(max_side=9, max_agents=6),
        n_replications=replication_counts,
        seed=seeds,
        backend=st.sampled_from(_AVAILABLE_BACKENDS),
    )
    def test_sharding_composes_with_every_backend(self, config, n_replications, seed, backend):
        plain_summary, _ = run_broadcast_replications(
            config, n_replications, seed=seed, backend=backend
        )
        with execution_override(SweepExecutor(jobs=1, chunk_size=2)):
            sharded_summary, _ = run_broadcast_replications(
                config, n_replications, seed=seed, backend=backend
            )
        assert np.array_equal(plain_summary.values, sharded_summary.values)


class TestGossipExecutorEquivalence:
    @settings(max_examples=max_examples(8), deadline=None)
    @given(
        config=gossip_configs(),
        n_replications=st.integers(1, 4),
        seed=seeds,
        chunk_size=chunk_sizes,
    )
    def test_sharded_matches_pre_executor_path(self, config, n_replications, seed, chunk_size):
        plain_summary, plain_results = run_gossip_replications(config, n_replications, seed=seed)
        with execution_override(SweepExecutor(jobs=1, chunk_size=chunk_size)):
            sharded_summary, sharded_results = run_gossip_replications(
                config, n_replications, seed=seed
            )
        assert np.array_equal(plain_summary.values, sharded_summary.values)
        for plain, sharded in zip(plain_results, sharded_results):
            assert plain.gossip_time == sharded.gossip_time
            assert plain.min_rumors_known == sharded.min_rumors_known
            assert plain.first_rumor_broadcast_time == sharded.first_rumor_broadcast_time
            assert np.array_equal(plain.knowledge_curve, sharded.knowledge_curve)

    @settings(max_examples=max_examples(3), deadline=None)
    @given(config=gossip_configs(max_side=7, max_agents=5), seed=seeds)
    def test_process_pool_matches_pre_executor_path(self, config, seed):
        plain_summary, _ = run_gossip_replications(config, 4, seed=seed)
        with execution_override(SweepExecutor(jobs=2, chunk_size=1)):
            pool_summary, _ = run_gossip_replications(config, 4, seed=seed)
        assert np.array_equal(plain_summary.values, pool_summary.values)


# --------------------------------------------------------------------------- #
# Whole-sweep decomposition: (sweep-point x replication-chunk) in one dispatch
# --------------------------------------------------------------------------- #
class TestRunSweep:
    @settings(max_examples=max_examples(8), deadline=None)
    @given(
        grid=sweep_grids(),
        n_replications=st.integers(1, 4),
        seed=seeds,
        chunk_size=chunk_sizes,
        jobs=st.sampled_from([1, 1, 2]),
    )
    def test_matches_sequential_point_loop(self, grid, n_replications, seed, chunk_size, jobs):
        from repro.analysis.sweep import ParameterSweep

        sweep = ParameterSweep(parameter="n_agents", values=grid, fixed={"n_nodes": 49})
        factory = lambda point: BroadcastConfig(
            n_nodes=point.fixed["n_nodes"],
            n_agents=point.value,
            radius=0.0,
            max_steps=60,
        )
        # The classic experiment loop: one spawned child per point, one
        # replication call per point.
        point_rngs = spawn_rngs(seed, len(sweep))
        expected = [
            run_broadcast_replications(factory(point), n_replications, seed=rng)
            for point, rng in zip(sweep, point_rngs)
        ]
        with SweepExecutor(jobs=jobs, chunk_size=chunk_size) as executor:
            sharded = executor.run_sweep(
                sweep, factory, n_replications, seed, label="prop-sweep"
            )
        assert len(sharded) == len(expected)
        for (point, summary, results), (exp_summary, exp_results) in zip(sharded, expected):
            assert np.array_equal(summary.values, exp_summary.values)
            for got, exp in zip(results, exp_results):
                assert got.broadcast_time == exp.broadcast_time
                assert np.array_equal(got.informed_curve, exp.informed_curve)


# --------------------------------------------------------------------------- #
# map_replications: the generic per-trial path experiments use
# --------------------------------------------------------------------------- #
def _double_trials(rngs, scale: float = 1.0) -> list[dict]:
    """Module-level map fn (must be picklable for pool dispatch)."""
    draws = [int(rng.integers(0, 10_000)) for rng in rngs]
    return [{"value": float(draw) * scale, "draw": draw} for draw in draws]


def _hooked_trials(rngs, hook) -> list[int]:
    """Map fn whose kwargs carry an arbitrary callable."""
    return [hook(int(rng.integers(0, 100))) for rng in rngs]


class TestMapReplications:
    @settings(max_examples=max_examples(25), deadline=None)
    @given(
        n_replications=st.integers(1, 12),
        seed=seeds,
        chunk_size=chunk_sizes,
        scale=st.sampled_from([1.0, 2.5]),
    )
    def test_sharded_matches_inline(self, n_replications, seed, chunk_size, scale):
        inline = map_replications(_double_trials, n_replications, seed, kwargs={"scale": scale})
        with execution_override(SweepExecutor(jobs=1, chunk_size=chunk_size)):
            sharded = map_replications(
                _double_trials, n_replications, seed, kwargs={"scale": scale}
            )
        assert inline == sharded

    @settings(max_examples=max_examples(3), deadline=None)
    @given(n_replications=st.integers(2, 10), seed=seeds)
    def test_process_pool_matches_inline(self, n_replications, seed):
        inline = map_replications(_double_trials, n_replications, seed, kwargs={"scale": 2.0})
        with execution_override(SweepExecutor(jobs=2, chunk_size=2)):
            pooled = map_replications(_double_trials, n_replications, seed, kwargs={"scale": 2.0})
        assert inline == pooled

    @settings(max_examples=max_examples(6), deadline=None)
    @given(n_replications=st.integers(1, 8), seed=seeds)
    def test_unpicklable_payload_degrades_to_in_process(self, n_replications, seed):
        offset = 3

        def closure_trials(rngs):  # closures cannot cross the process boundary
            return [int(rng.integers(0, 100)) + offset for rng in rngs]

        inline = map_replications(closure_trials, n_replications, seed)
        with execution_override(SweepExecutor(jobs=2, chunk_size=2)):
            sharded = map_replications(closure_trials, n_replications, seed)
        assert inline == sharded

    def test_a_payload_count_unlike_the_generator_count_raises(self):
        def one_short(rngs):
            return [int(rng.integers(0, 100)) for rng in rngs[1:]]

        with pytest.raises(ValueError, match="returned 4 payloads for 5 generators"):
            map_replications(one_short, 5, 11)
        with execution_override(SweepExecutor(jobs=1, chunk_size=2)):
            with pytest.raises(ValueError, match="returned 1 payloads for 2 generators"):
                map_replications(one_short, 5, 11)

    def test_unpicklable_kwargs_do_not_crash(self, tmp_path):
        # Regression: a lambda buried in kwargs used to raise PicklingError
        # from the fingerprint fallback before the picklability gate ran.
        kwargs = {"hook": lambda v: v + 7}
        inline = map_replications(_hooked_trials, 5, 123, kwargs=kwargs)
        with execution_override(SweepExecutor(jobs=2, chunk_size=2, store=tmp_path)):
            sharded = map_replications(_hooked_trials, 5, 123, kwargs=kwargs)
        assert inline == sharded
        from repro.exec import ResultStore

        assert ResultStore(tmp_path).keys() == []


# --------------------------------------------------------------------------- #
# Report-level equivalence through the registry (how the CLI drives it)
# --------------------------------------------------------------------------- #
class TestReportEquivalence:
    def test_e1_report_identical_across_jobs(self):
        from repro.experiments import run_experiment

        plain = run_experiment("E1", scale="tiny", seed=7)
        sharded = run_experiment("E1", scale="tiny", seed=7, jobs=1, chunk_size=1)
        pooled = run_experiment("E1", scale="tiny", seed=7, jobs=2)
        assert plain.render() == sharded.render() == pooled.render()

    @pytest.mark.parametrize("experiment_id", ["E5", "E15"])
    def test_batched_walk_reports_identical_in_uneven_units(self, experiment_id):
        # E5's 60 and E15's 10 trials a point split into units of 7 and a
        # remainder: each unit's batch of walks must equal the whole point's.
        from repro.experiments import run_experiment

        plain = run_experiment(experiment_id, scale="tiny", seed=5)
        sharded = run_experiment(experiment_id, scale="tiny", seed=5, chunk_size=7)
        assert plain.render() == sharded.render()

    def test_map_experiment_report_identical_across_jobs(self):
        from repro.experiments import run_experiment

        plain = run_experiment("E10", scale="tiny", seed=3)
        pooled = run_experiment("E10", scale="tiny", seed=3, jobs=2)
        assert plain.render() == pooled.render()
