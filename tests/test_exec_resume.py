"""Integration tests for the executor's checkpoint/resume path.

The scenario that matters: a sweep is killed after M work units, the
operator re-runs with ``--resume DIR``, completed units are skipped (their
record files are not even rewritten — mtimes stay untouched) and the final
report is bit-for-bit the report of an uninterrupted run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import BroadcastConfig
from repro.core.runner import run_broadcast_replications
from repro.exec import (
    FaultPlan,
    ResultStore,
    RetryPolicy,
    SweepExecutor,
    execution_override,
    map_replications,
)


# --------------------------------------------------------------------------- #
# ResultStore behaviour
# --------------------------------------------------------------------------- #
class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get("abc") is None
        store.put("abc", {"values": [1.0, 2.0]}, fingerprint={"label": "x"})
        assert "abc" in store
        assert store.get("abc") == {"values": [1.0, 2.0]}
        assert store.keys() == ["abc"]

    def test_corrupt_record_is_quarantined(self, tmp_path):
        # An unparseable file must not shadow its key forever: it is renamed
        # aside (for post-mortems) and the key reads as missing, so a resume
        # re-executes that unit instead of dying.
        store = ResultStore(tmp_path)
        store.path_for("bad").write_text("{not json", encoding="utf-8")
        assert store.get("bad") is None
        assert not store.path_for("bad").exists()
        quarantined = store.quarantined_files()
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith("bad.corrupt-")
        assert store.stats.quarantined == 1
        # The key is now writable again.
        store.put("bad", {"values": [1.0]})
        assert store.get("bad") == {"values": [1.0]}

    def test_truncated_record_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"values": [1.0, 2.0]})
        full = store.path_for("k").read_text(encoding="utf-8")
        store.path_for("k").write_text(full[: len(full) // 2], encoding="utf-8")
        # Truncation happens across a process boundary (a kill mid-write on a
        # pre-atomic store), so the resuming process opens a fresh store: the
        # read cache of the writer never sees the corruption.
        resumed = ResultStore(tmp_path)
        assert resumed.get("k") is None
        assert resumed.quarantined_files()

    def test_record_without_payload_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        store.path_for("odd").write_text(json.dumps({"x": 1}), encoding="utf-8")
        assert store.get("odd") is None
        assert not store.path_for("odd").exists()
        assert store.stats.quarantined == 1

    def test_fingerprint_mismatch_is_a_miss_but_not_quarantined(self, tmp_path):
        # A record whose stored fingerprint disagrees with the requested one
        # belongs to some other unit definition: re-execute, but keep the
        # file — it is not corrupt, merely foreign.
        store = ResultStore(tmp_path)
        store.put("k", {"values": [1.0]}, fingerprint={"label": "x", "seed": 1})
        assert store.get("k", fingerprint={"label": "x", "seed": 2}) is None
        assert store.path_for("k").exists()
        assert store.stats.fingerprint_mismatches == 1
        assert store.stats.quarantined == 0
        # The true owner still reads it.
        assert store.get("k", fingerprint={"label": "x", "seed": 1}) == {"values": [1.0]}

    def test_matching_fingerprint_is_order_insensitive(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"values": [1.0]}, fingerprint={"a": 1, "b": 2})
        assert store.get("k", fingerprint={"b": 2, "a": 1}) == {"values": [1.0]}

    def test_stats_track_hits_and_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("nope") is None
        store.put("k", {"values": [1.0]})
        assert store.get("k") is not None
        assert store.stats.misses == 1
        assert store.stats.hits == 1

    def test_get_does_not_touch_mtime(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"trials": [1]})
        before = store.path_for("k").stat().st_mtime_ns
        assert store.get("k") == {"trials": [1]}
        assert store.path_for("k").stat().st_mtime_ns == before

    def test_put_is_atomic(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"trials": [1, 2]})
        assert not list(tmp_path.glob("*.tmp"))


# --------------------------------------------------------------------------- #
# Kill-and-resume on a map sweep
# --------------------------------------------------------------------------- #
# Module-level trial with an injectable failure, so the interrupted and the
# resumed run share one unit fingerprint (behaviour is controlled out of
# band, exactly like a kill signal).
_TRIAL_STATE = {"calls": 0, "fail_after": None}


def _fragile_trials(rngs, scale: float = 1.0) -> list[dict]:
    payloads = []
    for rng in rngs:
        if (
            _TRIAL_STATE["fail_after"] is not None
            and _TRIAL_STATE["calls"] >= _TRIAL_STATE["fail_after"]
        ):
            raise RuntimeError("simulated kill")
        _TRIAL_STATE["calls"] += 1
        payloads.append({"value": float(rng.integers(0, 10_000)) * scale})
    return payloads


@pytest.fixture(autouse=True)
def _reset_trial_state():
    _TRIAL_STATE["calls"] = 0
    _TRIAL_STATE["fail_after"] = None
    yield
    _TRIAL_STATE["calls"] = 0
    _TRIAL_STATE["fail_after"] = None


N_TRIALS = 12
CHUNK = 3  # -> 4 work units of 3 trials each


def _run_sweep(store_dir) -> list:
    with execution_override(SweepExecutor(jobs=1, chunk_size=CHUNK, store=store_dir)):
        return map_replications(_fragile_trials, N_TRIALS, seed=99, kwargs={"scale": 2.0})


class TestKillAndResume:
    def test_resume_skips_completed_units_and_matches_uninterrupted_run(self, tmp_path):
        interrupted = tmp_path / "interrupted"
        pristine = tmp_path / "pristine"

        # Uninterrupted reference run (its own store).
        reference = _run_sweep(pristine)
        assert _TRIAL_STATE["calls"] == N_TRIALS

        # Kill the sweep after two complete units (6 trials).
        _TRIAL_STATE["calls"] = 0
        _TRIAL_STATE["fail_after"] = 2 * CHUNK
        with pytest.raises(RuntimeError, match="simulated kill"):
            _run_sweep(interrupted)
        store = ResultStore(interrupted)
        completed_before = store.keys()
        assert len(completed_before) == 2
        mtimes = {key: store.path_for(key).stat().st_mtime_ns for key in completed_before}

        # Resume: only the two missing units run (6 trials), stored records
        # are read but never rewritten, and the merged sweep is bit-for-bit
        # the uninterrupted one.
        _TRIAL_STATE["calls"] = 0
        _TRIAL_STATE["fail_after"] = None
        resumed = _run_sweep(interrupted)
        assert _TRIAL_STATE["calls"] == N_TRIALS - 2 * CHUNK
        assert resumed == reference
        for key in completed_before:
            assert store.path_for(key).stat().st_mtime_ns == mtimes[key]
        assert len(store.keys()) == 4

    def test_second_full_run_executes_nothing(self, tmp_path):
        _run_sweep(tmp_path / "store")
        _TRIAL_STATE["calls"] = 0
        again = _run_sweep(tmp_path / "store")
        assert _TRIAL_STATE["calls"] == 0
        assert len(again) == N_TRIALS

    def test_resume_over_a_corrupt_store_file_re_executes_only_that_unit(
        self, tmp_path
    ):
        reference = _run_sweep(tmp_path / "store")
        store = ResultStore(tmp_path / "store")
        keys = store.keys()
        assert len(keys) == 4
        victim = keys[1]
        size = store.path_for(victim).stat().st_size
        store.path_for(victim).write_text("garbage }", encoding="utf-8")

        _TRIAL_STATE["calls"] = 0
        resumed = _run_sweep(tmp_path / "store")
        # Only the clobbered unit re-ran; the damaged file was set aside.
        assert _TRIAL_STATE["calls"] == CHUNK
        assert resumed == reference
        assert store.keys() == keys
        assert store.path_for(victim).stat().st_size == size
        assert len(store.quarantined_files()) == 1

    def test_resume_over_a_tampered_fingerprint_re_executes(self, tmp_path):
        reference = _run_sweep(tmp_path / "store")
        store = ResultStore(tmp_path / "store")
        victim = store.keys()[0]
        document = json.loads(store.path_for(victim).read_text(encoding="utf-8"))
        document["fingerprint"]["n_replications"] = 9999
        store.path_for(victim).write_text(json.dumps(document), encoding="utf-8")

        _TRIAL_STATE["calls"] = 0
        resumed = _run_sweep(tmp_path / "store")
        assert _TRIAL_STATE["calls"] == CHUNK  # the foreign record was not trusted
        assert resumed == reference

    def test_closures_never_enter_the_store(self, tmp_path):
        # Two distinct closures share a qualname, so their unit fingerprints
        # would collide; the store must therefore ignore unpicklable
        # payloads entirely (regression: a resume used to serve the first
        # closure's records to the second).
        def sweep_with(offset):
            def closure_trials(rngs):
                return [int(rng.integers(0, 100)) + offset for rng in rngs]

            with execution_override(
                SweepExecutor(jobs=1, chunk_size=CHUNK, store=tmp_path)
            ):
                return map_replications(closure_trials, N_TRIALS, seed=42)

        first = sweep_with(0)
        second = sweep_with(1000)
        assert ResultStore(tmp_path).keys() == []
        assert [v + 1000 for v in first] == second


# --------------------------------------------------------------------------- #
# Resume on broadcast-kernel units, across worker counts
# --------------------------------------------------------------------------- #
class TestSimulationResume:
    def test_store_is_shared_between_jobs_counts(self, tmp_path):
        config = BroadcastConfig(n_nodes=49, n_agents=4, radius=0.0, max_steps=120)
        plain_summary, _ = run_broadcast_replications(config, 6, seed=5)

        # Populate the store with a pooled run...
        with execution_override(SweepExecutor(jobs=2, chunk_size=2, store=tmp_path)):
            pooled_summary, _ = run_broadcast_replications(config, 6, seed=5)
        store = ResultStore(tmp_path)
        keys = store.keys()
        assert len(keys) == 3
        mtimes = {key: store.path_for(key).stat().st_mtime_ns for key in keys}

        # ...then resume in process: same chunk layout, same keys, no
        # re-execution (mtimes untouched), identical values.
        with execution_override(SweepExecutor(jobs=1, chunk_size=2, store=tmp_path)):
            resumed_summary, resumed_results = run_broadcast_replications(config, 6, seed=5)
        assert store.keys() == keys
        for key in keys:
            assert store.path_for(key).stat().st_mtime_ns == mtimes[key]
        assert np.array_equal(plain_summary.values, pooled_summary.values)
        assert np.array_equal(plain_summary.values, resumed_summary.values)
        assert len(resumed_results) == 6

    def test_none_override_preserves_ambient_executor(self, tmp_path):
        # run_experiment(jobs=1) must not mask an executor installed by the
        # caller (execution_override(None) is a true no-op).
        from repro.exec import SweepExecutor, current_executor, execution_override
        from repro.experiments import run_experiment

        with execution_override(SweepExecutor(jobs=1, chunk_size=1, store=tmp_path)):
            ambient = current_executor()
            with execution_override(None):
                assert current_executor() is ambient
            run_experiment("E1", scale="tiny", seed=9)
        assert len(ResultStore(tmp_path).keys()) > 0

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_sigkilled_worker_recovers_bit_for_bit(self, tmp_path, start_method):
        # The headline fault-tolerance property on real broadcast units: a
        # pool worker is SIGKILLed mid-unit (every unit's first submission),
        # the pool is rebuilt, in-flight units are requeued, and the merged
        # sweep is bit-for-bit the plain jobs=1 run.
        config = BroadcastConfig(n_nodes=49, n_agents=4, radius=0.0, max_steps=120)
        plain_summary, plain_results = run_broadcast_replications(config, 6, seed=5)

        executor = SweepExecutor(
            jobs=2,
            chunk_size=2,
            store=tmp_path,
            start_method=start_method,
            fault_plan=FaultPlan(crash_rate=1.0),
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01),
        )
        with execution_override(executor):
            summary, results = run_broadcast_replications(config, 6, seed=5)
        report = executor.execution_report()
        executor.close()

        assert report.pool_rebuilds >= 1
        assert report.requeues >= 1
        assert report.executed == 3 and report.units == 3
        assert np.array_equal(plain_summary.values, summary.values)
        for plain, recovered in zip(plain_results, results):
            assert plain.broadcast_time == recovered.broadcast_time
            assert plain.n_steps == recovered.n_steps
            assert np.array_equal(plain.informed_curve, recovered.informed_curve)

        # The store the crashing run left behind resumes cleanly.
        with execution_override(SweepExecutor(jobs=1, chunk_size=2, store=tmp_path)):
            resumed_summary, _ = run_broadcast_replications(config, 6, seed=5)
        assert np.array_equal(plain_summary.values, resumed_summary.values)

    def test_cli_resume_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "cli-store")
        assert main(["run", "E1", "--scale", "tiny", "--seed", "2"]) == 0
        plain_out = capsys.readouterr().out
        assert main(["run", "E1", "--scale", "tiny", "--seed", "2", "--resume", store_dir]) == 0
        first_out = capsys.readouterr().out
        store = ResultStore(store_dir)
        keys = store.keys()
        assert keys
        mtimes = {key: store.path_for(key).stat().st_mtime_ns for key in keys}
        assert main(
            ["run", "E1", "--scale", "tiny", "--seed", "2", "--resume", store_dir, "--jobs", "2"]
        ) == 0
        second_out = capsys.readouterr().out
        assert plain_out == first_out == second_out
        assert store.keys() == keys
        for key in keys:
            assert store.path_for(key).stat().st_mtime_ns == mtimes[key]
