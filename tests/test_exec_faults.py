"""Chaos suite: the executor under injected faults.

The property every test here defends: a sweep executed under worker
crashes, hangs, raised errors and corrupt records — at rates up to 20% —
completes, and its merged records are **bit-for-bit identical** to a
fault-free ``jobs=1`` run.  Work units are pure functions of their spec, so
retrying, requeueing or re-running a unit anywhere reproduces the identical
record; the fault-tolerance layer must surface that property, and the
:class:`~repro.exec.ExecutionReport` must make the recovery work visible.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import (
    FaultInjectionError,
    FaultPlan,
    RetryPolicy,
    SweepExecutor,
    execution_override,
    map_replications,
)
from repro.exec.faults import FAULT_KINDS, corrupt_record

from tests.strategies import max_examples


def _trials(rngs, scale: float = 1.0) -> list[dict]:
    """Module-level so units are picklable (pool + spawn) and storable."""
    return [{"value": float(rng.integers(0, 10_000)) * scale} for rng in rngs]


N_TRIALS = 12
CHUNK = 2  # -> 6 work units


def _reference() -> list:
    with execution_override(SweepExecutor(jobs=1, chunk_size=CHUNK)):
        return map_replications(_trials, N_TRIALS, seed=99, kwargs={"scale": 2.0})


def _run_with(plan, jobs=2, retries=3, unit_timeout=None, store=None, chunk=CHUNK):
    executor = SweepExecutor(
        jobs=jobs,
        chunk_size=chunk,
        store=store,
        fault_plan=plan,
        retry=RetryPolicy(
            max_attempts=retries + 1, backoff_base=0.01, unit_timeout=unit_timeout
        ),
    )
    with execution_override(executor):
        values = map_replications(_trials, N_TRIALS, seed=99, kwargs={"scale": 2.0})
    return values, executor.execution_report()


# --------------------------------------------------------------------------- #
# RetryPolicy
# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_delay_is_deterministic_and_grows(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.1, backoff_factor=2.0)
        delays = [policy.delay(f, "unit-token") for f in (1, 2, 3)]
        assert delays == [policy.delay(f, "unit-token") for f in (1, 2, 3)]
        # Jitter is bounded to [0.5, 1.5) of the exponential envelope, so
        # failure f+1's delay always exceeds failure f's lower bound.
        for f, delay in enumerate(delays, start=1):
            envelope = 0.1 * 2.0 ** (f - 1)
            assert 0.5 * envelope <= delay < 1.5 * envelope

    def test_jitter_varies_by_token(self):
        policy = RetryPolicy(max_attempts=2, backoff_base=1.0)
        assert policy.delay(1, "unit-a") != policy.delay(1, "unit-b")

    def test_backoff_cap(self):
        policy = RetryPolicy(max_attempts=99, backoff_base=1.0, backoff_max=2.0)
        assert policy.delay(50, "t") < 3.0

    def test_from_options(self):
        assert RetryPolicy.from_options().max_attempts == 1
        policy = RetryPolicy.from_options(retries=2, unit_timeout=5.0)
        assert policy.max_attempts == 3
        assert policy.unit_timeout == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(unit_timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy.from_options(retries=-1)


# --------------------------------------------------------------------------- #
# FaultPlan
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_deterministic_across_calls(self):
        plan = FaultPlan(crash_rate=0.25, hang_rate=0.25, error_rate=0.25, corrupt_rate=0.25)
        tokens = [f"unit-{i}" for i in range(64)]
        first = [plan.fault_for(t, 0) for t in tokens]
        assert first == [plan.fault_for(t, 0) for t in tokens]
        assert set(first) <= set(FAULT_KINDS)  # rates sum to 1: every unit faults

    def test_rates_partition_units(self):
        plan = FaultPlan(error_rate=0.5)
        verdicts = {plan.fault_for(f"u{i}", 0) for i in range(128)}
        assert verdicts == {None, "error"}

    def test_zero_plan_never_faults(self):
        plan = FaultPlan()
        assert all(plan.fault_for(f"u{i}", 0) is None for i in range(32))

    def test_submissions_beyond_threshold_never_fault(self):
        plan = FaultPlan(crash_rate=1.0, max_faulted_submissions=2)
        assert plan.fault_for("u", 0) == "crash"
        assert plan.fault_for("u", 1) == "crash"
        assert plan.fault_for("u", 2) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=0.6, hang_rate=0.6)
        with pytest.raises(ValueError):
            FaultPlan(hang_seconds=-1.0)

    def test_corrupt_record_truncates_trial_lists(self):
        record = {"values": [1.0, 2.0], "results": [{}, {}], "extra": 7}
        mangled = corrupt_record(record)
        assert mangled["values"] == [1.0] and mangled["results"] == [{}]
        assert mangled["extra"] == 7
        assert record["values"] == [1.0, 2.0]  # original untouched
        assert corrupt_record({"trials": [1, 2, 3]})["trials"] == [1, 2]


# --------------------------------------------------------------------------- #
# Chaos: injected faults vs the fault-free reference, bit for bit
# --------------------------------------------------------------------------- #
class TestChaos:
    def test_error_and_corrupt_faults_recover_bit_for_bit(self):
        reference = _reference()
        plan = FaultPlan(error_rate=0.2, corrupt_rate=0.2, salt=3)
        values, report = _run_with(plan, jobs=2, retries=3)
        assert values == reference
        assert report.attempts >= report.executed == 6

    def test_crash_faults_sigkill_workers_and_recover_bit_for_bit(self):
        reference = _reference()
        # Every unit's first submission SIGKILLs its worker mid-unit.
        values, report = _run_with(FaultPlan(crash_rate=1.0), jobs=2, retries=0)
        assert values == reference
        assert report.pool_rebuilds >= 1
        assert report.requeues >= 6  # every unit came back through a requeue
        assert not report.degraded

    def test_hang_faults_time_out_and_recover_bit_for_bit(self):
        reference = _reference()
        plan = FaultPlan(hang_rate=1.0, hang_seconds=30.0)
        values, report = _run_with(plan, jobs=2, retries=2, unit_timeout=0.75, chunk=6)
        assert values == reference
        assert report.timeouts >= 1
        assert report.retries >= 1

    def test_mixed_faults_at_20_percent_match_fault_free_jobs1(self, tmp_path):
        reference = _reference()
        plan = FaultPlan(
            crash_rate=0.08,
            hang_rate=0.04,
            error_rate=0.04,
            corrupt_rate=0.04,
            hang_seconds=30.0,
            salt=7,
        )
        values, report = _run_with(
            plan, jobs=2, retries=4, unit_timeout=1.0, store=str(tmp_path)
        )
        assert values == reference
        assert report.executed == 6
        # And a resumed run over the same (fault-free) store is pure hits.
        values2, report2 = _run_with(None, jobs=2, retries=0, store=str(tmp_path))
        assert values2 == reference
        assert report2.store_hits == 6 and report2.executed == 0

    def test_inline_jobs1_faults_convert_crashes_and_recover(self):
        reference = _reference()
        plan = FaultPlan(crash_rate=0.2, error_rate=0.2, corrupt_rate=0.2, salt=5)
        values, report = _run_with(plan, jobs=1, retries=3)
        assert values == reference
        assert report.retries >= 1  # the plan faults at least one of 6 units

    def test_sticky_crashes_degrade_to_in_process_execution(self):
        reference = _reference()
        # Crashes on the first four submissions of every unit: the pool
        # fails repeatedly without progress, the executor gives up on it,
        # and the in-process fallback (where crash faults raise instead of
        # killing the interpreter) retries to completion.
        plan = FaultPlan(crash_rate=1.0, max_faulted_submissions=4)
        values, report = _run_with(plan, jobs=2, retries=7)
        assert values == reference
        assert report.degraded
        assert report.pool_rebuilds >= 3

    def test_exhausted_retries_propagate_the_failure(self):
        # Fault outlasts the attempt budget: two retries, three faulted
        # submissions, so the original exception must surface.
        plan = FaultPlan(error_rate=1.0, max_faulted_submissions=3)
        with pytest.raises(FaultInjectionError):
            _run_with(plan, jobs=1, retries=2)

    def test_corrupt_record_is_never_merged(self):
        with pytest.raises(RuntimeError, match="corrupt record"):
            _run_with(FaultPlan(corrupt_rate=1.0), jobs=1, retries=0)

    def test_fault_free_report_is_quiet(self):
        values, report = _run_with(None, jobs=1, retries=2)
        assert values == _reference()
        assert report.attempts == report.executed == 6
        assert report.retries == report.timeouts == report.requeues == 0
        assert report.pool_rebuilds == 0 and not report.degraded
        json_report = report.as_json()
        assert json_report["units"] == 6
        assert "lease_steals" in json_report


# --------------------------------------------------------------------------- #
# Property: any plan of raise/corrupt faults, any topology -> reference
# --------------------------------------------------------------------------- #
class TestChaosProperties:
    @settings(max_examples=max_examples(10), deadline=None)
    @given(
        error_rate=st.floats(0.0, 0.2),
        corrupt_rate=st.floats(0.0, 0.2),
        salt=st.integers(0, 1_000),
        jobs=st.sampled_from([1, 2]),
        chunk=st.sampled_from([2, 3, 5]),
    )
    def test_fault_injection_never_changes_results(
        self, error_rate, corrupt_rate, salt, jobs, chunk
    ):
        reference = _reference()
        plan = FaultPlan(error_rate=error_rate, corrupt_rate=corrupt_rate, salt=salt)
        values, _ = _run_with(plan, jobs=jobs, retries=3, chunk=chunk)
        assert values == reference
