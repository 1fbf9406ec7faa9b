"""Remote dispatch end to end: coordinator + workers vs the inline reference.

The contract under test is the one ``docs/DISTRIBUTED.md`` states: a sweep
executed by any worker topology — two threads, a subprocess that gets
SIGKILLed mid-unit, workers whose pushes are dropped, delayed or duplicated
— merges bit-for-bit identical to the plain in-process run.  The malformed
push suite pins the server-side verification: nothing reaches the store
without passing the fingerprint and record-shape checks, and every rejected
push is quarantined for forensics instead of silently discarded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import BroadcastConfig
from repro.core.runner import run_broadcast_replications
from repro.dissemination.kernels import BroadcastProcess
from repro.exec import (
    Coordinator,
    CoordinatorClient,
    SweepExecutor,
    TransportFaultPlan,
    execute_unit,
    execution_override,
    run_worker,
    unit_key,
)
from repro.exec.protocol import (
    PROTOCOL_VERSION,
    ClaimBatchRequest,
    ClaimBatchResponse,
    PushBatchRequest,
    PushBatchResponse,
    PushEntry,
    RegisterRequest,
)
from repro.exec.remote import METRICS_CONTENT_TYPE
from repro.exec.seeds import SeedStreamSpec
from repro.exec.units import WorkUnit

CONFIG = BroadcastConfig(n_nodes=36, n_agents=4, radius=1.0, max_steps=80)
SEED = 123
REPLICATIONS = 6
REPO_ROOT = Path(__file__).resolve().parents[1]


def assert_same_run(actual, expected):
    """Bit-for-bit equality of two (summary, results) broadcast runs."""
    summary, results = actual
    ref_summary, ref_results = expected
    assert np.array_equal(summary.values, ref_summary.values)
    assert len(results) == len(ref_results)
    for result, ref in zip(results, ref_results):
        assert result.broadcast_time == ref.broadcast_time
        assert np.array_equal(result.informed_curve, ref.informed_curve)


def start_thread_workers(address, count, **kwargs):
    """In-process worker loops against ``address``; join threads to finish."""
    outcomes = [None] * count

    def loop(index):
        outcomes[index] = run_worker(
            address, worker_id=f"tw-{index}", poll=0.02, **kwargs
        )

    threads = [
        threading.Thread(target=loop, args=(i,), daemon=True) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads, outcomes


def run_remote(
    tmp_path, n_replications=REPLICATIONS, workers=2, lease_ttl=5.0, transport_faults=None
):
    """One remote-dispatch sweep; returns (executor, outcome, worker stats).

    The executor is closed before returning — callers read its counters and
    store afterwards (both survive the close).
    """
    executor = SweepExecutor(
        dispatch="remote", store=tmp_path / "store", lease_ttl=lease_ttl
    )
    try:
        threads, outcomes = start_thread_workers(
            executor.coordinator.address, workers, transport_faults=transport_faults
        )
        with execution_override(executor):
            outcome = run_broadcast_replications(CONFIG, n_replications, seed=SEED)
        executor.coordinator.finish()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        return executor, outcome, outcomes
    finally:
        executor.close()


def counter_value(executor, name):
    metric = executor.coordinator.registry.get(name)
    assert metric is not None, name
    return metric.value


class TestRemoteDispatch:
    def test_two_workers_match_the_inline_reference(self, tmp_path):
        reference = run_broadcast_replications(CONFIG, REPLICATIONS, seed=SEED)
        executor, outcome, stats = run_remote(tmp_path)
        assert_same_run(outcome, reference)
        units = len(executor.store.keys())
        assert units > 1  # the sweep actually sharded
        assert sum(s.executed for s in stats) == units
        assert counter_value(executor, "repro_remote_units_completed_total") == units
        assert counter_value(executor, "repro_remote_pushes_total") == units
        assert counter_value(executor, "repro_remote_units_pending") == 0
        assert counter_value(executor, "repro_remote_workers_total") == 2

    def test_resume_serves_from_the_store_without_workers(self, tmp_path):
        reference = run_broadcast_replications(CONFIG, REPLICATIONS, seed=SEED)
        first, _, _ = run_remote(tmp_path)
        stored = len(first.store.keys())
        executor = SweepExecutor(
            dispatch="remote", store=tmp_path / "store", lease_ttl=5.0
        )
        try:
            with execution_override(executor):
                outcome = run_broadcast_replications(CONFIG, REPLICATIONS, seed=SEED)
        finally:
            executor.close()
        assert_same_run(outcome, reference)
        # Every unit was a store hit: no worker ever claimed anything.
        assert counter_value(executor, "repro_remote_claims_total") == 0
        assert executor.store.stats.hits == stored

    def test_private_temp_store_is_removed_on_close(self):
        executor = SweepExecutor(dispatch="remote")
        own_dir = executor._own_store_dir
        assert own_dir is not None and Path(own_dir).is_dir()
        executor.close()
        assert not Path(own_dir).exists()


class TestMetricsEndpoint:
    def test_metrics_scrape_is_valid_prometheus_text(self, tmp_path):
        executor = SweepExecutor(
            dispatch="remote", store=tmp_path / "store", lease_ttl=5.0
        )
        try:
            with urllib.request.urlopen(
                f"{executor.coordinator.address}/metrics", timeout=10
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == METRICS_CONTENT_TYPE
                text = response.read().decode("utf-8")
        finally:
            executor.close()
        families = [
            "repro_remote_workers_total",
            "repro_remote_claims_total",
            "repro_remote_pushes_total",
            "repro_remote_duplicate_pushes_total",
            "repro_remote_rejected_pushes_total",
            "repro_remote_lease_steals_total",
            "repro_remote_units_pending",
        ]
        for family in families:
            assert f"# HELP {family} " in text
            assert f"# TYPE {family} " in text
            assert f"\n{family} 0\n" in f"\n{text}"  # eager zero before traffic
        for line in text.splitlines():
            assert line.startswith("#") or len(line.split()) == 2, line

    def test_status_document_and_unknown_paths(self, tmp_path):
        executor = SweepExecutor(
            dispatch="remote", store=tmp_path / "store", lease_ttl=5.0
        )
        try:
            address = executor.coordinator.address
            with urllib.request.urlopen(f"{address}/api/status", timeout=10) as response:
                document = json.loads(response.read().decode("utf-8"))
            assert document["pending"] == 0 and document["finished"] is False
            client = CoordinatorClient(address)
            status, _ = client.request("/definitely-not-an-endpoint")
            assert status == 404
            # The single-unit endpoints of the pre-batch protocol are gone.
            status, _ = client.request("/api/unit/no-such-key")
            assert status == 404
            for path in ("/api/claim", "/api/push"):
                status, _ = client.request(path, {"worker": "w"})
                assert status == 404, path
        finally:
            executor.close()


class TestTransportChaos:
    def test_dropped_and_duplicated_pushes_recover_bit_for_bit(self, tmp_path):
        reference = run_broadcast_replications(CONFIG, REPLICATIONS, seed=SEED)
        plan = TransportFaultPlan(drop_rate=0.5, dup_push_rate=0.5)
        executor, outcome, stats = run_remote(tmp_path, transport_faults=plan)
        assert_same_run(outcome, reference)
        units = len(executor.store.keys())
        # Every unit's first push faulted (rates sum to 1): a dropped
        # response is retried into a duplicate ack, a double push gets one
        # "stored" and one "duplicate" — either way exactly one duplicate.
        assert counter_value(executor, "repro_remote_duplicate_pushes_total") == units
        assert sum(s.duplicates for s in stats) == units

    def test_slow_pushes_keep_their_leases_through_heartbeats(self, tmp_path):
        # A push delayed far past the lease TTL must NOT get its lease
        # stolen: the worker is alive and its heartbeat thread renews the
        # lease, so the unit runs exactly once.  (Steals are reserved for
        # dead workers — see TestWorkerDeath.)
        reference = run_broadcast_replications(CONFIG, 2, seed=SEED)
        plan = TransportFaultPlan(slow_rate=1.0, slow_seconds=1.5)
        executor, outcome, stats = run_remote(
            tmp_path, n_replications=2, lease_ttl=0.3, transport_faults=plan
        )
        assert_same_run(outcome, reference)
        assert counter_value(executor, "repro_remote_lease_steals_total") == 0
        assert counter_value(executor, "repro_remote_duplicate_pushes_total") == 0
        assert sum(s.executed for s in stats) == len(executor.store.keys())


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
class TestWorkerDeath:
    def test_killed_workers_units_are_stolen_and_rerun_byte_equal(
        self, tmp_path, start_method
    ):
        reference = run_broadcast_replications(CONFIG, REPLICATIONS, seed=SEED)
        executor = SweepExecutor(
            dispatch="remote", store=tmp_path / "store", lease_ttl=1.0
        )
        outcome: dict = {}

        def drive():
            with execution_override(executor):
                outcome["run"] = run_broadcast_replications(
                    CONFIG, REPLICATIONS, seed=SEED
                )

        driver = threading.Thread(target=drive, daemon=True)
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
            ),
            REPRO_EXEC_START_METHOD=start_method,
            # The victim executes its unit, then sleeps 120 s before pushing
            # — plenty of time to be killed while holding the lease.
            REPRO_REMOTE_FAULTS=json.dumps({"slow_rate": 1.0, "slow_seconds": 120.0}),
        )
        victim = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--coordinator", executor.coordinator.address,
                "--worker-id", "victim", "--poll", "0.05",
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            driver.start()
            deadline = time.monotonic() + 60
            while counter_value(executor, "repro_remote_claims_total") < 1:
                assert time.monotonic() < deadline, "victim never claimed a unit"
                assert victim.poll() is None, "victim exited prematurely"
                time.sleep(0.05)
            time.sleep(1.0)  # let the victim finish executing and enter the sleep
            victim.kill()
            victim.wait(timeout=30)
            threads, stats = start_thread_workers(executor.coordinator.address, 1)
            driver.join(timeout=120)
            assert not driver.is_alive()
            executor.coordinator.finish()
            for thread in threads:
                thread.join(timeout=60)
            assert_same_run(outcome["run"], reference)
            assert counter_value(executor, "repro_remote_lease_steals_total") >= 1
            assert stats[0].executed >= 1
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=30)
            executor.close()


def _unit(n_replications=2):
    return WorkUnit(
        label="push-validation",
        kind="process",
        payload={
            "process": BroadcastProcess(
                BroadcastConfig(n_nodes=16, n_agents=2, radius=1.0, max_steps=10)
            ).spec
        },
        n_replications=n_replications,
        start=0,
        stop=n_replications,
        seed=SeedStreamSpec.from_seed(7),
    )


class TestPushValidation:
    def test_bad_pushes_are_rejected_and_quarantined_without_poisoning(self, tmp_path):
        coordinator = Coordinator(tmp_path / "store", lease_ttl=5.0)
        try:
            unit = _unit()
            key, fingerprint = unit_key(unit), unit.fingerprint()
            coordinator.submit(unit, key, fingerprint)
            client = CoordinatorClient(coordinator.address)
            status, _ = client.request(
                "/api/register", RegisterRequest(worker="w").as_json()
            )
            assert status == 200
            status, body = client.request(
                "/api/v2/claim", ClaimBatchRequest(worker="w", max_units=1).as_json()
            )
            claim = ClaimBatchResponse.from_json(body)
            assert status == 200 and claim.status == "units"
            assert [lease.key for lease in claim.leases] == [key]

            record = execute_unit(unit)

            def push(push_key, push_fingerprint, push_record):
                """One entry through /api/v2/push; returns (http status, its ack)."""
                entry = PushEntry(key=push_key, fingerprint=push_fingerprint, record=push_record)
                status, body = client.request(
                    "/api/v2/push", PushBatchRequest(worker="w", entries=(entry,)).as_json()
                )
                (ack,) = PushBatchResponse.from_json(body).acks
                return status, ack

            # Fingerprint mismatch: rejected, quarantined, store untouched.
            status, ack = push(key, {"forged": True}, record)
            assert (status, ack.status) == (200, "rejected") and "fingerprint" in ack.error

            # Right fingerprint, truncated record: rejected too.
            truncated = dict(record, values=record["values"][:1])
            status, ack = push(key, fingerprint, truncated)
            assert (status, ack.status) == (200, "rejected")
            assert "corrupt record" in ack.error

            # Garbage body: a protocol error, not a server error.
            request = urllib.request.Request(
                f"{coordinator.address}/api/v2/push",
                data=b"not json at all",
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400

            # Unknown key: rejected, but nothing to quarantine.
            status, ack = push("f" * 32, fingerprint, record)
            assert (status, ack.status) == (200, "rejected") and "unknown unit" in ack.error

            store = coordinator.store
            assert key not in store
            quarantined = sorted(store.directory.glob("*.pushrejected-*"))
            assert len(quarantined) == 2
            assert coordinator.registry.get("repro_remote_rejected_pushes_total").value == 2

            # The honest push still lands, and the store resumes from it.
            status, ack = push(key, fingerprint, record)
            assert (status, ack.status) == (200, "stored")
            coordinator.wait([key], timeout=10)
            assert store.get(key, fingerprint) == json.loads(json.dumps(record))

            # Byte-equal re-push is idempotent; a conflicting one is not.
            status, ack = push(key, fingerprint, record)
            assert (status, ack.status) == (200, "duplicate")
            conflicting = json.loads(json.dumps(record))
            conflicting["values"] = [v + 1 for v in conflicting["values"]]
            status, ack = push(key, fingerprint, conflicting)
            assert (status, ack.status) == (200, "rejected")
        finally:
            coordinator.close(linger=0.0)

    def test_version_mismatch_is_rejected_at_register(self, tmp_path):
        coordinator = Coordinator(tmp_path / "store", lease_ttl=5.0)
        try:
            client = CoordinatorClient(coordinator.address)
            # Version 1 is a worker from before the single batched protocol.
            for version in (1, PROTOCOL_VERSION + 1, 99):
                status, body = client.request(
                    "/api/register", RegisterRequest(worker="w", version=version).as_json()
                )
                assert status == 400 and "version mismatch" in body["error"], version
            status, _ = client.request(
                "/api/register", RegisterRequest(worker="w").as_json()
            )
            assert status == 200
        finally:
            coordinator.close(linger=0.0)


class TestFailureHandling:
    def test_persistently_failing_units_are_declared_dead(self, tmp_path):
        coordinator = Coordinator(
            tmp_path / "store", lease_ttl=5.0, poll_interval=0.02, max_unit_failures=2
        )
        worker_thread = None
        try:
            unit = WorkUnit(
                label="doomed",
                kind="process",
                payload={"process": {"name": "no-such-process-kernel", "kwargs": {}}},
                n_replications=2,
                start=0,
                stop=2,
                seed=SeedStreamSpec.from_seed(1),
            )
            key = unit_key(unit)
            coordinator.submit(unit, key, unit.fingerprint())
            outcomes = {}

            def loop():
                outcomes["stats"] = run_worker(
                    coordinator.address, worker_id="w", poll=0.02
                )

            worker_thread = threading.Thread(target=loop, daemon=True)
            worker_thread.start()
            with pytest.raises(RuntimeError, match="declared dead"):
                coordinator.wait([key], timeout=60)
            coordinator.finish()
            worker_thread.join(timeout=30)
            assert not worker_thread.is_alive()
            assert outcomes["stats"].failures == 2
            assert (
                coordinator.registry.get("repro_remote_unit_failures_total").value == 2
            )
            assert key not in coordinator.store
        finally:
            coordinator.close(linger=0.0)
            if worker_thread is not None:
                worker_thread.join(timeout=10)
