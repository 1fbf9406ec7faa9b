"""The PR-10 throughput machinery: batched claims/pushes, group commits, backoff.

Three contracts pinned here:

* **Topology invariance** — a sweep executed through any combination of
  claim batch and worker count (including under transport faults on the
  batch endpoints), or any pool chunk and job count, merges bit-for-bit
  identical to the plain ``--jobs 1`` run.  The batching is a throughput optimisation, never an
  observable behaviour change.
* **Batch isolation** — one corrupt record in a pushed batch is rejected
  and quarantined on its own; its batch-mates are stored.  A crash in the
  middle of a :meth:`ResultStore.put_many` group commit loses only a
  suffix of the batch: every record already replaced into place is durable
  and parseable, and a resume re-executes exactly the missing units.
* **Claim-path bookkeeping** — the coordinator's in-memory grant map keeps
  a pipelined worker from re-claiming its own in-flight units without
  touching the lease table, re-registration clears a restarted worker's
  stale grants, and grants older than the lease TTL fall through to the
  table's ordinary expiry/steal path.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.exec.leases import LeaseTable
from repro.exec.protocol import (
    ClaimBatchRequest,
    ClaimBatchResponse,
    PushBatchRequest,
    PushBatchResponse,
    PushEntry,
    RegisterRequest,
)
from repro.exec.remote import idle_backoff_delay
from repro.exec.seeds import SeedStreamSpec
from repro.exec.store import ResultStore
from repro.exec.units import WorkUnit

CONFIG = BroadcastConfig(n_nodes=16, n_agents=2, radius=1.0, max_steps=20)
SEED = 321
REPLICATIONS = 6


_REFERENCE: list = []


def _reference():
    """The jobs=1 inline run every topology must reproduce (computed once)."""
    if not _REFERENCE:
        _REFERENCE.append(run_broadcast_replications(CONFIG, REPLICATIONS, seed=SEED))
    return _REFERENCE[0]


def _assert_same_run(actual, expected):
    summary, results = actual
    ref_summary, ref_results = expected
    assert np.array_equal(summary.values, ref_summary.values)
    assert len(results) == len(ref_results)
    for result, ref in zip(results, ref_results):
        assert result.broadcast_time == ref.broadcast_time
        assert np.array_equal(result.informed_curve, ref.informed_curve)


def _run_topology(tmp_path, workers, claim_batch, transport_faults=None, lease_ttl=5.0):
    executor = SweepExecutor(
        dispatch="remote", store=tmp_path / "store", lease_ttl=lease_ttl
    )
    try:
        outcomes = [None] * workers

        def loop(index):
            outcomes[index] = run_worker(
                executor.coordinator.address,
                worker_id=f"topo-{index}",
                poll=0.02,
                claim_batch=claim_batch,
                idle_cap=0.1,
                transport_faults=transport_faults,
            )

        threads = [
            threading.Thread(target=loop, args=(i,), daemon=True)
            for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        with execution_override(executor):
            outcome = run_broadcast_replications(CONFIG, REPLICATIONS, seed=SEED)
        executor.coordinator.finish()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        return executor, outcome, outcomes
    finally:
        executor.close()


class TestTopologyEquivalence:
    """Any (claim batch x workers) or (pool chunk x jobs) topology == the jobs=1 run."""

    @settings(max_examples=6, deadline=None)
    @given(
        workers=st.sampled_from([1, 2]),
        claim_batch=st.sampled_from([1, 2, 5]),
    )
    def test_remote_topologies_match_inline(self, tmp_path_factory, workers, claim_batch):
        tmp_path = tmp_path_factory.mktemp("topo")
        executor, outcome, stats = _run_topology(tmp_path, workers, claim_batch)
        _assert_same_run(outcome, _reference())
        units = len(executor.store.keys())
        assert sum(s.executed for s in stats) == units

    @settings(max_examples=4, deadline=None)
    @given(
        jobs=st.sampled_from([2, 3]),
        pool_chunk=st.sampled_from([1, 2, 4]),
    )
    def test_pool_chunk_topologies_match_inline(self, tmp_path_factory, jobs, pool_chunk):
        tmp_path = tmp_path_factory.mktemp("pool")
        with SweepExecutor(
            jobs=jobs, store=tmp_path / "store", pool_chunk=pool_chunk
        ) as executor:
            with execution_override(executor):
                outcome = run_broadcast_replications(CONFIG, REPLICATIONS, seed=SEED)
        _assert_same_run(outcome, _reference())

    def test_batched_chaos_recovers_bit_for_bit(self, tmp_path):
        # Drop/dup faults on the *batch* push endpoint: every unit's first
        # batched push faults (rates sum to 1), a dropped response re-pushes
        # the whole batch, and the coordinator's per-unit idempotent acks
        # still converge to the inline result.  Each unit is answered
        # "duplicate" at least once (a mixed drop+dup batch can repeat).
        plan = TransportFaultPlan(drop_rate=0.5, dup_push_rate=0.5)
        executor, outcome, stats = _run_topology(
            tmp_path, workers=2, claim_batch=3, transport_faults=plan
        )
        _assert_same_run(outcome, _reference())
        units = len(executor.store.keys())
        duplicates = executor.coordinator.registry.get(
            "repro_remote_duplicate_pushes_total"
        )
        assert duplicates is not None and duplicates.value >= units

    def test_slow_batched_pushes_keep_their_leases(self, tmp_path):
        # A batched push delayed far past the lease TTL: the heartbeat
        # thread renews every held lease (the whole batch), so nothing is
        # stolen and every unit runs exactly once.
        plan = TransportFaultPlan(slow_rate=1.0, slow_seconds=1.0)
        executor, outcome, stats = _run_topology(
            tmp_path,
            workers=1,
            claim_batch=4,
            transport_faults=plan,
            lease_ttl=0.3,
        )
        _assert_same_run(outcome, _reference())
        steals = executor.coordinator.registry.get("repro_remote_lease_steals_total")
        assert steals is not None and steals.value == 0
        assert sum(s.executed for s in stats) == len(executor.store.keys())


def _units(count, n_replications=2):
    spec = SeedStreamSpec.from_seed(99)
    units = []
    for index in range(count):
        units.append(
            WorkUnit(
                label=f"batch-{index}",
                kind="process",
                payload={
                    "process": BroadcastProcess(
                        BroadcastConfig(n_nodes=12, n_agents=2, radius=1.0, max_steps=10)
                    ).spec
                },
                n_replications=n_replications,
                start=0,
                stop=n_replications,
                seed=spec,
            )
        )
    return units


def _register_v2(coordinator, worker):
    client = CoordinatorClient(coordinator.address)
    status, _ = client.request(
        "/api/register", RegisterRequest(worker=worker).as_json()
    )
    assert status == 200
    return client


class TestBatchEndpoints:
    def test_corrupt_record_mid_batch_is_isolated(self, tmp_path):
        coordinator = Coordinator(tmp_path / "store", lease_ttl=5.0)
        try:
            units = _units(3)
            keyed = [(unit_key(u), u.fingerprint(), u) for u in units]
            for key, fingerprint, unit in keyed:
                coordinator.submit(unit, key, fingerprint)
            client = _register_v2(coordinator, "w")
            status, body = client.request(
                "/api/v2/claim", ClaimBatchRequest(worker="w", max_units=3).as_json()
            )
            claim = ClaimBatchResponse.from_json(body)
            assert (status, claim.status, len(claim.leases)) == (200, "units", 3)

            by_key = {key: (fingerprint, unit) for key, fingerprint, unit in keyed}
            entries = []
            for index, lease in enumerate(claim.leases):
                fingerprint, unit = by_key[lease.key]
                record = execute_unit(unit)
                if index == 1:  # poison the middle record only
                    record = dict(record, values=record["values"][:1])
                entries.append(
                    PushEntry(key=lease.key, fingerprint=fingerprint, record=record)
                )
            status, body = client.request(
                "/api/v2/push",
                PushBatchRequest(worker="w", entries=tuple(entries)).as_json(),
            )
            response = PushBatchResponse.from_json(body)
            assert status == 200
            statuses = [ack.status for ack in response.acks]
            assert statuses == ["stored", "rejected", "stored"]
            assert "corrupt record" in response.acks[1].error

            store = coordinator.store
            assert entries[0].key in store and entries[2].key in store
            assert entries[1].key not in store
            assert len(sorted(store.directory.glob("*.pushrejected-*"))) == 1

            # The rejected unit stays pending: an honest re-push completes it.
            fingerprint, unit = by_key[entries[1].key]
            honest = PushEntry(
                key=entries[1].key, fingerprint=fingerprint, record=execute_unit(unit)
            )
            status, body = client.request(
                "/api/v2/push",
                PushBatchRequest(worker="w", entries=(honest,)).as_json(),
            )
            response = PushBatchResponse.from_json(body)
            assert [ack.status for ack in response.acks] == ["stored"]
            coordinator.wait([key for key, _, _ in keyed], timeout=10)
        finally:
            coordinator.close(linger=0.0)

    def test_pipelined_worker_is_not_regranted_its_inflight_units(self, tmp_path):
        coordinator = Coordinator(tmp_path / "store", lease_ttl=5.0)
        try:
            units = _units(4)
            for unit in units:
                coordinator.submit(unit, unit_key(unit), unit.fingerprint())
            client = _register_v2(coordinator, "w")
            status, body = client.request(
                "/api/v2/claim", ClaimBatchRequest(worker="w", max_units=2).as_json()
            )
            first = ClaimBatchResponse.from_json(body)
            status, body = client.request(
                "/api/v2/claim", ClaimBatchRequest(worker="w", max_units=2).as_json()
            )
            second = ClaimBatchResponse.from_json(body)
            granted = [lease.key for lease in first.leases + second.leases]
            assert len(granted) == 4 and len(set(granted)) == 4  # no re-grants

            # Everything is granted and live: a further claim idles rather
            # than probing (and stealing through) the lease table.
            status, body = client.request(
                "/api/v2/claim", ClaimBatchRequest(worker="w", max_units=2).as_json()
            )
            assert ClaimBatchResponse.from_json(body).status == "idle"

            # Re-registration is a restart: the grants are forgotten and the
            # worker may re-claim its own still-held leases.
            status, _ = client.request(
                "/api/register", RegisterRequest(worker="w").as_json()
            )
            assert status == 200
            status, body = client.request(
                "/api/v2/claim", ClaimBatchRequest(worker="w", max_units=4).as_json()
            )
            reclaim = ClaimBatchResponse.from_json(body)
            assert reclaim.status == "units" and len(reclaim.leases) == 4
        finally:
            coordinator.close(linger=0.0)

    def test_stale_grants_fall_through_to_lease_expiry(self, tmp_path):
        coordinator = Coordinator(tmp_path / "store", lease_ttl=0.2)
        try:
            unit = _units(1)[0]
            coordinator.submit(unit, unit_key(unit), unit.fingerprint())
            dead = _register_v2(coordinator, "dead")
            status, body = dead.request(
                "/api/v2/claim", ClaimBatchRequest(worker="dead", max_units=1).as_json()
            )
            assert ClaimBatchResponse.from_json(body).status == "units"
            time.sleep(0.3)  # no heartbeat: the lease (and the grant) age out
            thief = _register_v2(coordinator, "thief")
            status, body = thief.request(
                "/api/v2/claim", ClaimBatchRequest(worker="thief", max_units=1).as_json()
            )
            stolen = ClaimBatchResponse.from_json(body)
            assert stolen.status == "units" and len(stolen.leases) == 1
        finally:
            coordinator.close(linger=0.0)


class TestPutManyDurability:
    def _items(self, count):
        return [
            (f"key-{index}", {"values": [index], "meta": {"i": index}}, {"f": index})
            for index in range(count)
        ]

    def test_group_commit_stores_all_and_serves_reads(self, tmp_path):
        store = ResultStore(tmp_path)
        items = self._items(6)
        paths = store.put_many(items)
        assert len(paths) == 6 and all(path.is_file() for path in paths)
        for key, record, fingerprint in items:
            assert store.get(key, fingerprint) == record
        # A fresh store (no warm cache) reads the same bytes back.
        fresh = ResultStore(tmp_path)
        for key, record, fingerprint in items:
            assert fresh.get(key, fingerprint) == record
        assert store.put_many([]) == []

    def test_crash_mid_batch_loses_only_a_suffix(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        items = self._items(6)
        replaces = {"count": 0}
        real_replace = os.replace

        def failing_replace(src, dst, **kwargs):
            if str(dst).endswith(".json"):
                replaces["count"] += 1
                if replaces["count"] > 2:
                    raise OSError("simulated crash mid group commit")
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr("repro.exec.store.os.replace", failing_replace)
        with pytest.raises(OSError, match="simulated crash"):
            store.put_many(items)
        monkeypatch.undo()

        # Replacement happens in submission order after every byte is
        # flushed: the first two records are durable and parseable, the
        # rest are missing (their temp files are ignored garbage).
        resumed = ResultStore(tmp_path)
        for key, record, fingerprint in items[:2]:
            assert resumed.get(key, fingerprint) == record
        missing = [key for key, _, _ in items[2:] if resumed.get(key) is None]
        assert missing == [key for key, _, _ in items[2:]]
        # A resume re-executes exactly the missing units and completes.
        resumed.put_many(items[2:])
        for key, record, fingerprint in items:
            assert resumed.get(key, fingerprint) == record


class TestClaimMany:
    def test_fresh_batch_is_won_in_one_sweep(self, tmp_path):
        table = LeaseTable(tmp_path, ttl=5.0)
        keys = [f"unit-{index}" for index in range(8)]
        assert table.claim_many(keys) == keys
        assert all(table.owns(key) for key in keys)
        assert table.stats.claims == 8
        # The shared payload temp is cleaned up; only lease files remain.
        assert sorted(p.name for p in table.directory.iterdir()) == sorted(
            f"{key}.lease" for key in keys
        )

    def test_contested_keys_fall_back_to_single_claims(self, tmp_path):
        holder = LeaseTable(tmp_path, ttl=60.0, owner="holder")
        assert holder.claim("contested")
        claimant = LeaseTable(tmp_path, ttl=60.0, owner="claimant")
        won = claimant.claim_many(["contested", "free-1", "free-2"])
        assert sorted(won) == ["free-1", "free-2"]
        assert claimant.stats.conflicts == 1
        # Re-claiming an owned batch succeeds wholesale (restart recovery).
        assert sorted(claimant.claim_many(["free-1", "free-2"])) == ["free-1", "free-2"]

    def test_batch_mates_share_liveness(self, tmp_path):
        # claim_many hard-links one payload: the batch shares an inode, so
        # one utime refreshes every member — heartbeating a single key of
        # the batch keeps the whole batch alive.
        table = LeaseTable(tmp_path, ttl=0.3)
        keys = ["a", "b", "c"]
        assert table.claim_many(keys) == keys
        time.sleep(0.2)
        table.heartbeat(["a"])
        time.sleep(0.2)  # past the original claim time, within the heartbeat
        assert not any(table.expired(key) for key in keys)


class TestIdleBackoff:
    def test_doubles_from_base_and_saturates_at_cap(self):
        delays = [idle_backoff_delay(streak, 0.05, cap=0.4) for streak in range(1, 7)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.4, 0.4]

    def test_explicit_long_poll_is_never_shortened(self):
        assert idle_backoff_delay(1, 5.0, cap=2.0) == 5.0
        assert idle_backoff_delay(9, 5.0, cap=2.0) == 5.0

    def test_custom_cap_tightens_the_ceiling(self):
        assert idle_backoff_delay(10, 0.02, cap=0.1) == 0.1
        assert idle_backoff_delay(10, 0.02, cap=2.0) == 2.0


class TestStoreReadCache:
    def test_repeated_reads_are_served_from_memory(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("cached", {"values": [1]}, fingerprint={"f": 1})
        assert store.get("cached", {"f": 1}) == {"values": [1]}
        before = store.cache_hits
        assert store.get("cached", {"f": 1}) == {"values": [1]}
        assert store.cache_hits == before + 1

    def test_quarantine_invalidates_the_cache(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("bad", {"values": [1]}, fingerprint={"f": 1})
        store.get("bad", {"f": 1})
        store.quarantine("bad")
        assert store.get("bad", {"f": 1}) is None
