"""The throughput machinery: chunked pool dispatch, group commits, batch claims.

Three contracts pinned here:

* **Topology invariance** — a sweep executed through any pool chunk and
  job count merges bit-for-bit identical to the plain ``--jobs 1`` run.
  The chunking is a throughput optimisation, never an observable
  behaviour change.
* **Group-commit durability** — a crash in the middle of a
  :meth:`ResultStore.put_many` group commit loses only a suffix of the
  batch: every record already replaced into place is durable and
  parseable, and a resume re-executes exactly the missing units.
* **Batch claims** — :meth:`LeaseTable.claim_many` wins a fresh batch in
  one sweep, falls back to single claims on contested keys, and lets one
  heartbeat keep the whole batch alive.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BroadcastConfig
from repro.core.runner import run_broadcast_replications
from repro.exec import SweepExecutor, execution_override
from repro.exec.leases import LeaseTable
from repro.exec.store import ResultStore

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


class TestTopologyEquivalence:
    """Any (pool chunk x jobs) topology == the jobs=1 run."""

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
        # A fresh store reads the same bytes back.
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
