"""Lease table: cooperative unit ownership between concurrent executors.

Unit tests pin down the claim/heartbeat/expiry/steal protocol of
:class:`repro.exec.LeaseTable`; the integration tests then run real sweeps
with a shared store and show that (a) an executor blocked on another live
owner's lease picks the finished record up from the store instead of
re-executing, (b) an expired lease (dead owner) is stolen and the unit
requeued, and (c) two concurrent executors over one store execute each
unit exactly once between them — no unit result is double-merged.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from pathlib import Path

import pytest

from repro.exec import (
    LeaseTable,
    SweepExecutor,
    execution_override,
    map_replications,
)

from tests.test_exec_faults import CHUNK, N_TRIALS, _reference, _trials


def _sweep(executor) -> list:
    with execution_override(executor):
        return map_replications(_trials, N_TRIALS, seed=99, kwargs={"scale": 2.0})


# --------------------------------------------------------------------------- #
# LeaseTable protocol
# --------------------------------------------------------------------------- #
class TestLeaseTable:
    def test_claim_is_exclusive(self, tmp_path):
        first = LeaseTable(tmp_path, ttl=60.0)
        second = LeaseTable(tmp_path, ttl=60.0)
        assert first.owner != second.owner
        assert first.claim("unit")
        assert not second.claim("unit")
        assert first.owns("unit") and not second.owns("unit")
        assert first.stats.claims == 1
        assert second.stats.conflicts == 1

    def test_reclaiming_an_owned_lease_succeeds(self, tmp_path):
        table = LeaseTable(tmp_path, ttl=60.0)
        assert table.claim("unit")
        assert table.claim("unit")
        assert table.stats.claims == 1  # the re-claim is not a fresh claim

    def test_expired_lease_is_stolen(self, tmp_path):
        dead = LeaseTable(tmp_path, ttl=0.1)
        living = LeaseTable(tmp_path, ttl=0.1)
        assert dead.claim("unit")
        time.sleep(0.15)
        assert living.expired("unit")
        assert living.claim("unit")
        assert living.owns("unit") and not dead.owns("unit")
        assert living.stats.steals == 1

    def test_heartbeat_keeps_a_lease_alive(self, tmp_path):
        table = LeaseTable(tmp_path, ttl=0.4)
        other = LeaseTable(tmp_path, ttl=0.4)
        assert table.claim("unit")
        for _ in range(3):
            time.sleep(0.2)
            table.heartbeat(["unit"])
        # 0.6s elapsed > ttl, but the heartbeats kept the mtime fresh.
        assert not other.expired("unit")
        assert not other.claim("unit")

    def test_heartbeat_skips_foreign_leases(self, tmp_path):
        owner = LeaseTable(tmp_path, ttl=0.2)
        other = LeaseTable(tmp_path, ttl=0.2)
        assert owner.claim("unit")
        time.sleep(0.25)
        other.heartbeat(["unit"])  # not the owner: must not refresh it
        assert other.expired("unit")

    def test_release_only_removes_own_leases(self, tmp_path):
        owner = LeaseTable(tmp_path, ttl=60.0)
        other = LeaseTable(tmp_path, ttl=60.0)
        assert owner.claim("unit")
        other.release("unit")
        assert owner.owns("unit") and owner.keys() == ["unit"]
        owner.release("unit")
        assert owner.keys() == []
        assert owner.stats.releases == 1

    def test_missing_lease_counts_as_expired(self, tmp_path):
        table = LeaseTable(tmp_path, ttl=60.0)
        assert table.expired("never-claimed")
        assert table.holder("never-claimed") is None

    def test_corrupt_lease_file_is_reclaimable_only_after_expiry(self, tmp_path):
        # A corrupt payload with a *fresh* mtime may belong to a live owner
        # caught mid-write, so it must be treated as held; once the mtime
        # outlives the TTL it is reclaimable like any expired lease.
        table = LeaseTable(tmp_path, ttl=60.0)
        table.path_for("unit").write_text("not json", encoding="utf-8")
        assert table.holder("unit") is None
        assert not table.claim("unit")
        assert table.stats.conflicts == 1
        stale = time.time() - 3600.0
        os.utime(table.path_for("unit"), (stale, stale))
        assert table.claim("unit")
        assert table.owns("unit")

    def test_ttl_validation(self, tmp_path):
        with pytest.raises(ValueError):
            LeaseTable(tmp_path, ttl=0.0)

    def test_concurrent_fresh_claims_have_exactly_one_winner(self, tmp_path):
        # Regression: claim() used to create the lease file and *then*
        # write the payload, so a concurrent claimant could read the still
        # empty file, see ``holder() is None`` and steal a live lease —
        # both executors then ran the unit.  The claim is now
        # payload-complete-or-absent (write-to-temp + atomic link), so a
        # fresh key has exactly one winner no matter the interleaving.
        n_claimants, n_rounds = 6, 25
        tables = [
            LeaseTable(tmp_path, ttl=60.0, owner=f"claimant-{i}")
            for i in range(n_claimants)
        ]
        barrier = threading.Barrier(n_claimants)
        wins = [[False] * n_rounds for _ in range(n_claimants)]

        def run(i: int) -> None:
            for r in range(n_rounds):
                barrier.wait()
                wins[i][r] = tables[i].claim(f"unit-{r}")

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(n_claimants)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for r in range(n_rounds):
            winners = sum(row[r] for row in wins)
            assert winners == 1, f"round {r}: {winners} winners"
        # Losing claimants must clean up their temp payload files.
        assert not list(tmp_path.glob("*.steal-*"))

    def test_stale_claim_temps_are_swept(self, tmp_path):
        table = LeaseTable(tmp_path, ttl=1.0)
        stray = tmp_path / "unit.lease.steal-dead-owner"
        stray.write_text("{}", encoding="utf-8")
        old = time.time() - 3600.0
        os.utime(stray, (old, old))
        fresh = tmp_path / "unit.lease.steal-live-owner"
        fresh.write_text("{}", encoding="utf-8")
        table.keys()  # any directory scan sweeps expired temps
        assert not stray.exists()
        assert fresh.exists()  # younger than the TTL: may still be mid-claim


# --------------------------------------------------------------------------- #
# Executor integration
# --------------------------------------------------------------------------- #
def _record_files(store_dir: Path) -> list[Path]:
    return sorted(p for p in store_dir.glob("*.json"))


class TestExecutorLeases:
    def test_leases_claimed_and_released_over_a_run(self, tmp_path):
        executor = SweepExecutor(jobs=1, chunk_size=CHUNK, store=str(tmp_path))
        values = _sweep(executor)
        report = executor.execution_report()
        assert values == _reference()
        assert report.executed == 6
        assert report.lease_claims == 6
        assert executor.leases is not None and executor.leases.keys() == []

    def test_blocked_executor_adopts_the_live_owners_record(self, tmp_path):
        reference = _reference()
        done = tmp_path / "done"
        shared = tmp_path / "shared"
        shared.mkdir()
        # A completed run elsewhere provides the records the "live owner"
        # will eventually deliver (keys are content-addressed, so they are
        # identical across stores).
        _sweep(SweepExecutor(jobs=1, chunk_size=CHUNK, store=str(done)))
        keys = [p.stem for p in _record_files(done)]
        assert len(keys) == 6

        owner = LeaseTable(shared / "leases", ttl=60.0, owner="live-owner")
        for key in keys:
            assert owner.claim(key)

        def deliver() -> None:
            # The concurrent owner "finishes": records land in the store,
            # then its leases are dropped.
            time.sleep(0.3)
            for path in _record_files(done):
                shutil.copy(path, shared / path.name)
            for key in keys:
                owner.release(key)

        thread = threading.Thread(target=deliver)
        thread.start()
        try:
            executor = SweepExecutor(
                jobs=1, chunk_size=CHUNK, store=str(shared), lease_ttl=2.0
            )
            values = _sweep(executor)
        finally:
            thread.join()
        report = executor.execution_report()
        assert values == reference
        assert report.executed == 0  # every unit came from the owner's records
        assert report.store_hits == 6
        assert report.lease_conflicts >= 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unit_finished_before_the_claim_is_not_rerun(
        self, tmp_path, monkeypatch, jobs
    ):
        # Regression: the pool path used to execute a unit whose record
        # another executor stored between run_units' store check and the
        # lease claim.  A won claim re-checks the store, on every plane.
        reference = _reference()
        done = tmp_path / "done"
        shared = tmp_path / "shared"
        _sweep(SweepExecutor(jobs=1, chunk_size=CHUNK, store=str(done)))
        real_claim = LeaseTable.claim

        def claim_after_another_executor_finished(table, key):
            shutil.copy(done / f"{key}.json", shared / f"{key}.json")
            return real_claim(table, key)

        monkeypatch.setattr(LeaseTable, "claim", claim_after_another_executor_finished)
        executor = SweepExecutor(jobs=jobs, chunk_size=CHUNK, store=str(shared))
        values = _sweep(executor)
        report = executor.execution_report()
        assert values == reference
        assert report.executed == 0
        assert report.store_hits == 6

    def test_expired_foreign_lease_is_stolen_and_unit_requeued(self, tmp_path):
        reference = _reference()
        executor = SweepExecutor(jobs=1, chunk_size=CHUNK, store=str(tmp_path))
        values = _sweep(executor)
        assert values == reference
        keys = [p.stem for p in _record_files(tmp_path)]
        for path in _record_files(tmp_path):
            path.unlink()  # the dead owner never delivered its records

        dead = LeaseTable(tmp_path / "leases", ttl=60.0, owner="dead-owner")
        stale = time.time() - 3600.0
        for key in keys:
            assert dead.claim(key)
            os.utime(dead.path_for(key), (stale, stale))

        fresh = SweepExecutor(
            jobs=1, chunk_size=CHUNK, store=str(tmp_path), lease_ttl=1.0
        )
        values = _sweep(fresh)
        report = fresh.execution_report()
        assert values == reference
        assert report.executed == 6  # every expired lease was requeued and run
        assert report.lease_steals == 6

    def test_concurrent_executors_share_one_store_without_double_merging(
        self, tmp_path
    ):
        reference = _reference()
        results: dict[str, object] = {}

        def run(name: str) -> None:
            executor = SweepExecutor(
                jobs=1, chunk_size=CHUNK, store=str(tmp_path), lease_ttl=0.5
            )
            results[name] = (_sweep(executor), executor.execution_report())

        threads = [threading.Thread(target=run, args=(n,)) for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        reports = []
        for name in ("a", "b"):
            values, report = results[name]
            assert values == reference
            # Each unit reached this run exactly once: freshly executed,
            # loaded from the store, or adopted from the other executor.
            assert report.executed + report.store_hits == 6
            reports.append(report)
        # Between the two executors every unit was executed exactly once —
        # the loser of each lease race adopted the winner's record.
        assert sum(r.executed for r in reports) == 6
