"""Lease table: cooperative unit ownership for concurrent executors.

When several executors (or a restarted one) share a :class:`ResultStore`,
each pending work unit should be executed by exactly one of them.  A
:class:`LeaseTable` is the on-disk claim registry that arranges this: a
directory of ``<unit-key>.lease`` files living beside the store, where

* **claim** atomically creates the lease file (``O_CREAT | O_EXCL``), so of
  two racing executors exactly one wins;
* **heartbeat** touches the file's mtime while the owner is still working;
* a lease whose mtime is older than the TTL is **expired** — its owner
  crashed or lost the unit — and may be *stolen* (atomically replaced) by
  another executor, which requeues the unit.  So may a lease whose owner
  id (``<pid>-<uuid>``) names a process that no longer exists on this
  host, at once: a rerun after its predecessor was killed need not wait
  out the TTL;
* **release** removes the file once the unit's record is safely in the
  store.

The table is a liveness mechanism, not a lock: correctness never depends on
it.  Units are pure functions of their spec, so even a double-run (possible
in the instant between expiry and a steal racing a slow heartbeat) produces
the identical record, and the store's atomic writes make the duplicate put
a harmless overwrite with equal bytes.  What the table guarantees is that
no unit is *orphaned* — every claimed unit either completes or its lease
expires and someone else picks it up.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.obs.metrics import Counter

#: Default seconds without a heartbeat before a lease counts as expired.
DEFAULT_LEASE_TTL = 60.0


class LeaseStats:
    """Counters a :class:`LeaseTable` accumulates, for execution reports.

    The attributes read and assign as plain ``int``s (existing call sites
    do ``stats.claims += 1``) but are backed by :class:`repro.obs.Counter`
    instruments, so an executor can adopt them into its
    :class:`~repro.obs.MetricsRegistry` and the execution report becomes a
    registry snapshot.  See ``docs/OBSERVABILITY.md``.
    """

    def __init__(self) -> None:
        self._claims = Counter(
            "repro_lease_claims_total", help="Lease claims won (fresh claims and steals)."
        )
        self._conflicts = Counter(
            "repro_lease_conflicts_total", help="Lease claims lost to another live owner."
        )
        self._steals = Counter(
            "repro_lease_steals_total", help="Expired leases stolen from a dead owner."
        )
        self._releases = Counter(
            "repro_lease_releases_total", help="Leases released after unit completion."
        )

    def counters(self) -> tuple[Counter, ...]:
        """The backing instruments, for adoption into a registry."""
        return (self._claims, self._conflicts, self._steals, self._releases)

    @property
    def claims(self) -> int:
        return int(self._claims.value)

    @claims.setter
    def claims(self, value: int) -> None:
        self._claims.set(value)

    @property
    def conflicts(self) -> int:
        return int(self._conflicts.value)

    @conflicts.setter
    def conflicts(self, value: int) -> None:
        self._conflicts.set(value)

    @property
    def steals(self) -> int:
        return int(self._steals.value)

    @steals.setter
    def steals(self, value: int) -> None:
        self._steals.set(value)

    @property
    def releases(self) -> int:
        return int(self._releases.value)

    @releases.setter
    def releases(self, value: int) -> None:
        self._releases.set(value)


@dataclass
class LeaseTable:
    """Directory of per-unit lease files, shared by cooperating executors."""

    directory: Union[str, Path]
    ttl: float = DEFAULT_LEASE_TTL
    owner: str = field(default="")

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.ttl <= 0:
            raise ValueError(f"ttl must be positive, got {self.ttl}")
        if not self.owner:
            self.owner = f"{os.getpid()}-{uuid.uuid4().hex[:12]}"
        self.stats = LeaseStats()

    def path_for(self, key: str) -> Path:
        """Path of the lease file for ``key``."""
        return Path(self.directory) / f"{key}.lease"

    # -- claiming ----------------------------------------------------------- #
    def claim(self, key: str) -> bool:
        """Try to take (or re-take, or steal) the lease on ``key``.

        Returns ``True`` when this table now owns the lease: a fresh claim,
        a re-claim of a lease it already holds, or a steal of an expired
        one or of one whose owner process is gone (:meth:`holder_gone`).
        Returns ``False`` when another live owner holds it.
        """
        path = self.path_for(key)
        payload = json.dumps({"owner": self.owner, "claimed_at": time.time()})
        # The payload is written to a private temp file first and hard-linked
        # into place: ``os.link`` fails with ``FileExistsError`` exactly like
        # ``O_CREAT | O_EXCL``, but the lease file becomes visible with its
        # payload already complete.  Creating the file empty and writing the
        # payload afterwards (the previous scheme) left a window in which a
        # concurrent claimant read ``holder() is None`` and stole a lease
        # whose owner was alive and mid-write.
        tmp: Optional[Path] = path.with_name(path.name + f".steal-{self.owner}")
        tmp.write_text(payload, encoding="utf-8")
        try:
            try:
                os.link(tmp, path)
            except FileExistsError:
                pass
            else:
                self.stats.claims += 1
                return True
            if self.owns(key):
                return True
            self._sweep_stale_temps()
            # Only a lease whose mtime has outlived the TTL, or whose owner
            # process is gone, is stealable.  An unreadable payload with a
            # live mtime is NOT: its writer may be alive (mid-write, or about
            # to heartbeat), and treating corrupt as stealable is what let
            # racing claimants both "win".
            if not self.expired(key) and not self.holder_gone(key):
                self.stats.conflicts += 1
                return False
            # Steal it with an atomic replace, so concurrent stealers cannot
            # interleave partial writes.
            os.replace(tmp, path)
            tmp = None  # consumed by the rename
            self.stats.claims += 1
            self.stats.steals += 1
            return True
        finally:
            if tmp is not None:
                try:
                    tmp.unlink()
                except OSError:
                    pass

    def claim_many(self, keys: "list[str] | tuple[str, ...]") -> list[str]:
        """Claim a batch of keys in one sweep; returns the keys now owned.

        The batched fast path writes the claim payload to **one** temp file
        and hard-links it to every lease name that does not exist yet — one
        payload write and one temp unlink for the whole batch instead of one
        per key.  The linked names share an inode, so the batch shares one
        mtime: a heartbeat on any of them refreshes them all, which is
        exactly the liveness the owner (who heartbeats every held key
        together) already provides.  Keys whose lease file already exists
        fall back to the ordinary :meth:`claim` path (re-claim, conflict or
        steal) one at a time.
        """
        if not keys:
            return []
        payload = json.dumps({"owner": self.owner, "claimed_at": time.time()})
        # The name matches the ``*.lease.steal-*`` pattern so an abandoned
        # copy is swept by ``_sweep_stale_temps`` like any claim temp.
        tmp = Path(self.directory) / f".batch.lease.steal-{self.owner}"
        tmp.write_text(payload, encoding="utf-8")
        won: list[str] = []
        contested: list[str] = []
        try:
            for key in keys:
                try:
                    os.link(tmp, self.path_for(key))
                except FileExistsError:
                    contested.append(key)
                else:
                    self.stats.claims += 1
                    won.append(key)
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
        for key in contested:
            if self.claim(key):
                won.append(key)
        return won

    def holder(self, key: str) -> Optional[str]:
        """Owner id recorded in the lease file, or ``None`` if absent/corrupt."""
        try:
            document = json.loads(self.path_for(key).read_text(encoding="utf-8"))
            return str(document["owner"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def holder_gone(self, key: str) -> bool:
        """Whether the lease's owner id names a process that no longer exists here.

        The id is ``<pid>-<uuid>``, made on this host, the only topology.
        An unreadable payload, an id without a PID, or a process that
        exists (or may: another user's) counts as alive and keeps the TTL
        rule.  A PID the host reused reads as alive too, which only delays
        the steal to the TTL.
        """
        pid, _, _ = (self.holder(key) or "").partition("-")
        if not pid.isdigit() or int(pid) <= 0:
            return False
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            return True
        except (OSError, OverflowError):
            return False
        return False

    def owns(self, key: str) -> bool:
        """Whether this table currently holds the lease on ``key``."""
        return self.holder(key) == self.owner

    def expired(self, key: str) -> bool:
        """Whether the lease on ``key`` has gone :attr:`ttl` without a heartbeat.

        A missing file counts as expired (there is nothing to wait for).
        """
        try:
            mtime = self.path_for(key).stat().st_mtime
        except OSError:
            return True
        return (time.time() - mtime) > self.ttl

    # -- liveness ----------------------------------------------------------- #
    def heartbeat(self, keys: list[str] | tuple[str, ...]) -> None:
        """Refresh the mtimes of leases this table owns (others untouched)."""
        for key in keys:
            if self.owns(key):
                try:
                    os.utime(self.path_for(key))
                except OSError:
                    pass

    def release(self, key: str) -> None:
        """Drop the lease on ``key`` if this table owns it."""
        if self.owns(key):
            try:
                self.path_for(key).unlink()
                self.stats.releases += 1
            except OSError:
                pass

    def _sweep_stale_temps(self) -> None:
        """Remove ``.steal-*`` temp files abandoned by crashed claimants.

        A claimant that dies between writing its temp file and linking or
        renaming it leaves the temp behind; anything older than the TTL can
        never be consumed and is deleted.  Live temps are left alone.
        """
        now = time.time()
        for tmp in Path(self.directory).glob("*.lease.steal-*"):
            try:
                if (now - tmp.stat().st_mtime) > self.ttl:
                    tmp.unlink()
            except OSError:
                pass

    def keys(self) -> list[str]:
        """Keys of all live lease files (stale steal temps are swept)."""
        self._sweep_stale_temps()
        return sorted(p.name[: -len(".lease")] for p in Path(self.directory).glob("*.lease"))
