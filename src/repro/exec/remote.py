"""Multi-host sweep execution: HTTP coordinator + worker loop.

The missing transport between :class:`~repro.exec.executor.SweepExecutor`
and a fleet of hosts.  Everything that makes single-box execution
deterministic and resumable already lives below this module — JSON-able
:class:`~repro.exec.seeds.SeedStreamSpec` stream derivation,
content-addressed :class:`~repro.exec.store.ResultStore` records, and
claim/heartbeat/steal :class:`~repro.exec.leases.LeaseTable` ownership —
so the transport only has to carry the existing unit lifecycle over HTTP:

* the **coordinator** (one per sweep, embedded in the executor under
  ``dispatch="remote"``) owns the store directory and serves worker
  registration, batched lease claims over the pending units (unit payloads
  inlined), batched record pushes and heartbeats, plus a Prometheus
  ``/metrics`` scrape of the run's registries;
* a **worker** (``repro worker --coordinator URL``, or :func:`run_worker`
  in-process) loops claim → :func:`~repro.exec.executor.execute_unit` →
  push until the coordinator says the sweep is done.

Determinism is inherited, not re-implemented: a worker rebuilds exactly the
unit the coordinator decomposed (:mod:`repro.exec.protocol` round-trip),
derives exactly the trial streams the inline path would, and the executor
merges records in unit order — so any worker topology produces bit-for-bit
the ``--jobs 1`` result.  Fault handling is inherited too: each worker gets
its own :class:`LeaseTable` view (same directory, its own owner id), so a
dead worker's leases expire and are *stolen* through the ordinary claim
path, and a double-run after a steal pushes a byte-equal record the
coordinator accepts idempotently.

One protocol (:data:`~repro.exec.protocol.PROTOCOL_VERSION`) carries
every unit: ``POST /api/v2/claim`` hands out up to ``max_units`` leases
with unit payloads inlined, and ``POST /api/v2/push`` accepts a batch of
records validated independently per unit (per-unit
stored/duplicate/rejected acks, stored entries group-committed through
:meth:`~repro.exec.store.ResultStore.put_many`).  A single unit travels as
a batch of one.  The register handshake refuses any other version.
Workers ride a persistent keep-alive connection
(:class:`~repro.exec.transport.CoordinatorClient`) and back off
exponentially while idle.

Everything here is stdlib-only (``http.server`` / ``http.client``); no
new runtime dependencies.

Security: the coordinator implements **no authentication, authorization or
transport encryption**.  Any peer that can reach the socket can claim
units and push records.  Bind it to loopback or a trusted private network
only — never to an internet-facing interface.  See ``docs/DISTRIBUTED.md``.
"""

from __future__ import annotations

import gzip
import json
import os
import queue
import shutil
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Optional, Sequence, Union

from repro.exec.executor import execute_unit
from repro.exec.faults import TransportFaultPlan
from repro.exec.leases import DEFAULT_LEASE_TTL, LeaseTable
from repro.exec.protocol import (
    PROTOCOL_VERSION,
    ClaimBatchRequest,
    ClaimBatchResponse,
    FailureReport,
    HeartbeatRequest,
    LeaseGrant,
    ProtocolError,
    PushAck,
    PushBatchRequest,
    PushBatchResponse,
    PushEntry,
    RegisterRequest,
    RegisterResponse,
    canonical_json,
    decode_unit,
    encode_unit,
)
from repro.exec.store import ResultStore, fingerprints_match
from repro.exec.transport import GZIP_THRESHOLD, CoordinatorClient
from repro.exec.units import WorkUnit, record_matches_unit
from repro.obs.metrics import MetricsRegistry, render_registries
from repro.obs.progress import emit_progress

#: Deterministic worker-side failures tolerated per unit before the
#: coordinator declares the unit dead and the sweep fails loudly.
DEFAULT_MAX_UNIT_FAILURES = 5

#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _parse_listen(listen: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (port 0 asks the OS for one)."""
    host, sep, port_text = listen.rpartition(":")
    if not sep or not host:
        raise ValueError(f"listen address must be 'host:port', got {listen!r}")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(f"invalid listen port in {listen!r}") from exc
    return host, port


# --------------------------------------------------------------------------- #
# Coordinator
# --------------------------------------------------------------------------- #
@dataclass
class _PendingUnit:
    """One submitted unit awaiting a worker's record."""

    unit: WorkUnit
    fingerprint: dict[str, Any]
    document: dict[str, Any]
    callbacks: list[Callable[[dict[str, Any]], None]] = field(default_factory=list)


class _CoordinatorServer(ThreadingHTTPServer):
    """The embedded HTTP server; one handler thread per request."""

    daemon_threads = True
    allow_reuse_address = True
    coordinator: "Coordinator"


class Coordinator:
    """HTTP side of remote dispatch: owns the store, serves the unit lifecycle.

    Parameters
    ----------
    store:
        The :class:`ResultStore` (or its directory) every pushed record is
        verified against and persisted into.  Leases live in
        ``<store>/leases`` — the same table layout single-box executors
        share, so remote workers and local executors interoperate.
    lease_ttl:
        Seconds a claimed unit may go without a heartbeat before its lease
        counts as expired and another worker may steal it.
    listen:
        ``"host:port"`` bind address; port ``0`` picks a free port (read
        the result back from :attr:`address`).  Loopback by default — see
        the module security note.
    extra_registries:
        Additional :class:`MetricsRegistry` instances merged into the
        ``/metrics`` exposition (the executor passes its own registry and
        the process-global one, so one scrape shows the whole run).
    poll_interval:
        Idle-claim retry hint handed to workers (default: derived from the
        TTL).
    max_unit_failures:
        Worker-reported failures tolerated per unit before the unit is
        declared dead and :meth:`wait` raises.
    """

    def __init__(
        self,
        store: Union[ResultStore, str, os.PathLike],
        lease_ttl: float = DEFAULT_LEASE_TTL,
        listen: str = "127.0.0.1:0",
        extra_registries: Sequence[MetricsRegistry] = (),
        poll_interval: Optional[float] = None,
        max_unit_failures: int = DEFAULT_MAX_UNIT_FAILURES,
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        if max_unit_failures < 1:
            raise ValueError(f"max_unit_failures must be >= 1, got {max_unit_failures}")
        self.lease_ttl = float(lease_ttl)
        self.poll_interval = (
            float(poll_interval)
            if poll_interval is not None
            else min(max(self.lease_ttl / 20.0, 0.05), 1.0)
        )
        self.max_unit_failures = int(max_unit_failures)
        self.extra_registries = tuple(extra_registries)
        self._lease_directory = self.store.directory / "leases"

        self._condition = threading.Condition()
        self._pending: dict[str, _PendingUnit] = {}
        #: key -> canonical record bytes of a batch push whose group commit
        #: is in flight (written outside the condition, so claims and other
        #: pushes are not stalled behind the batch's fsyncs).
        self._committing: dict[str, str] = {}
        #: key -> (worker, monotonic grant time) of an unresolved grant.  The
        #: map serves two purposes on the claim path.  First, a pipelined
        #: worker claims its next batch while the current one is still
        #: executing; without the map the lease table would happily re-grant
        #: the worker its *own* in-flight units (re-claiming an owned lease
        #: is legal — it is how a restarted worker recovers) and every batch
        #: would be executed twice.  Second, probing another live worker's
        #: lease costs file operations (temp write + link + stat) under the
        #: coordinator lock; the map answers "granted and fresh" from memory,
        #: so a claim scan past N in-flight units is N dict lookups, not N
        #: disk probes.  A grant older than the lease TTL is *not* trusted —
        #: the scan falls through to the lease table, whose heartbeat-backed
        #: expiry decides whether the unit is genuinely stealable.  Entries
        #: clear on push, failure, rejection, and (re-)registration.
        self._granted: dict[str, tuple[str, float]] = {}
        self._completed: set[str] = set()
        self._failed: dict[str, str] = {}
        self._failures: dict[str, int] = {}
        self._tables: dict[str, LeaseTable] = {}
        self._active_workers: set[str] = set()
        self._finished = False
        self._closed = False

        # Transport counters, created eagerly so a /metrics scrape shows the
        # full repro_remote_* family (at zero) before any traffic arrives.
        self.registry = MetricsRegistry()
        reg = self.registry
        self._workers_total = reg.counter(
            "repro_remote_workers_total", help="Workers that registered with the coordinator."
        )
        self._claims_total = reg.counter(
            "repro_remote_claims_total", help="Unit leases handed to workers."
        )
        self._idle_polls_total = reg.counter(
            "repro_remote_idle_polls_total", help="Claim polls answered with no claimable unit."
        )
        self._heartbeats_total = reg.counter(
            "repro_remote_heartbeats_total", help="Worker heartbeat requests processed."
        )
        self._pushes_total = reg.counter(
            "repro_remote_pushes_total", help="Record pushes accepted and stored."
        )
        self._duplicate_pushes_total = reg.counter(
            "repro_remote_duplicate_pushes_total",
            help="Byte-equal re-pushes of already-stored records (accepted idempotently).",
        )
        self._rejected_pushes_total = reg.counter(
            "repro_remote_rejected_pushes_total",
            help="Pushes rejected (bad fingerprint, corrupt record) and quarantined.",
        )
        self._lease_steals_total = reg.counter(
            "repro_remote_lease_steals_total",
            help="Expired leases stolen from a dead worker through the claim path.",
        )
        self._unit_failures_total = reg.counter(
            "repro_remote_unit_failures_total", help="Worker-reported unit execution failures."
        )
        self._units_completed_total = reg.counter(
            "repro_remote_units_completed_total", help="Units completed via a worker push."
        )
        self._units_pending = reg.gauge(
            "repro_remote_units_pending", help="Units submitted and not yet completed."
        )
        batch_buckets = (1, 2, 4, 8, 16, 32, 64, 128)
        self._claim_batch_size = reg.histogram(
            "repro_remote_batch_size",
            help="Units per batched request, by operation.",
            labels={"op": "claim"},
            buckets=batch_buckets,
        )
        self._push_batch_size = reg.histogram(
            "repro_remote_batch_size",
            help="Units per batched request, by operation.",
            labels={"op": "push"},
            buckets=batch_buckets,
        )

        host, port = _parse_listen(listen)
        self._server = _CoordinatorServer((host, port), _CoordinatorHandler)
        self._server.coordinator = self
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-coordinator",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> str:
        """Base URL workers connect to (bound host and the actual port)."""
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    # -- executor-facing API ------------------------------------------------- #
    def submit(
        self,
        unit: WorkUnit,
        key: str,
        fingerprint: dict[str, Any],
        on_record: Optional[Callable[[dict[str, Any]], None]] = None,
    ) -> None:
        """Queue ``unit`` for workers; ``on_record`` fires once it completes.

        Raises :class:`ProtocolError` if the unit cannot cross the wire (a
        map payload, a config with no JSON form), before touching any state.
        """
        document = encode_unit(unit)
        with self._condition:
            if self._closed:
                raise RuntimeError("coordinator is closed")
            if key in self._completed:
                # Completed since the caller's store check: serve from disk.
                record = self._raw_stored_record(key)
                if record is not None:
                    if on_record is not None:
                        on_record(record)
                    return
                self._completed.discard(key)
            entry = self._pending.get(key)
            if entry is None:
                entry = _PendingUnit(unit=unit, fingerprint=fingerprint, document=document)
                self._pending[key] = entry
                self._units_pending.set(len(self._pending))
            if on_record is not None:
                entry.callbacks.append(on_record)
            self._condition.notify_all()

    def wait(self, keys: Sequence[str], timeout: Optional[float] = None) -> None:
        """Block until every key completes; raise if any unit was declared dead."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while True:
                failed = [key for key in keys if key in self._failed]
                if failed:
                    details = "; ".join(
                        f"{key}: {self._failed[key]}" for key in failed[:3]
                    )
                    raise RuntimeError(
                        f"{len(failed)} remote unit(s) failed "
                        f"{self.max_unit_failures} times and were declared dead "
                        f"({details})"
                    )
                if all(key in self._completed for key in keys):
                    return
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"remote units not completed within {timeout}s"
                        )
                self._condition.wait(timeout=remaining if remaining is not None else 1.0)

    def finish(self) -> None:
        """Declare that no more units will be submitted.

        Workers polling an empty queue are answered ``"done"`` (and exit)
        only after this — between batches of one sweep they are told
        ``"idle"`` and keep polling.
        """
        with self._condition:
            self._finished = True
            self._condition.notify_all()

    def close(self, linger: float = 2.0) -> None:
        """Finish, give workers up to ``linger`` seconds to hear "done", stop.

        The linger loop polls the active-worker set, so it normally returns
        in one or two poll intervals; a worker that died mid-run simply
        times the linger out.  Idempotent.
        """
        with self._condition:
            if self._closed:
                return
            self._finished = True
            self._closed = True
            self._condition.notify_all()
        deadline = time.monotonic() + max(0.0, linger)
        while time.monotonic() < deadline:
            with self._condition:
                if not self._active_workers:
                    break
            time.sleep(0.05)
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def render_metrics(self) -> str:
        """The ``/metrics`` document: this registry merged with the extras."""
        return render_registries(self.registry, *self.extra_registries)

    # -- worker-facing operations (called from handler threads) -------------- #
    def register(self, request: RegisterRequest) -> RegisterResponse:
        if request.version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: worker speaks v{request.version}, "
                f"coordinator speaks v{PROTOCOL_VERSION}"
            )
        with self._condition:
            if request.worker not in self._tables:
                self._tables[request.worker] = LeaseTable(
                    self._lease_directory, ttl=self.lease_ttl, owner=request.worker
                )
                self._workers_total.inc()
                emit_progress("worker_registered", worker=request.worker, host=request.host)
            else:
                # A re-registration is a restarted worker: whatever its
                # previous life had claimed is no longer in flight, and it
                # must be able to re-claim its own (still-held) leases.
                for key, (holder, _) in list(self._granted.items()):
                    if holder == request.worker:
                        del self._granted[key]
            self._active_workers.add(request.worker)
        return RegisterResponse(
            worker=request.worker,
            lease_ttl=self.lease_ttl,
            poll_interval=self.poll_interval,
        )

    def _grant_is_fresh(self, key: str, worker: str, now: float) -> bool:
        """Whether ``key`` has an in-flight grant a claim by ``worker`` must skip.

        The worker's own grants are always skipped (a pipelined claim must
        never re-receive units it is still executing).  Another worker's
        grant is skipped only while younger than the lease TTL; past that
        the claim falls through to the lease table, whose heartbeat-backed
        expiry decides whether the unit is genuinely stealable.
        """
        grant = self._granted.get(key)
        if grant is None:
            return False
        holder, granted_at = grant
        if holder == worker:
            return True
        return (now - granted_at) <= self.lease_ttl

    def _table_for(self, worker: str) -> LeaseTable:
        table = self._tables.get(worker)
        if table is None:
            raise ProtocolError(f"unknown worker {worker!r} (register first)")
        return table

    def claim_batch(self, request: ClaimBatchRequest) -> ClaimBatchResponse:
        """Lease up to ``max_units`` pending units, unit payloads inlined.

        Units are offered in submission order.  A unit is skipped while it
        has a fresh grant (:meth:`_grant_is_fresh`) or another live owner's
        lease; an expired lease is stolen.  The answer is ``"units"`` with at
        least one lease, ``"done"`` once the coordinator is finished and
        nothing is pending, else ``"idle"``.
        """
        with self._condition:
            table = self._table_for(request.worker)
            now = time.monotonic()
            # Phase 1: pick candidates with in-memory checks only, then take
            # their lease files in one claim_many sweep — a single payload
            # write for the whole batch instead of one per key.
            candidates: list[tuple[str, _PendingUnit]] = []
            for key, entry in self._pending.items():
                if len(candidates) >= request.max_units:
                    break
                if self._grant_is_fresh(key, request.worker, now):
                    continue
                candidates.append((key, entry))
            steals_before = table.stats.steals
            won = set(table.claim_many([key for key, _ in candidates]))
            stolen = table.stats.steals - steals_before
            if stolen:
                self._lease_steals_total.inc(stolen)
                emit_progress(
                    "remote_lease_stolen", count=stolen, worker=request.worker
                )
            leases: list[LeaseGrant] = []
            for key, entry in candidates:
                if key not in won:
                    continue
                self._claims_total.inc()
                self._granted[key] = (request.worker, now)
                leases.append(
                    LeaseGrant(key=key, fingerprint=entry.fingerprint, unit=entry.document)
                )
            if leases:
                self._claim_batch_size.observe(len(leases))
                return ClaimBatchResponse(
                    status="units", leases=tuple(leases), retry_after=self.poll_interval
                )
            if self._finished and not self._pending:
                self._active_workers.discard(request.worker)
                self._condition.notify_all()
                return ClaimBatchResponse(status="done")
            self._idle_polls_total.inc()
            return ClaimBatchResponse(status="idle", retry_after=self.poll_interval)

    def heartbeat(self, request: HeartbeatRequest) -> None:
        with self._condition:
            table = self._table_for(request.worker)
            self._heartbeats_total.inc()
        # Touching lease mtimes needs no coordinator state; the table only
        # refreshes leases this worker actually owns.
        table.heartbeat(request.keys)

    def fail(self, request: FailureReport) -> None:
        with self._condition:
            table = self._table_for(request.worker)
            self._unit_failures_total.inc()
            emit_progress(
                "remote_unit_failed",
                key=request.key,
                worker=request.worker,
                error=request.error,
            )
            table.release(request.key)
            grant = self._granted.get(request.key)
            if grant is not None and grant[0] == request.worker:
                del self._granted[request.key]
            if request.key not in self._pending:
                return
            self._failures[request.key] = self._failures.get(request.key, 0) + 1
            if self._failures[request.key] >= self.max_unit_failures:
                self._failed[request.key] = request.error or "unit execution failed"
                self._pending.pop(request.key, None)
                self._units_pending.set(len(self._pending))
                self._condition.notify_all()

    def push_batch(self, request: PushBatchRequest) -> tuple[int, dict[str, Any]]:
        """Validate a batch of pushed records independently; group-commit the good ones.

        Every entry gets its own :class:`~repro.exec.protocol.PushAck` —
        one corrupt record is quarantined and acknowledged ``"rejected"``
        without poisoning its batch-mates.  All accepted records are
        persisted through a single :meth:`ResultStore.put_many` group
        commit (one directory fsync for the whole batch), issued *outside*
        the coordinator lock so concurrent claims and pushes are not
        stalled behind the batch's fsyncs.  While the commit is in flight
        the affected units are parked in a committing set: a concurrent
        re-push of the same bytes (a lease steal racing the original
        owner) is answered ``"duplicate"``, conflicting bytes
        ``"rejected"`` — exactly the answers an already-completed unit
        gives.
        """
        with self._condition:
            table = self._table_for(request.worker)
            self._push_batch_size.observe(len(request.entries))
            acks: list[PushAck] = []
            stored: list[tuple[PushEntry, _PendingUnit]] = []
            seen: dict[str, str] = {}
            for entry in request.entries:
                if entry.key in seen:
                    # A within-batch repeat: byte-equal is the idempotent
                    # duplicate; conflicting bytes are a corrupt sibling.
                    if canonical_json(entry.record) == seen[entry.key]:
                        self._duplicate_pushes_total.inc()
                        acks.append(PushAck(key=entry.key, status="duplicate"))
                    else:
                        self._quarantine_record(
                            request.worker, entry.key, entry.fingerprint, entry.record
                        )
                        acks.append(
                            PushAck(
                                key=entry.key,
                                status="rejected",
                                error=f"conflicting record for unit {entry.key} in batch",
                            )
                        )
                    continue
                verdict, error = self._evaluate_push(
                    request.worker, entry.key, entry.fingerprint, entry.record
                )
                if verdict == "store":
                    seen[entry.key] = canonical_json(entry.record)
                    self._committing[entry.key] = seen[entry.key]
                    stored.append((entry, self._pending.pop(entry.key)))
                    acks.append(PushAck(key=entry.key, status="stored"))
                elif verdict == "duplicate":
                    acks.append(PushAck(key=entry.key, status="duplicate"))
                else:  # "unknown" and "rejected" both ack rejected per-unit
                    acks.append(PushAck(key=entry.key, status="rejected", error=error))
            self._units_pending.set(len(self._pending))
        if stored:
            try:
                self.store.put_many(
                    [
                        (entry.key, entry.record, pending.fingerprint)
                        for entry, pending in stored
                    ]
                )
            except BaseException:
                # The group commit failed (disk full, store gone): the units
                # are not durable, so put them back on offer instead of
                # losing them.
                with self._condition:
                    for entry, pending in stored:
                        self._committing.pop(entry.key, None)
                        self._granted.pop(entry.key, None)
                        self._pending[entry.key] = pending
                    self._units_pending.set(len(self._pending))
                    self._condition.notify_all()
                raise
        with self._condition:
            for entry, pending in stored:
                self._committing.pop(entry.key, None)
                self._finalize_stored(
                    request.worker, table, entry.key, entry.record, pending
                )
            self._condition.notify_all()
        return 200, PushBatchResponse(acks=tuple(acks)).as_json()

    def _evaluate_push(
        self, worker: str, key: str, fingerprint: dict[str, Any], record: dict[str, Any]
    ) -> tuple[str, str]:
        """Classify one pushed record; callers hold ``self._condition``.

        Returns ``(verdict, error)`` with verdict one of ``"store"`` (valid
        and pending — caller persists then finalizes), ``"duplicate"``,
        ``"unknown"`` or ``"rejected"`` (already quarantined here).
        """
        entry = self._pending.get(key)
        if entry is None:
            committing = self._committing.get(key)
            if committing is not None:
                if canonical_json(record) == committing:
                    self._duplicate_pushes_total.inc()
                    return "duplicate", ""
                self._quarantine_record(worker, key, fingerprint, record)
                return "rejected", f"unit {key} already completed with different bytes"
            if key in self._completed:
                existing = self._raw_stored_record(key)
                if existing is not None and canonical_json(existing) == canonical_json(record):
                    self._duplicate_pushes_total.inc()
                    return "duplicate", ""
                self._quarantine_record(worker, key, fingerprint, record)
                return "rejected", f"unit {key} already completed with different bytes"
            return "unknown", f"unknown unit {key}"
        if not fingerprints_match(fingerprint, entry.fingerprint):
            self._reject_pending_push(worker, key, fingerprint, record)
            return "rejected", f"fingerprint mismatch for unit {key}"
        if not record_matches_unit(entry.unit, record):
            self._reject_pending_push(worker, key, fingerprint, record)
            return "rejected", (
                f"corrupt record for unit {key} (expected {entry.unit.n_trials} trials)"
            )
        return "store", ""

    def _reject_pending_push(
        self, worker: str, key: str, fingerprint: dict[str, Any], record: dict[str, Any]
    ) -> None:
        """Quarantine a rejected push whose unit stays pending (condition held).

        The rejecting worker will not push this unit again, so its
        in-flight grant is dropped — it (or, once the lease expires, any
        other worker) may immediately re-claim and re-execute the unit.
        """
        self._quarantine_record(worker, key, fingerprint, record)
        grant = self._granted.get(key)
        if grant is not None and grant[0] == worker:
            del self._granted[key]

    def _finalize_stored(
        self,
        worker: str,
        table: LeaseTable,
        key: str,
        record: dict[str, Any],
        entry: "_PendingUnit",
    ) -> None:
        """Post-persist bookkeeping for one stored push (condition held).

        ``entry`` is the unit's pending entry, already popped from
        ``self._pending`` by the caller (before the durable write).
        """
        table.release(key)
        self._granted.pop(key, None)
        self._completed.add(key)
        self._failures.pop(key, None)
        self._units_pending.set(len(self._pending))
        self._pushes_total.inc()
        self._units_completed_total.inc()
        emit_progress("unit_completed", unit=key, worker=worker)
        for callback in entry.callbacks:
            callback(record)

    def status_document(self) -> dict[str, Any]:
        with self._condition:
            return {
                "pending": len(self._pending),
                "completed": len(self._completed),
                "failed": dict(self._failed),
                "finished": self._finished,
                "workers": sorted(self._tables),
                "active_workers": sorted(self._active_workers),
            }

    # -- internals ----------------------------------------------------------- #
    def _raw_stored_record(self, key: str) -> Optional[dict[str, Any]]:
        """The stored record for ``key``, read without touching store stats.

        The store's ``get`` counts hits/misses that feed the *executor's*
        resume accounting; a duplicate-push byte comparison must not inflate
        those numbers.
        """
        try:
            with self.store.path_for(key).open("r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        record = document.get("record") if isinstance(document, dict) else None
        return record if isinstance(record, dict) else None

    def _quarantine_record(
        self, worker: str, key: str, fingerprint: dict[str, Any], record: dict[str, Any]
    ) -> None:
        """Keep a rejected push body on disk for forensics, off the store path.

        ``<key>.pushrejected-<ns>`` never matches the store's ``*.json``
        glob, so a rejected body can never satisfy a later lookup.
        """
        self._rejected_pushes_total.inc()
        emit_progress("remote_push_rejected", key=key, worker=worker)
        body = PushBatchRequest(
            worker=worker,
            entries=(PushEntry(key=key, fingerprint=fingerprint, record=record),),
        )
        target = self.store.directory / f"{key}.pushrejected-{time.time_ns()}"
        try:
            target.write_text(canonical_json(body.as_json()) + "\n", encoding="utf-8")
        except (OSError, ProtocolError):
            pass


# --------------------------------------------------------------------------- #
# HTTP plumbing
# --------------------------------------------------------------------------- #
class _CoordinatorHandler(BaseHTTPRequestHandler):
    """Routes the coordinator API; every response is canonical JSON."""

    protocol_version = "HTTP/1.1"
    # Keep-alive connections carry many small JSON exchanges; without
    # TCP_NODELAY each response can stall ~40 ms behind the peer's delayed
    # ACK (the client side sets the same option on its socket).
    disable_nagle_algorithm = True
    server: _CoordinatorServer

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging goes through emit_progress, not stderr

    def _send_json(self, status: int, document: dict[str, Any]) -> None:
        body = (canonical_json(document) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        accepts_gzip = "gzip" in self.headers.get("Accept-Encoding", "").lower()
        if accepts_gzip and len(body) >= GZIP_THRESHOLD:
            body = gzip.compress(body, compresslevel=1)
            self.send_header("Content-Encoding", "gzip")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError as exc:
            raise ProtocolError("invalid Content-Length header") from exc
        raw = self.rfile.read(length) if length > 0 else b""
        if not raw:
            raise ProtocolError("request body is empty")
        if self.headers.get("Content-Encoding", "").lower() == "gzip":
            try:
                raw = gzip.decompress(raw)
            except (OSError, EOFError) as exc:
                raise ProtocolError(f"request body is not valid gzip: {exc}") from exc
        try:
            return json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        coordinator = self.server.coordinator
        try:
            if self.path == "/metrics":
                self._send_text(200, coordinator.render_metrics(), METRICS_CONTENT_TYPE)
            elif self.path == "/api/status":
                self._send_json(200, coordinator.status_document())
            else:
                self._send_json(404, {"error": f"unknown path {self.path}"})
        except BrokenPipeError:
            pass
        except Exception as exc:  # never let a handler thread die silently
            self._best_effort_error(exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        coordinator = self.server.coordinator
        try:
            body = self._read_json_body()
            if self.path == "/api/register":
                response = coordinator.register(RegisterRequest.from_json(body))
                self._send_json(200, response.as_json())
            elif self.path == "/api/heartbeat":
                coordinator.heartbeat(HeartbeatRequest.from_json(body))
                self._send_json(200, {"ok": True})
            elif self.path == "/api/v2/claim":
                response = coordinator.claim_batch(ClaimBatchRequest.from_json(body))
                self._send_json(200, response.as_json())
            elif self.path == "/api/v2/push":
                status, document = coordinator.push_batch(PushBatchRequest.from_json(body))
                self._send_json(status, document)
            elif self.path == "/api/fail":
                coordinator.fail(FailureReport.from_json(body))
                self._send_json(200, {"ok": True})
            else:
                self._send_json(404, {"error": f"unknown path {self.path}"})
        except ProtocolError as exc:
            try:
                self._send_json(400, {"error": str(exc)})
            except OSError:
                pass
        except BrokenPipeError:
            pass
        except Exception as exc:
            self._best_effort_error(exc)

    def _best_effort_error(self, exc: Exception) -> None:
        try:
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        except OSError:
            pass


# --------------------------------------------------------------------------- #
# Worker loop
# --------------------------------------------------------------------------- #
@dataclass
class WorkerStats:
    """What one :func:`run_worker` loop did, for logs and assertions."""

    worker: str
    executed: int = 0
    pushed: int = 0
    duplicates: int = 0
    idle_polls: int = 0
    failures: int = 0

    def as_json(self) -> dict[str, Any]:
        return {
            "worker": self.worker,
            "executed": self.executed,
            "pushed": self.pushed,
            "duplicates": self.duplicates,
            "idle_polls": self.idle_polls,
            "failures": self.failures,
        }

    def render(self) -> str:
        return (
            f"worker {self.worker}: executed {self.executed} units "
            f"({self.pushed} pushed, {self.duplicates} duplicates, "
            f"{self.idle_polls} idle polls, {self.failures} failures)"
        )


#: Consecutive connection failures after which a worker that has already
#: completed work treats the coordinator as gone and exits cleanly.
_CONNECTION_FAILURE_LIMIT = 20


def idle_backoff_delay(streak: int, base: float, cap: float = 2.0) -> float:
    """Sleep before the ``streak``-th consecutive idle claim poll.

    Doubles from ``base`` per empty poll and saturates at ``max(cap,
    base)`` (an explicit long poll interval is never shortened), so a fleet
    of idle workers stops hammering the coordinator near sweep completion.
    The caller resets the streak to zero on any successful claim.
    """
    if streak <= 1:
        return base
    return min(max(cap, base), base * (2.0 ** (streak - 1)))


class _Prefetch:
    """One pipelined claim in flight on its own connection.

    Started right after a batch is received, so the next batch travels the
    wire while the current one executes; :meth:`take` joins and yields the
    response (or re-raises the transport failure) exactly as a synchronous
    claim would.
    """

    def __init__(self, client: CoordinatorClient, worker: str, max_units: int) -> None:
        self._result: Optional[tuple[int, dict[str, Any]]] = None
        self._error: Optional[OSError] = None

        def fetch() -> None:
            try:
                self._result = client.request(
                    "/api/v2/claim",
                    ClaimBatchRequest(worker=worker, max_units=max_units).as_json(),
                )
            except OSError as exc:
                self._error = exc

        self._thread = threading.Thread(
            target=fetch, name=f"{worker}-prefetch", daemon=True
        )
        self._thread.start()

    def take(self) -> tuple[int, dict[str, Any]]:
        self._thread.join()
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


def run_worker(
    coordinator: str,
    worker_id: Optional[str] = None,
    poll: Optional[float] = None,
    max_units: Optional[int] = None,
    connect_timeout: float = 60.0,
    request_timeout: float = 30.0,
    transport_faults: Optional[TransportFaultPlan] = None,
    claim_batch: int = 1,
    idle_cap: float = 2.0,
) -> WorkerStats:
    """Pull-execute-push units from ``coordinator`` until it says "done".

    The complete worker half of remote dispatch: register (retrying until
    ``connect_timeout`` if the coordinator is not up yet), then loop
    claim → :func:`~repro.exec.executor.execute_unit` → push over one
    keep-alive connection, with a daemon heartbeat thread (its own
    connection) keeping every held lease alive.  The worker claims up to
    ``claim_batch`` units per request (unit payloads inlined), pushes
    records in batches of the same size, and with ``claim_batch > 1``
    *pipelines* both directions — the next batch is claimed, and the
    previous batch's records pushed, on their own connections while the
    current batch executes.  Idle polls back
    off exponentially up to ``idle_cap`` seconds (see
    :func:`idle_backoff_delay`); an explicit ``poll`` beats the
    coordinator's idle ``retry_after`` hint, so a low-latency worker can be
    asked for 20 ms polling regardless of the server's default.

    A unit whose execution raises is reported via ``/api/fail`` (releasing
    the lease for an immediate retry elsewhere) and its batch-mates
    continue.  ``max_units`` bounds the work taken (for tests);
    ``transport_faults`` injects deterministic push-path faults (for the
    chaos suite).
    """
    if claim_batch < 1:
        raise ValueError(f"claim_batch must be >= 1, got {claim_batch}")
    worker = worker_id or f"worker-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    client = CoordinatorClient(coordinator, timeout=request_timeout)
    terms = _register_with_retry(client, worker, connect_timeout)
    interval = poll if poll is not None else max(terms.poll_interval, 0.01)
    stats = WorkerStats(worker=worker)

    held: set[str] = set()
    held_lock = threading.Lock()
    stop = threading.Event()
    heartbeat_interval = min(max(terms.lease_ttl / 4.0, 0.05), 15.0)
    heartbeat_client = client.clone()

    def heartbeat_loop() -> None:
        while not stop.wait(heartbeat_interval):
            with held_lock:
                keys = tuple(held)
            if not keys:
                continue
            try:
                heartbeat_client.request(
                    "/api/heartbeat", HeartbeatRequest(worker=worker, keys=keys).as_json()
                )
            except OSError:
                pass  # the claim loop owns connection-failure policy

    heartbeat_thread = threading.Thread(
        target=heartbeat_loop, name=f"{worker}-heartbeat", daemon=True
    )
    heartbeat_thread.start()

    # An explicitly requested poll interval beats the coordinator's
    # ``retry_after`` hint on idle claims — a bench or test that asks for
    # 20 ms polling must not be slept for the server's (1 s) default.
    honor_retry_hint = poll is None
    try:
        _worker_loop(
            client,
            worker,
            stats,
            interval,
            max_units,
            claim_batch,
            transport_faults,
            held,
            held_lock,
            honor_retry_hint,
            idle_cap,
        )
    finally:
        stop.set()
        heartbeat_thread.join(timeout=2.0)
        heartbeat_client.close()
        client.close()
    return stats


def _worker_loop(
    client: CoordinatorClient,
    worker: str,
    stats: WorkerStats,
    interval: float,
    max_units: Optional[int],
    claim_batch: int,
    transport_faults: Optional[TransportFaultPlan],
    held: set[str],
    held_lock: threading.Lock,
    honor_retry_hint: bool = True,
    idle_cap: float = 2.0,
) -> None:
    """The batched, pipelined claim → execute → push loop."""
    push_attempts: dict[str, int] = {}
    consecutive_failures = 0
    idle_streak = 0
    prefetch: Optional[_Prefetch] = None
    # Pipelining claims ahead only makes sense for an unbounded worker
    # pulling real batches; a max_units test budget claims exactly on demand.
    prefetch_client = client.clone() if max_units is None and claim_batch > 1 else None

    # Pushes are pipelined too: completed batches queue to a dedicated pusher
    # thread with its own connection, so the execute loop never waits out a
    # push round trip — the cycle costs max(execute, push) even when several
    # pushes are outstanding.  One thread draining a FIFO queue over one
    # connection means pushes can never reorder; the queue is bounded so a
    # slow coordinator backpressures execution instead of buffering results
    # without limit.  A push failure parks in ``push_failures`` and re-raises
    # on the worker thread at the next push (or the final drain).
    # Fault-injection runs stay synchronous — the chaos suite asserts on
    # strict request ordering.
    push_client = (
        client.clone()
        if prefetch_client is not None and transport_faults is None
        else None
    )
    push_queue: Optional[queue.Queue] = (
        queue.Queue(maxsize=4) if push_client is not None else None
    )
    pusher: Optional[threading.Thread] = None
    push_failures: list[BaseException] = []

    def pusher_main() -> None:
        assert push_queue is not None and push_client is not None
        while True:
            entries = push_queue.get()
            if entries is None:
                push_queue.task_done()
                return
            try:
                # After a failure the loop only drains (releasing held keys);
                # the worker thread re-raises at its next push.
                if not push_failures:
                    _push_batch_with_faults(
                        push_client, worker, entries, transport_faults, push_attempts, stats
                    )
            except BaseException as exc:  # re-raised on the worker thread
                push_failures.append(exc)
            finally:
                with held_lock:
                    for entry in entries:
                        held.discard(entry.key)
                push_queue.task_done()

    def drain() -> None:
        """Wait for every queued push to finish; surface any push failure."""
        if push_queue is not None:
            push_queue.join()
        if push_failures:
            raise push_failures.pop()

    def push(entries: tuple[PushEntry, ...]) -> None:
        """Push one claimed batch's records (queued to the pusher if pipelined)."""
        nonlocal pusher
        if not entries:
            return
        if push_queue is None:
            try:
                _push_batch_with_faults(
                    client, worker, entries, transport_faults, push_attempts, stats
                )
            finally:
                with held_lock:
                    for entry in entries:
                        held.discard(entry.key)
            return
        if push_failures:
            raise push_failures.pop()
        if pusher is None:
            pusher = threading.Thread(
                target=pusher_main, name=f"{worker}-push", daemon=True
            )
            pusher.start()
        push_queue.put(entries)

    try:
        while True:
            remaining = None if max_units is None else max_units - stats.executed
            if remaining is not None and remaining <= 0:
                drain()
                return
            want = claim_batch if remaining is None else min(claim_batch, remaining)
            try:
                if prefetch is not None:
                    status, body = prefetch.take()
                else:
                    status, body = client.request(
                        "/api/v2/claim",
                        ClaimBatchRequest(worker=worker, max_units=want).as_json(),
                    )
            except OSError:
                prefetch = None
                consecutive_failures += 1
                if consecutive_failures > _CONNECTION_FAILURE_LIMIT:
                    if stats.executed or stats.idle_polls:
                        return  # the coordinator went away after we served it
                    raise
                time.sleep(interval)
                continue
            prefetch = None
            consecutive_failures = 0
            if status != 200:
                raise RuntimeError(f"claim rejected ({status}): {body.get('error', body)}")
            claim = ClaimBatchResponse.from_json(body)
            if claim.status == "done":
                drain()
                return
            if claim.status == "idle":
                stats.idle_polls += 1
                idle_streak += 1
                base = (
                    claim.retry_after
                    if honor_retry_hint and claim.retry_after > 0
                    else interval
                )
                time.sleep(idle_backoff_delay(idle_streak, base, cap=idle_cap))
                continue
            idle_streak = 0
            with held_lock:
                held.update(lease.key for lease in claim.leases)
            if prefetch_client is not None:
                prefetch = _Prefetch(prefetch_client, worker, claim_batch)
            entries: list[PushEntry] = []
            for lease in claim.leases:
                try:
                    record = execute_unit(decode_unit(lease.unit))
                except Exception as exc:
                    stats.failures += 1
                    with held_lock:
                        held.discard(lease.key)
                    try:
                        client.request(
                            "/api/fail",
                            FailureReport(
                                worker=worker,
                                key=lease.key,
                                error=f"{type(exc).__name__}: {exc}",
                            ).as_json(),
                        )
                    except OSError:
                        pass
                    continue
                stats.executed += 1
                entries.append(
                    PushEntry(key=lease.key, fingerprint=lease.fingerprint, record=record)
                )
            push(tuple(entries))
    finally:
        if pusher is not None and push_queue is not None:
            # Sentinel after any queued batches: never abandon a pending push.
            push_queue.put(None)
            pusher.join()
        if push_client is not None:
            push_client.close()
        if prefetch is None and prefetch_client is not None:
            # An in-flight prefetch still owns the connection; closing here
            # would block on its lock, so leave it to the daemon thread.
            prefetch_client.close()


def _register_with_retry(
    client: CoordinatorClient, worker: str, connect_timeout: float
) -> RegisterResponse:
    """Register, retrying connection failures until the deadline passes."""
    deadline = time.monotonic() + connect_timeout
    request = RegisterRequest(worker=worker, pid=os.getpid(), host=socket.gethostname())
    while True:
        try:
            status, body = client.request("/api/register", request.as_json())
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)
            continue
        if status != 200:
            raise RuntimeError(
                f"registration rejected ({status}): {body.get('error', body)}"
            )
        return RegisterResponse.from_json(body)


def _push_batch_with_faults(
    client: CoordinatorClient,
    worker: str,
    entries: Sequence[PushEntry],
    plan: Optional[TransportFaultPlan],
    attempts: dict[str, int],
    stats: WorkerStats,
) -> None:
    """Push a batch of records, applying scheduled transport faults, until acked.

    Each entry's push attempt draws its fault from ``plan``, aggregated per
    batch: an entry scheduled ``"slow"`` sleeps once before the push (long
    enough, under a short TTL, for a lease to be stolen unless heartbeats
    keep it), a ``"dup_push"`` sends one extra batch push first, and a
    ``"drop"`` discards the response and re-pushes the whole batch (the
    coordinator answers the repeats ``"duplicate"``).  A ``"rejected"`` ack raises
    *after* the sibling acks are counted — one bad record never un-stores
    its batch-mates.
    """
    connection_failures = 0
    while True:
        faults: list[Optional[str]] = []
        for entry in entries:
            submission = attempts.get(entry.key, 0)
            attempts[entry.key] = submission + 1
            faults.append(plan.fault_for(entry.key, submission) if plan is not None else None)
        document = PushBatchRequest(worker=worker, entries=tuple(entries)).as_json()
        if plan is not None and "slow" in faults:
            time.sleep(plan.slow_seconds)
        if "dup_push" in faults:
            try:
                client.request("/api/v2/push", document)
            except OSError:
                pass  # the authoritative push below carries the retry logic
        try:
            status, body = client.request("/api/v2/push", document)
        except OSError:
            connection_failures += 1
            if connection_failures > _CONNECTION_FAILURE_LIMIT:
                raise
            time.sleep(0.2)
            continue
        if "drop" in faults:
            continue  # response "lost": push again, expect duplicate acks
        if status != 200:
            raise RuntimeError(f"push rejected ({status}): {body.get('error', body)}")
        response = PushBatchResponse.from_json(body)
        rejected = []
        for ack in response.acks:
            if ack.status == "rejected":
                rejected.append(ack)
                continue
            stats.pushed += 1
            if ack.status == "duplicate":
                stats.duplicates += 1
        if rejected:
            details = "; ".join(f"{ack.key}: {ack.error}" for ack in rejected[:3])
            raise RuntimeError(
                f"{len(rejected)} record(s) rejected in batch push ({details})"
            )
        return


def cleanup_store_directory(path: Union[str, os.PathLike]) -> None:
    """Remove a temporary coordinator-owned store directory (best effort)."""
    shutil.rmtree(path, ignore_errors=True)
