"""Sharded sweep execution with deterministic resume.

:class:`SweepExecutor` decomposes replicated measurements into
(sweep-point × replication-chunk) :class:`~repro.exec.units.WorkUnit`\\ s,
derives each unit's RNG streams from a serialisable
:class:`~repro.exec.seeds.SeedStreamSpec`, dispatches units either in
process (``jobs=1``, the reference path) or over a
``concurrent.futures.ProcessPoolExecutor`` (``jobs>1``), and merges chunk
records back into the ordinary ``(ReplicationSummary, results)`` shapes.

Determinism contract
--------------------
Trial ``i`` of a sweep point always consumes the stream derived from the
point seed's ``i``-th spawned child — exactly the stream the pre-executor
serial path hands it — so results are bit-for-bit independent of the worker
count, the chunk size and the completion order of units.  Every unit record
passes through the canonical JSON-able form (the same form the
:class:`~repro.exec.store.ResultStore` persists), so a resumed run and an
uninterrupted run assemble identical reports.

Fault tolerance
---------------
Because units are pure functions of their (JSON-able) spec, a unit can be
re-executed anywhere and reproduce the identical record — so the executor
retries failed units (:class:`RetryPolicy`: bounded attempts, exponential
backoff with deterministic per-unit jitter, optional per-unit wall-clock
timeout), survives worker crashes (a broken pool is rebuilt and its
in-flight units requeued; repeated failures degrade to in-process
execution), validates every fresh and stored record against its unit's
trial count, and coordinates with concurrent executors through a
:class:`~repro.exec.leases.LeaseTable` persisted beside the store.  None of
this weakens the bit-for-bit guarantee: a sweep completed through retries,
requeues and lease steals merges exactly the records a fault-free ``jobs=1``
run produces.  A per-run :class:`ExecutionReport` makes the recovery work
observable.

The context-local override installed by :func:`execution_override` is how
``--jobs`` reaches the replication runners inside experiments without
per-experiment plumbing, mirroring
:func:`repro.core.runner.backend_override`.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.exec.faults import FaultPlan, corrupt_record
from repro.exec.leases import DEFAULT_LEASE_TTL, LeaseTable
from repro.exec.seeds import SeedStreamSpec
from repro.exec.store import ResultStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import emit_progress
from repro.exec.units import (
    WorkUnit,
    chunk_bounds,
    describe_payload,
    payload_is_picklable,
    record_matches_unit,
    unit_key,
)
from repro.util.rng import RandomState, SeedLike, spawn_rngs
from repro.util.serialization import to_jsonable

#: Environment variable selecting the multiprocessing start method
#: ("fork", "spawn", "forkserver"); unset uses the platform default.
START_METHOD_ENV = "REPRO_EXEC_START_METHOD"

#: Consecutive pool rebuilds (with no completed unit in between) after which
#: the executor stops trusting the pool and degrades to in-process execution.
POOL_FAILURE_LIMIT = 3


def _init_pool_worker(jobs: int) -> None:
    """Pool-worker initializer: record this worker's share of the CPUs.

    ``jobs`` workers split the CPUs the executor's process may use, so a
    worker counts on ``max(1, usable // jobs)`` of them, and the fused
    driver starts its draw helper thread only where that share leaves a CPU
    to spare (inline execution counts every usable CPU).  Module level, so
    that ``spawn`` workers can import it.
    """
    from repro.compiled.driver import set_cpu_share, usable_cpus

    set_cpu_share(max(1, usable_cpus() // jobs))


# --------------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """How the executor treats a failing work unit.

    Attributes
    ----------
    max_attempts:
        Total executions a unit may consume before its failure propagates
        (``1`` = no retries, the classic behaviour).  Worker-crash requeues
        are *not* attempts — a unit that merely sat in a pool another unit
        crashed keeps its budget — but timeouts and raised exceptions are.
    backoff_base, backoff_factor, backoff_max:
        Delay before retry ``f`` is ``backoff_base * backoff_factor**(f-1)``
        seconds (capped at ``backoff_max``), scaled by a deterministic
        jitter in ``[0.5, 1.5)`` derived from the unit's key — so two
        executors retrying the same store's units spread out identically
        and reproducibly, with no shared randomness.
    unit_timeout:
        Per-unit wall-clock budget in seconds.  Enforced on the pool path
        only (a hung worker is killed and the unit retried); in-process
        units cannot be preempted and run to completion.
    """

    max_attempts: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    unit_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ValueError(f"unit_timeout must be positive, got {self.unit_timeout}")

    @classmethod
    def from_options(
        cls, retries: int = 0, unit_timeout: Optional[float] = None
    ) -> "RetryPolicy":
        """The policy behind the ``--retries`` / ``--unit-timeout`` flags."""
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        return cls(max_attempts=retries + 1, unit_timeout=unit_timeout)

    def delay(self, failures: int, token: str) -> float:
        """Seconds to wait before the retry after failure ``failures`` (1-based)."""
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, failures - 1),
        )
        digest = hashlib.sha256(f"{token}:{failures}".encode("utf-8")).digest()
        jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2**64
        return base * jitter


# --------------------------------------------------------------------------- #
# Execution reporting
# --------------------------------------------------------------------------- #
class _ExecCounters:
    """The executor's own instruments, created in its metrics registry.

    The attribute names match the historical ``_Counters`` tallies; each is
    now a live :class:`repro.obs.Counter`/``Gauge`` in ``registry``, so the
    execution report is a snapshot of the same numbers a ``--metrics-file``
    scrape sees.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.units = registry.counter(
            "repro_exec_units_total", help="Work units handled (store hits included)."
        )
        self.store_hits = registry.counter(
            "repro_exec_store_hits_total", help="Units satisfied from the result store."
        )
        self.executed = registry.counter(
            "repro_exec_executed_total", help="Units executed to completion."
        )
        self.submissions = registry.counter(
            "repro_exec_attempts_total", help="Unit executions started (pool and inline)."
        )
        self.retries = registry.counter(
            "repro_exec_retries_total", help="Failures that consumed an attempt and retried."
        )
        self.timeouts = registry.counter(
            "repro_exec_timeouts_total", help="Units killed for exceeding the unit timeout."
        )
        self.requeues = registry.counter(
            "repro_exec_requeues_total", help="In-flight units requeued after a worker crash."
        )
        self.pool_rebuilds = registry.counter(
            "repro_exec_pool_rebuilds_total", help="Worker pools discarded and rebuilt."
        )
        self.degraded = registry.gauge(
            "repro_exec_degraded", help="1 once the executor fell back to in-process execution."
        )


@dataclass(frozen=True)
class ExecutionReport:
    """Snapshot of everything the fault-tolerance layer did during a run.

    Since the observability PR this is literally a snapshot of the
    executor's :class:`~repro.obs.MetricsRegistry` (``executor.metrics``):
    every field reads the corresponding counter, so the report, a
    ``--metrics-file`` scrape and the JSON progress log all agree.

    ``attempts`` counts unit submissions (pool and in-process); ``retries``
    the failures that consumed an attempt and were re-executed;
    ``requeues`` the innocent in-flight units returned to the queue when a
    worker crash broke the pool; ``quarantined`` the store files renamed
    aside as corrupt; ``lease_steals`` the expired foreign leases taken
    over.  A fault-free run shows ``attempts == executed`` and zeros
    everywhere else — failures are observable, never silent.
    """

    units: int = 0
    store_hits: int = 0
    executed: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    requeues: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    quarantined: int = 0
    fingerprint_mismatches: int = 0
    lease_claims: int = 0
    lease_conflicts: int = 0
    lease_steals: int = 0

    def as_json(self) -> dict[str, Any]:
        """The report as a JSON-able dict."""
        from dataclasses import asdict

        return asdict(self)

    def render(self) -> str:
        """One human-readable line per concern (recovery lines only if used)."""
        lines = [
            f"exec: {self.units} units = {self.store_hits} store hits "
            f"+ {self.executed} executed ({self.attempts} attempts)"
        ]
        if self.retries or self.timeouts or self.requeues or self.pool_rebuilds:
            lines.append(
                f"exec: recovered from {self.retries} retries, "
                f"{self.timeouts} timeouts, {self.requeues} crash requeues, "
                f"{self.pool_rebuilds} pool rebuilds"
                + (" (degraded to in-process)" if self.degraded else "")
            )
        if self.quarantined or self.fingerprint_mismatches:
            lines.append(
                f"exec: store quarantined {self.quarantined} corrupt files, "
                f"re-executed {self.fingerprint_mismatches} fingerprint mismatches"
            )
        if self.lease_conflicts or self.lease_steals:
            lines.append(
                f"exec: leases: {self.lease_claims} claims, "
                f"{self.lease_conflicts} conflicts, {self.lease_steals} steals"
            )
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Unit execution (runs inside pool workers; must stay module-level picklable).
# --------------------------------------------------------------------------- #
def execute_unit(unit: WorkUnit) -> dict[str, Any]:
    """Execute one work unit and return its canonical JSON-able record.

    Safe to call in any process: streams are re-derived from the unit's seed
    spec, and any inherited executor override is suspended so nested
    execution can never recurse into a pool.
    """
    with _suspended_override():
        if unit.kind == "process":
            return _execute_process_unit(unit)
        if unit.kind == "map":
            return _execute_map_unit(unit)
        raise ValueError(f"unknown unit kind {unit.kind!r}")


def run_unit_with_faults(
    unit: WorkUnit,
    submission: int,
    plan: Optional[FaultPlan],
    in_worker: bool = False,
) -> dict[str, Any]:
    """Execute ``unit``, first applying any fault ``plan`` schedules for this
    submission.  The chaos-test entry point; with ``plan=None`` it is exactly
    :func:`execute_unit`.
    """
    if plan is None:
        return execute_unit(unit)
    fault = plan.apply(unit_key(unit), submission, in_worker)
    record = execute_unit(unit)
    if fault == "corrupt":
        return corrupt_record(record)
    return record


def _pool_run_chunk(
    units: Sequence[WorkUnit],
    submissions: Sequence[int],
    plan: Optional[FaultPlan],
    in_worker: bool,
) -> list[dict[str, Any]]:
    """The one task shape the dispatcher runs: a chunk of units, one outcome each.

    A pool task carries up to ``pool_chunk`` units, amortizing the
    pickle/IPC/future overhead of ``ProcessPoolExecutor``; an in-process
    task (``in_worker=False``) carries one.  Each unit's outcome is captured
    independently — ``{"record": ..., "seconds": ...}`` on success,
    ``{"error": exc}`` on a raised exception — so one failing unit cannot
    poison its chunk-mates; the dispatcher applies the retry policy per
    unit.  In a pool worker, crash and hang faults still take down the
    whole task, like any crashed worker (its chunk-mates are requeued as
    innocents); in process a crash fault raises instead.
    """
    outcomes: list[dict[str, Any]] = []
    for unit, submission in zip(units, submissions):
        began = time.monotonic()
        try:
            record = run_unit_with_faults(unit, submission, plan, in_worker=in_worker)
        except Exception as exc:
            outcomes.append({"error": exc})
        else:
            outcomes.append({"record": record, "seconds": time.monotonic() - began})
    return outcomes


def _execute_process_unit(unit: WorkUnit) -> dict[str, Any]:
    from repro.dissemination.kernels import _replicate, make_process, resolve_process_pair

    spec = unit.payload["process"]
    process = make_process(spec["name"], **dict(spec.get("kwargs") or {}))
    backend, connectivity = resolve_process_pair(process, unit.backend, unit.connectivity)
    summary, results = _replicate(
        process,
        unit.n_trials,
        None,
        backend,
        connectivity,
        rng_streams=unit.seed.trial_rngs(unit.start, unit.stop),
    )
    return {
        "values": [float(v) for v in summary.values],
        "results": [_result_record(res) for res in results],
    }


def _execute_map_unit(unit: WorkUnit) -> dict[str, Any]:
    payloads = _call_map(
        unit.payload["fn"],
        unit.seed.trial_rngs(unit.start, unit.stop),
        unit.payload.get("kwargs") or {},
    )
    return {"trials": [to_jsonable(payload) for payload in payloads]}


def _call_map(
    fn: Callable[..., Any], rngs: list[RandomState], kwargs: Mapping[str, Any]
) -> list[Any]:
    """The one call of a map function: ``fn(rngs, **kwargs)``, one payload per generator."""
    payloads = list(fn(rngs, **kwargs))
    if len(payloads) != len(rngs):
        raise ValueError(
            f"map function {getattr(fn, '__qualname__', fn)!r} returned "
            f"{len(payloads)} payloads for {len(rngs)} generators"
        )
    return payloads


#: Result-dataclass integer-array fields carried through records; a
#: broadcast or gossip result's ``config`` is reattached from the kernel at
#: merge time instead of being serialised once per trial.
_INT_ARRAY_FIELDS = (
    "informed_curve",
    "knowledge_curve",
    "frontier_history",
    "active_curve",
    "survival_curve",
    "coverage_curve",
)


def _result_record(result: Any) -> dict[str, Any]:
    """A result dataclass as a JSON-able record (minus config)."""
    import dataclasses

    record = {}
    for f in dataclasses.fields(result):
        if f.name == "config":
            continue
        record[f.name] = to_jsonable(getattr(result, f.name))
    return record


def _process_result_from_record(process: Any, record: Mapping[str, Any]) -> Any:
    fields = dict(record)
    for name in _INT_ARRAY_FIELDS:
        if fields.get(name) is not None:
            fields[name] = np.asarray(fields[name], dtype=np.int64)
    return process.rebuild_result(fields)


def _merge_process_records(
    process: Any, records: Sequence[Mapping[str, Any]]
) -> tuple[Any, list[Any]]:
    """Process-kind chunk records -> ``(ReplicationSummary, results)``."""
    from repro.core.runner import summarise_values

    values: list[float] = []
    results: list[Any] = []
    for record in records:
        values.extend(float(v) for v in record["values"])
        results.extend(_process_result_from_record(process, res) for res in record["results"])
    return summarise_values(values), results


# --------------------------------------------------------------------------- #
# The executor
# --------------------------------------------------------------------------- #
class SweepExecutor:
    """Sharded, resumable executor for replicated sweep measurements.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` executes every unit in process, in order —
        the reference path the parallel path must match bit for bit; more
        than ``1`` dispatches units to a process pool (:attr:`dispatch`).
    chunk_size:
        Trials per work unit (default:
        :func:`~repro.exec.units.default_chunk_size`, a function of the
        replication count only, never of ``jobs``, so unit keys are stable
        across worker counts).
    store:
        Optional :class:`~repro.exec.store.ResultStore` (or directory path).
        Completed units are persisted there and skipped on re-runs.  A store
        also activates the lease table (persisted in ``<store>/leases``), so
        concurrent or restarted executors sharing the store never double-run
        a unit and expired claims are requeued.
    start_method:
        Multiprocessing start method; default: ``$REPRO_EXEC_START_METHOD``
        or the platform default.
    retry:
        The :class:`RetryPolicy` applied to every unit (default: one
        attempt, no timeout — failures propagate like they always did).
    fault_plan:
        Optional :class:`~repro.exec.faults.FaultPlan` injected into every
        execution, for chaos testing.  Never set this on a production run.
    lease_ttl:
        Seconds a claimed unit may go without a heartbeat before another
        executor may steal it (only meaningful with a store).
    pool_chunk:
        Units per submitted pool task (default ``1``, the classic
        one-future-per-unit dispatch).  Larger values amortize the
        pickle/IPC/future overhead across many tiny units; retry, timeout
        and lease semantics still apply per unit inside the chunk, and
        results stay bit-for-bit identical to ``--jobs 1``.  Chunks are
        assembled per dispatch round, so ``pool_chunk`` never changes unit
        keys (unlike ``chunk_size``).
    """

    def __init__(
        self,
        jobs: int = 1,
        chunk_size: Optional[int] = None,
        store: Optional[ResultStore | str] = None,
        start_method: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        pool_chunk: int = 1,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if pool_chunk < 1:
            raise ValueError(f"pool_chunk must be >= 1, got {pool_chunk}")
        self.jobs = int(jobs)
        self.chunk_size = chunk_size
        self.pool_chunk = int(pool_chunk)
        self.store = ResultStore(store) if isinstance(store, (str, os.PathLike)) else store
        self.start_method = start_method or os.environ.get(START_METHOD_ENV) or None
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.lease_ttl = float(lease_ttl)
        self.leases: Optional[LeaseTable] = None
        if self.store is not None:
            self.leases = LeaseTable(self.store.directory / "leases", ttl=self.lease_ttl)
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Per-executor registry: the executor's own counters plus the
        #: adopted store and lease instruments.  ``--metrics-file`` renders
        #: this merged with the process-global registry.
        self.metrics = MetricsRegistry()
        self._counters = _ExecCounters(self.metrics)
        self._unit_seconds = self.metrics.histogram(
            "repro_exec_unit_seconds", help="Wall-clock seconds per executed work unit."
        )
        self._dispatch_seconds = self.metrics.histogram(
            "repro_exec_dispatch_seconds",
            help="Wall-clock seconds spent submitting work to the dispatch layer.",
            buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.25, 1.0),
        )
        if self.store is not None:
            for counter in self.store.stats.counters():
                self.metrics.register(counter)
        if self.leases is not None:
            for counter in self.leases.stats.counters():
                self.metrics.register(counter)
        self._degraded = False

    @property
    def dispatch(self) -> str:
        """``"pool"`` when ``jobs > 1``, else ``"inline"``: how units run.

        A pool executor still runs a lone pending unit, and any unit whose
        payload cannot be pickled, in process.
        """
        return "pool" if self.jobs > 1 else "inline"

    @classmethod
    def from_options(
        cls,
        jobs: int = 1,
        chunk_size: Optional[int] = None,
        store: Optional[ResultStore | str] = None,
        retries: int = 0,
        unit_timeout: Optional[float] = None,
        pool_chunk: Optional[int] = None,
    ) -> Optional["SweepExecutor"]:
        """An executor when any option departs from the defaults, else ``None``.

        The single activation rule behind ``--jobs`` / ``--resume`` /
        ``--chunk-size`` / ``--retries`` / ``--unit-timeout`` /
        ``--pool-chunk``: all-default options mean "keep the classic
        in-process path" (``None`` composes with :func:`execution_override`
        as a true no-op).
        """
        if (
            jobs == 1
            and chunk_size is None
            and store is None
            and retries == 0
            and unit_timeout is None
            and pool_chunk in (None, 1)
        ):
            return None
        return cls(
            jobs=jobs,
            chunk_size=chunk_size,
            store=store,
            retry=RetryPolicy.from_options(retries=retries, unit_timeout=unit_timeout),
            pool_chunk=pool_chunk if pool_chunk is not None else 1,
        )

    # -- lifecycle ---------------------------------------------------------- #
    def close(self) -> None:
        """Shut down the pool and release held leases (idempotent)."""
        if self.leases is not None:
            for key in self.leases.keys():
                self.leases.release(key)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def execution_report(self) -> ExecutionReport:
        """Everything the fault-tolerance layer did so far, as one snapshot.

        Reads the live instruments in :attr:`metrics`, so the report always
        agrees with a metrics scrape taken at the same moment.
        """
        c = self._counters
        store_stats = self.store.stats if self.store is not None else None
        lease_stats = self.leases.stats if self.leases is not None else None
        return ExecutionReport(
            units=int(c.units.value),
            store_hits=int(c.store_hits.value),
            executed=int(c.executed.value),
            attempts=int(c.submissions.value),
            retries=int(c.retries.value),
            timeouts=int(c.timeouts.value),
            requeues=int(c.requeues.value),
            pool_rebuilds=int(c.pool_rebuilds.value),
            degraded=bool(c.degraded.value),
            quarantined=store_stats.quarantined if store_stats else 0,
            fingerprint_mismatches=(
                store_stats.fingerprint_mismatches if store_stats else 0
            ),
            lease_claims=lease_stats.claims if lease_stats else 0,
            lease_conflicts=lease_stats.conflicts if lease_stats else 0,
            lease_steals=lease_stats.steals if lease_stats else 0,
        )

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _pool_instance(self) -> ProcessPoolExecutor:
        if self._pool is None:
            mp_context = None
            if self.start_method is not None:
                import multiprocessing

                mp_context = multiprocessing.get_context(self.start_method)
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=mp_context,
                initializer=_init_pool_worker,
                initargs=(self.jobs,),
            )
        return self._pool

    # -- decomposition ------------------------------------------------------ #
    def decompose(
        self,
        label: str,
        kind: str,
        payload: Mapping[str, Any],
        n_replications: int,
        seed: SeedLike,
        backend: Optional[str] = None,
        connectivity: Optional[str] = None,
    ) -> list[WorkUnit]:
        """Split one sweep point into replication-chunk work units.

        Consumes the live seed state exactly like the inline path's
        ``spawn_rngs`` call would (:meth:`SeedStreamSpec.reserve`), so
        reusing one seed object across runs yields disjoint streams on
        either path.
        """
        spec = SeedStreamSpec.reserve(seed, n_replications)
        return [
            WorkUnit(
                label=label,
                kind=kind,
                payload=payload,
                n_replications=n_replications,
                start=start,
                stop=stop,
                seed=spec,
                backend=backend,
                connectivity=connectivity,
            )
            for start, stop in chunk_bounds(n_replications, self.chunk_size)
        ]

    # -- execution ---------------------------------------------------------- #
    def run_units(self, units: Sequence[WorkUnit]) -> list[dict[str, Any]]:
        """Execute (or load) every unit; records are returned in unit order.

        Units whose key is already in the store are loaded from disk (after
        fingerprint and shape validation) and not re-executed.  Fresh
        results are written to the store as they complete, so an interrupted
        call leaves a valid partial store.  Failures are handled per the
        executor's :class:`RetryPolicy`; worker crashes rebuild the pool and
        requeue its in-flight units; units leased to a concurrent executor
        are awaited (or stolen once the lease expires).
        """
        records: list[Optional[dict[str, Any]]] = [None] * len(units)
        # Picklability gates both pool dispatch and the store: an unpicklable
        # payload (e.g. a closure) has no faithful content fingerprint — its
        # captured state is invisible to the unit key — so it must neither
        # read from nor write to the store.  Checked once per distinct
        # payload object, not once per unit.
        picklable_by_payload: dict[int, bool] = {}
        storable: list[bool] = []
        for unit in units:
            payload_id = id(unit.payload)
            if payload_id not in picklable_by_payload:
                picklable_by_payload[payload_id] = payload_is_picklable(unit.payload)
            storable.append(picklable_by_payload[payload_id])

        # Keys (and the payload descriptions they hash) exist for the store
        # only; units sharing one payload object share one description.
        keys: list[Optional[str]] = [None] * len(units)
        fingerprints: list[Optional[dict[str, Any]]] = [None] * len(units)
        if self.store is not None:
            described_by_payload: dict[int, dict[str, Any]] = {}
            for index, unit in enumerate(units):
                if not storable[index]:
                    continue
                payload_id = id(unit.payload)
                if payload_id not in described_by_payload:
                    described_by_payload[payload_id] = describe_payload(unit.payload)
                fingerprints[index] = unit.fingerprint(described_by_payload[payload_id])
                keys[index] = unit_key(unit, described_by_payload[payload_id])

        self._counters.units.inc(len(units))
        pending: list[int] = []
        for index, key in enumerate(keys):
            stored = self._load_stored(units[index], key, fingerprints[index])
            if stored is not None:
                self._counters.store_hits.inc()
                emit_progress("unit_store_hit", label=units[index].label, key=key)
                records[index] = stored
            else:
                pending.append(index)

        use_pool = self.jobs > 1 and len(pending) > 1
        pooled = [i for i in pending if use_pool and storable[i]]
        in_process = [i for i in pending if not (use_pool and storable[i])]
        if pooled:
            self._dispatch(units, pooled, keys, fingerprints, records, pool=True)
        if in_process:
            self._dispatch(units, in_process, keys, fingerprints, records, pool=False)
        return [record for record in records if record is not None]

    # -- the dispatcher: one unit lifecycle for pool, in-process and degraded - #
    def _dispatch(
        self,
        units: Sequence[WorkUnit],
        indices: Sequence[int],
        keys: Sequence[Optional[str]],
        fingerprints: Sequence[Optional[dict[str, Any]]],
        records: list[Optional[dict[str, Any]]],
        pool: bool,
    ) -> None:
        """Claim → execute → validate → complete every unit in ``indices``.

        With ``pool``, units go to the worker pool, up to ``pool_chunk`` per
        task and ``jobs`` tasks in flight.  Otherwise — and for every task
        once the executor has degraded — a task is one unit, run in process
        at submit time.  Either way a unit's lease is claimed first, and a won claim
        re-checks the store (another executor may have finished the unit
        since the caller's store check); a fresh record must match the
        unit's trial count before it is group-committed, its lease released
        and the record stored in ``records`` at the unit's index.  The :class:`RetryPolicy` applies per
        unit: retries with backoff, pool timeouts, and crash requeues that
        consume no attempt.
        """
        policy = self.retry
        crash_limit = max(3, policy.max_attempts)
        tokens = {
            i: keys[i] or f"{units[i].label}[{units[i].start}:{units[i].stop}]"
            for i in indices
        }
        queue: deque[int] = deque(indices)
        submissions = {i: 0 for i in indices}  # total executions started
        failures = {i: 0 for i in indices}  # attempt-consuming failures
        crash_requeues = {i: 0 for i in indices}
        delayed: list[tuple[float, int]] = []  # backoff heap (ready_time, index)
        blocked: dict[int, float] = {}  # lease-blocked -> next poll time
        in_flight: dict[Future, tuple[int, ...]] = {}
        deadlines: dict[Future, Optional[float]] = {}
        timed_out: set[int] = set()
        consecutive_rebuilds = 0
        completed_since_rebuild = False

        def store_hit(index: int, record: dict[str, Any]) -> None:
            self._counters.store_hits.inc()
            emit_progress("unit_store_hit", label=units[index].label, key=keys[index])
            records[index] = record

        def claim(index: int) -> bool:
            """Take ``index``'s lease; False if it is blocked or already stored."""
            key = keys[index]
            if key is None or self.leases is None:
                return True
            if not self.leases.claim(key):
                blocked[index] = time.monotonic() + self._lease_poll_interval()
                return False
            # Claimed (possibly stolen after expiry): the previous owner may
            # still have finished the unit between our store check and now.
            stored = self._load_stored(units[index], key, fingerprints[index])
            if stored is None:
                return True
            self.leases.release(key)
            store_hit(index, stored)
            return False

        def fail(index: int, exc: BaseException) -> None:
            failures[index] += 1
            if failures[index] >= policy.max_attempts:
                raise exc
            self._counters.retries.inc()
            emit_progress("unit_retry", unit=tokens[index], failures=failures[index])
            ready = time.monotonic() + policy.delay(failures[index], tokens[index])
            heapq.heappush(delayed, (ready, index))

        def settle(future: Future, chunk: tuple[int, ...]) -> bool:
            """Process one finished future; returns True if the pool broke."""
            nonlocal completed_since_rebuild
            try:
                outcomes = future.result()
            except BrokenProcessPool:
                for index in chunk:
                    if index in timed_out:
                        # Killed on purpose: the chunk's deadline passed.
                        timed_out.discard(index)
                        self._counters.timeouts.inc()
                        emit_progress("unit_timeout", unit=tokens[index])
                        fail(
                            index,
                            TimeoutError(
                                f"unit {tokens[index]} exceeded "
                                f"{policy.unit_timeout}s wall-clock timeout"
                            ),
                        )
                    else:
                        # Innocent bystander of a crashed worker: requeue
                        # without consuming an attempt, bounded so a unit that
                        # keeps losing its pool cannot spin forever.
                        crash_requeues[index] += 1
                        self._counters.requeues.inc()
                        emit_progress("unit_requeued", unit=tokens[index])
                        if crash_requeues[index] > crash_limit:
                            raise RuntimeError(
                                f"unit {tokens[index]} lost to {crash_requeues[index]} "
                                "worker-pool failures"
                            )
                        queue.append(index)
                return True
            except Exception as exc:
                for index in chunk:
                    fail(index, exc)
                return False
            completions: list[tuple[int, dict[str, Any], float]] = []
            failed: list[tuple[int, BaseException]] = []
            for index, outcome in zip(chunk, outcomes):
                timed_out.discard(index)
                error = outcome.get("error")
                if error is not None:
                    failed.append((index, error))
                    continue
                record = outcome["record"]
                if not record_matches_unit(units[index], record):
                    failed.append(
                        (
                            index,
                            RuntimeError(
                                f"unit {tokens[index]} returned a corrupt record "
                                f"(expected {units[index].n_trials} trials)"
                            ),
                        )
                    )
                    continue
                completions.append((index, record, outcome["seconds"]))
            # Group-commit the chunk's completions first, so an
            # exhausted-attempts raise below cannot lose finished siblings.
            if completions:
                self._complete_many(
                    [(keys[i], fingerprints[i], record) for i, record, _ in completions]
                )
                for index, record, seconds in completions:
                    self._unit_seconds.observe(seconds)
                    records[index] = record
                    emit_progress("unit_completed", unit=tokens[index])
                completed_since_rebuild = True
            for index, error in failed:
                fail(index, error)
            return False

        def rebuild_pool() -> None:
            """Drain in-flight futures, discard the pool, track degradation."""
            nonlocal consecutive_rebuilds, completed_since_rebuild
            # Once broken, every remaining future resolves (with
            # BrokenProcessPool or its real result).
            for future, chunk in list(in_flight.items()):
                settle(future, chunk)
            in_flight.clear()
            deadlines.clear()
            timed_out.clear()
            self._discard_pool()
            self._counters.pool_rebuilds.inc()
            emit_progress("pool_rebuild", consecutive=consecutive_rebuilds + 1)
            if completed_since_rebuild:
                consecutive_rebuilds = 1
            else:
                consecutive_rebuilds += 1
            completed_since_rebuild = False
            if consecutive_rebuilds > POOL_FAILURE_LIMIT:
                # The pool has failed repeatedly without progress: every
                # later task runs in process.
                self._degraded = True
                self._counters.degraded.set(1)
                emit_progress("degraded")

        while queue or in_flight or delayed or blocked:
            in_pool = pool and not self._degraded
            submit = self._submit_to_pool if in_pool else self._submit_in_process
            chunk_cap = self.pool_chunk if in_pool else 1
            slots = self.jobs if in_pool else 1

            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, index = heapq.heappop(delayed)
                queue.append(index)
            for index in [i for i, t in blocked.items() if t <= now]:
                del blocked[index]
                stored = self._load_stored(units[index], keys[index], fingerprints[index])
                if stored is not None:
                    store_hit(index, stored)  # the lease holder finished it for us
                else:
                    queue.append(index)

            submit_broken = False
            while queue and len(in_flight) < slots:
                batch: list[int] = []
                while queue and len(batch) < chunk_cap:
                    index = queue.popleft()
                    if claim(index):
                        batch.append(index)
                if not batch:
                    break  # everything claimable went to `blocked` or the store
                try:
                    future = submit([units[i] for i in batch], [submissions[i] for i in batch])
                except BrokenProcessPool:
                    # A worker died between settles and the pool noticed at
                    # submit time.  The units never started (keep their
                    # leases, count no submissions); recover like any break.
                    for index in reversed(batch):
                        queue.appendleft(index)
                    submit_broken = True
                    break
                for index in batch:
                    submissions[index] += 1
                self._counters.submissions.inc(len(batch))
                in_flight[future] = tuple(batch)
                deadlines[future] = (
                    time.monotonic() + policy.unit_timeout * len(batch)
                    if policy.unit_timeout is not None
                    else None
                )

            if submit_broken:
                rebuild_pool()
                continue

            if not in_flight:
                wake = [t for t, _ in delayed[:1]] + list(blocked.values())
                if wake:
                    time.sleep(max(0.01, min(wake) - time.monotonic()))
                continue

            done, _ = wait(
                set(in_flight),
                timeout=self._wait_timeout(deadlines, delayed, blocked),
                return_when=FIRST_COMPLETED,
            )
            running = [
                keys[i]
                for future, chunk in in_flight.items()
                if future not in done
                for i in chunk
                if keys[i] is not None
            ]
            if running and self.leases is not None:
                self.leases.heartbeat(running)

            now = time.monotonic()
            expired = [
                f
                for f, d in deadlines.items()
                if f not in done and d is not None and d <= now
            ]
            if expired:
                # A running pool task cannot be cancelled: kill the workers
                # (breaking the pool), let every in-flight future resolve,
                # and sort timed-out units from innocent requeues below.
                for future in expired:
                    timed_out.update(in_flight[future])
                self._kill_pool_workers()

            pool_broken = bool(expired)
            for future in done:
                chunk = in_flight.pop(future)
                deadlines.pop(future, None)
                pool_broken |= settle(future, chunk)
            if pool_broken:
                rebuild_pool()

    def _submit_to_pool(self, units: Sequence[WorkUnit], submissions: Sequence[int]) -> Future:
        """Hand one chunk to the worker pool; the submission alone is timed."""
        began = time.monotonic()
        future = self._pool_instance().submit(
            _pool_run_chunk, units, submissions, self.fault_plan, in_worker=True
        )
        self._dispatch_seconds.observe(time.monotonic() - began)
        return future

    def _submit_in_process(self, units: Sequence[WorkUnit], submissions: Sequence[int]) -> Future:
        """Run one chunk here and now; the returned future is already finished.

        An in-process unit cannot be preempted, so no unit timeout applies,
        and a crash fault raises instead of killing the interpreter.
        """
        future: Future = Future()
        future.set_result(_pool_run_chunk(units, submissions, self.fault_plan, in_worker=False))
        return future

    # -- shared completion / recovery helpers ------------------------------- #
    def _load_stored(
        self,
        unit: WorkUnit,
        key: Optional[str],
        fingerprint: Optional[dict[str, Any]],
    ) -> Optional[dict[str, Any]]:
        """A validated stored record for ``unit``, or ``None``.

        Beyond the store's own parse/fingerprint checks, the record must
        match the unit's trial count — a truncated record written by a
        pre-hardening version (or a corrupted store) is quarantined rather
        than merged.
        """
        if self.store is None or key is None:
            return None
        record = self.store.get(key, fingerprint=fingerprint)
        if record is None:
            return None
        if not record_matches_unit(unit, record):
            self.store.quarantine(key)
            self.store.stats.hits -= 1
            self.store.stats.misses += 1
            return None
        return record

    def _complete_many(
        self, items: Sequence[tuple[Optional[str], Optional[dict[str, Any]], dict[str, Any]]]
    ) -> None:
        """Persist a chunk's records through one store group commit.

        Every record file is individually fsynced, with one directory fsync
        per chunk; leases release only after their records are durable.
        """
        if self.store is not None:
            stored = [
                (key, record, fingerprint)
                for key, fingerprint, record in items
                if key is not None
            ]
            if stored:
                self.store.put_many(stored)
                if self.leases is not None:
                    for key, _record, _fingerprint in stored:
                        self.leases.release(key)
        self._counters.executed.inc(len(items))

    def _wait_timeout(
        self,
        deadlines: Mapping[Future, Optional[float]],
        delayed: Sequence[tuple[float, int]],
        blocked: Mapping[int, float],
    ) -> Optional[float]:
        """How long the dispatcher may block before its next housekeeping."""
        candidates = [d for d in deadlines.values() if d is not None]
        if delayed:
            candidates.append(delayed[0][0])
        candidates.extend(blocked.values())
        if self.leases is not None:
            candidates.append(time.monotonic() + self._heartbeat_interval())
        if not candidates:
            return None
        return max(0.0, min(candidates) - time.monotonic())

    def _lease_poll_interval(self) -> float:
        return min(max(self.lease_ttl / 4.0, 0.05), 1.0)

    def _heartbeat_interval(self) -> float:
        return min(max(self.lease_ttl / 4.0, 0.05), 15.0)

    def _kill_pool_workers(self) -> None:
        """SIGKILL the pool's worker processes (deliberately breaking it)."""
        if self._pool is None:
            return
        for process in list(getattr(self._pool, "_processes", {}).values()):
            try:
                process.kill()
            except (OSError, AttributeError):
                pass

    def _discard_pool(self) -> None:
        """Throw away a (broken) pool; the next dispatch builds a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- high-level entry points -------------------------------------------- #
    def run_process(
        self,
        process: Any,
        n_replications: int,
        seed: SeedLike,
        backend: str,
        connectivity: Optional[str] = None,
        label: Optional[str] = None,
    ) -> tuple[Any, list[Any]]:
        """Sharded equivalent of
        :func:`repro.dissemination.kernels.run_process_replications`.

        The unit payload is the kernel's ``spec`` — workers rebuild the
        kernel by name, so process units are picklable *and*
        content-addressable in a resume store.  ``backend`` and
        ``connectivity`` must already be resolved (resolution happens in the
        calling process so worker processes never depend on ambient override
        state).  Broadcast and gossip runs shard this way too, as
        :class:`~repro.dissemination.kernels.BroadcastProcess` and
        :class:`~repro.dissemination.kernels.GossipProcess` units.
        """
        units = self.decompose(
            label=label or f"process[{process.name}]",
            kind="process",
            payload={"process": process.spec},
            n_replications=n_replications,
            seed=seed,
            backend=backend,
            connectivity=connectivity,
        )
        return _merge_process_records(process, self.run_units(units))

    def run_sweep(
        self,
        sweep: Any,
        config_factory: Callable[[Any], Any],
        n_replications: int,
        seed: SeedLike,
        kind: str = "broadcast",
        backend: Optional[str] = None,
        label: str = "sweep",
    ) -> list[tuple[Any, Any, list[Any]]]:
        """Decompose a whole :class:`~repro.analysis.sweep.ParameterSweep`.

        Builds the (sweep-point × replication-chunk) units of *every* point
        up front and dispatches them in one pass, so workers stay busy
        across point boundaries (unlike the per-point interception seam,
        which fans out one point at a time).  Point ``i`` uses the ``i``-th
        spawned child of ``seed`` as its root — exactly the stream an
        experiment-style ``spawn_rngs(seed, n_points)`` loop hands point
        ``i`` — and trial streams within a point follow the usual
        per-trial spawn, so results match the sequential loop bit for bit.

        ``kind`` names the process kernel built from each point's config
        (``"broadcast"`` or ``"gossip"``).  Returns one ``(point,
        ReplicationSummary, results)`` triple per sweep point, in sweep
        order.
        """
        from repro.core.runner import resolve_pair
        from repro.dissemination.kernels import make_process

        points = list(sweep)
        root = SeedStreamSpec.reserve(seed, len(points))
        units: list[WorkUnit] = []
        spans: list[tuple[int, int, Any]] = []
        for index, point in enumerate(points):
            config = config_factory(point)
            process = make_process(kind, config=config)
            point_backend, point_connectivity = resolve_pair(config, backend)
            point_units = self.decompose(
                label=f"{label}[{point.label()}]",
                kind="process",
                payload={"process": process.spec},
                n_replications=n_replications,
                seed=root.child_sequence(index),
                backend=point_backend,
                connectivity=point_connectivity,
            )
            spans.append((len(units), len(units) + len(point_units), process))
            units.extend(point_units)
        records = self.run_units(units)
        return [
            (point, *_merge_process_records(process, records[start:stop]))
            for point, (start, stop, process) in zip(points, spans)
        ]

    def map_replications(
        self,
        fn: Callable[..., Any],
        n_replications: int,
        seed: SeedLike,
        kwargs: Optional[Mapping[str, Any]] = None,
        label: Optional[str] = None,
    ) -> list[Any]:
        """Sharded map: ``fn(rngs, **kwargs)`` once per unit, on its trials' streams.

        ``fn`` must be module-level (picklable) and return one JSON-able
        payload per generator, in order; trial payloads come back in trial
        order.  The generators are discarded afterwards, so ``fn`` may draw
        past a trial's last use of its stream.  Unpicklable
        payloads (e.g. closures) degrade gracefully to chunked in-process
        execution, but are excluded from the result store — captured state
        is invisible to the content fingerprint, so caching them could
        alias distinct functions.
        """
        units = self.decompose(
            label=label or f"{fn.__module__}:{getattr(fn, '__qualname__', 'fn')}",
            kind="map",
            payload={"fn": fn, "kwargs": dict(kwargs or {})},
            n_replications=n_replications,
            seed=seed,
        )
        records = self.run_units(units)
        trials: list[Any] = []
        for record in records:
            trials.extend(record["trials"])
        return trials


# --------------------------------------------------------------------------- #
# The ambient override (how --jobs reaches experiments' inner loops).
# --------------------------------------------------------------------------- #
#: Context-local rather than a plain module global so that a thread running
#: :func:`execute_unit` while another holds an :func:`execution_override`
#: neither sees that thread's executor nor races its install/restore.  Pool
#: workers are separate processes and start from the default (``None``)
#: either way.
_EXECUTOR: ContextVar[Optional[SweepExecutor]] = ContextVar(
    "repro_exec_executor", default=None
)


@contextmanager
def execution_override(executor: Optional[SweepExecutor]) -> Iterator[None]:
    """Route replication runs inside the ``with`` block through ``executor``.

    ``None`` is a true no-op: an executor installed by an enclosing block
    stays active.  The executor's worker pool is shut down when the block
    exits.  Mirrors :func:`repro.core.runner.backend_override`: this is how
    the command line's ``--jobs`` / ``--resume`` flags reach experiments
    that drive their replications internally.
    """
    if executor is None:
        yield
        return
    token = _EXECUTOR.set(executor)
    try:
        yield
    finally:
        _EXECUTOR.reset(token)
        executor.close()


@contextmanager
def _suspended_override() -> Iterator[None]:
    """Temporarily clear the executor override (worker recursion guard)."""
    token = _EXECUTOR.set(None)
    try:
        yield
    finally:
        _EXECUTOR.reset(token)


def current_executor() -> Optional[SweepExecutor]:
    """The active :class:`SweepExecutor`, or ``None``."""
    return _EXECUTOR.get()


def map_replications(
    fn: Callable[..., Any],
    n_replications: int,
    seed: SeedLike = None,
    kwargs: Optional[Mapping[str, Any]] = None,
    label: Optional[str] = None,
) -> list[Any]:
    """Payloads of ``n_replications`` independent streams, from batch calls of ``fn``.

    The executor-aware replication map.  ``fn(rngs, **kwargs)`` takes a list
    of per-trial generators and returns one payload per generator, in
    order, each a function of its own generator's stream alone; the
    generators are discarded afterwards, so ``fn`` may draw past a trial's
    last use of its stream.  With no active :func:`execution_override`, one
    call receives every stream, from :func:`repro.util.rng.spawn_rngs`.
    Under an active executor each unit's call receives the same streams of
    its chunk, and units are sharded (and, with a store, resumable).
    Payloads must be JSON-able for the two paths to be interchangeable.
    """
    executor = current_executor()
    if executor is None:
        return _call_map(fn, spawn_rngs(seed, n_replications), kwargs or {})
    return executor.map_replications(
        fn, n_replications, seed, kwargs=kwargs, label=label
    )
