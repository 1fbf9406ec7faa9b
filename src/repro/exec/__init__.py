"""Sharded parallel sweep execution with deterministic resume.

Public surface of the ``repro.exec`` subsystem:

* :class:`SweepExecutor` — decomposes replicated measurements into
  (sweep-point × replication-chunk) work units, runs them in process or
  over a process pool (one dispatcher for both), or over HTTP workers
  (``dispatch="remote"``), and merges the records back;
* :class:`ResultStore` — the on-disk record store that makes interrupted
  sweeps resumable;
* :func:`execution_override` / :func:`current_executor` — the ambient
  override through which ``--jobs`` / ``--resume`` reach every experiment's
  replication loops;
* :func:`map_replications` — the executor-aware batch map experiments use
  for custom (non broadcast/gossip) replication loops: one call of
  ``fn(rngs, **kwargs)`` per unit, one payload per trial;
* :class:`WorkUnit` / :func:`unit_key` / :class:`SeedStreamSpec` — the
  work-unit model, for building custom sweeps on the executor directly;
* :class:`RetryPolicy` / :class:`ExecutionReport` — the fault-tolerance
  layer: bounded retries with deterministic backoff, per-unit timeouts,
  worker-crash recovery, and the per-run observability snapshot;
* :class:`LeaseTable` — cooperative unit ownership for concurrent or
  restarted executors sharing one store;
* :class:`FaultPlan` / :class:`FaultInjectionError` /
  :class:`TransportFaultPlan` — the deterministic fault-injection harness
  the chaos suite drives (process faults and HTTP transport faults);
* :class:`Coordinator` / :func:`run_worker` — the multi-host transport:
  an embedded HTTP coordinator serving the unit lifecycle (batched
  claim/push; a single unit is a batch of one), and the worker loop behind
  ``repro worker --coordinator URL`` (batched, pipelined, keep-alive);
* :class:`CoordinatorClient` — the persistent JSON-over-HTTP client the
  worker (and tests) speak to a coordinator with
  (:mod:`repro.exec.transport`);
* :func:`encode_unit` / :func:`decode_unit` — the wire codecs, plus the
  batch message types (:class:`ClaimBatchRequest` …
  :class:`PushBatchResponse`) and :data:`PROTOCOL_VERSION`
  (:mod:`repro.exec.protocol`).

See ``docs/PARALLEL.md`` for the work-unit model, the determinism contract,
resume semantics and the fault-tolerance layer, and ``docs/DISTRIBUTED.md``
for the coordinator/worker protocol.
"""

from repro.exec.executor import (
    AGGREGATES,
    DISPATCH_MODES,
    ExecutionReport,
    RetryPolicy,
    SweepExecutor,
    check_aggregate,
    check_dispatch,
    current_executor,
    execute_unit,
    execution_override,
    map_replications,
    run_unit_with_faults,
)
from repro.exec.faults import FaultInjectionError, FaultPlan, TransportFaultPlan
from repro.exec.leases import LeaseTable
from repro.exec.protocol import (
    PROTOCOL_VERSION,
    ClaimBatchRequest,
    ClaimBatchResponse,
    LeaseGrant,
    ProtocolError,
    PushAck,
    PushBatchRequest,
    PushBatchResponse,
    PushEntry,
    canonical_json,
    decode_unit,
    encode_unit,
)
from repro.exec.remote import (
    Coordinator,
    CoordinatorClient,
    WorkerStats,
    idle_backoff_delay,
    run_worker,
)
from repro.exec.seeds import SeedStreamSpec
from repro.exec.store import ResultStore
from repro.exec.units import (
    WorkUnit,
    chunk_bounds,
    default_chunk_size,
    record_matches_unit,
    unit_key,
)

__all__ = [
    "AGGREGATES",
    "DISPATCH_MODES",
    "PROTOCOL_VERSION",
    "ClaimBatchRequest",
    "ClaimBatchResponse",
    "Coordinator",
    "CoordinatorClient",
    "ExecutionReport",
    "LeaseGrant",
    "PushAck",
    "PushBatchRequest",
    "PushBatchResponse",
    "PushEntry",
    "check_aggregate",
    "check_dispatch",
    "FaultInjectionError",
    "FaultPlan",
    "LeaseTable",
    "ProtocolError",
    "RetryPolicy",
    "SweepExecutor",
    "ResultStore",
    "SeedStreamSpec",
    "TransportFaultPlan",
    "WorkUnit",
    "WorkerStats",
    "canonical_json",
    "chunk_bounds",
    "current_executor",
    "decode_unit",
    "default_chunk_size",
    "encode_unit",
    "execute_unit",
    "execution_override",
    "idle_backoff_delay",
    "map_replications",
    "record_matches_unit",
    "run_unit_with_faults",
    "run_worker",
    "unit_key",
]
