"""Sharded parallel sweep execution with deterministic resume.

Public surface of the ``repro.exec`` subsystem:

* :class:`SweepExecutor` — decomposes replicated measurements into
  (sweep-point × replication-chunk) work units, runs them in process or
  over a process pool (one dispatcher for both, chosen by ``jobs``), and
  merges the records back;
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
* :class:`FaultPlan` / :class:`FaultInjectionError` — the deterministic
  fault-injection harness the chaos suite drives.

See ``docs/PARALLEL.md`` for the work-unit model, the determinism contract,
resume semantics and the fault-tolerance layer.
"""

from repro.exec.executor import (
    ExecutionReport,
    RetryPolicy,
    SweepExecutor,
    current_executor,
    execute_unit,
    execution_override,
    map_replications,
    run_unit_with_faults,
)
from repro.exec.faults import FaultInjectionError, FaultPlan
from repro.exec.leases import LeaseTable
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
    "ExecutionReport",
    "FaultInjectionError",
    "FaultPlan",
    "LeaseTable",
    "RetryPolicy",
    "SweepExecutor",
    "ResultStore",
    "SeedStreamSpec",
    "WorkUnit",
    "chunk_bounds",
    "current_executor",
    "default_chunk_size",
    "execute_unit",
    "execution_override",
    "map_replications",
    "record_matches_unit",
    "run_unit_with_faults",
    "unit_key",
]
