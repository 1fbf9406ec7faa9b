"""Work units: the atom of sharded sweep execution.

A :class:`WorkUnit` is one (sweep-point × replication-chunk) slice of a
sweep: "run trials ``start .. stop-1`` of this payload, with streams derived
from this seed spec, on this backend".  Units are

* **picklable** — they cross the process boundary to pool workers;
* **content-addressed** — :func:`unit_key` hashes a canonical fingerprint of
  everything that determines the unit's result, so the on-disk
  :class:`~repro.exec.store.ResultStore` can recognise completed units
  across interrupted runs;
* **order-free** — a unit's result depends only on its own fields, never on
  worker count, scheduling order or how the remaining trials are chunked.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.exec.seeds import SeedStreamSpec

#: Payload kinds understood by :func:`repro.exec.executor.execute_unit`.
UNIT_KINDS = ("map", "process")


@dataclass(frozen=True)
class WorkUnit:
    """One replication chunk of one sweep point.

    Attributes
    ----------
    label:
        Human-readable identity of the sweep point (e.g. ``"E1[k=32]"``);
        part of the fingerprint, so it must be stable across runs.
    kind:
        ``"process"`` (a registered process-kernel spec: broadcast, gossip
        or a Section-4 process) or ``"map"`` (a module-level batch map
        function payload).
    payload:
        Kind-specific work description.  For process kind:
        ``{"process": {"name": ..., "kwargs": {...}}}`` (a
        :attr:`repro.dissemination.kernels.ProcessKernel.spec`; a broadcast
        or gossip spec's kwargs are ``{"config": ...}``).  For map kind:
        ``{"fn": <module-level callable>, "kwargs": {...}}``, where
        ``fn(rngs, **kwargs)`` returns one payload per generator of the
        chunk's trials.
    n_replications:
        Total number of trials at this sweep point (the chunk is a slice of
        this range; the total is part of the identity so chunk layouts of
        different totals never collide).
    start, stop:
        The half-open trial range this unit covers.
    seed:
        Stream spec of the sweep point's root seed; trial ``i`` uses child
        stream ``i``.
    backend:
        Resolved replication backend for process units (``"serial"``,
        ``"batched"`` or ``"compiled"``), or ``None`` for map units.
    connectivity:
        Resolved connectivity engine for process units (``"recompute"``
        or ``"incremental"``), or ``None`` for map units.  Resolved in the
        dispatching process — like ``backend`` — so workers never depend on
        ambient override state.  Neither field is part of the unit
        fingerprint: all backends and both engines are bit-for-bit identical
        by contract (property-tested), so keying the store on either choice
        would only invalidate resume stores and split the cache without
        changing any stored result — a store written on a compiled host
        resumes cleanly on one without a provider, and vice versa.
    """

    label: str
    kind: str
    payload: Mapping[str, Any]
    n_replications: int
    start: int
    stop: int
    seed: SeedStreamSpec
    backend: Optional[str] = None
    connectivity: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in UNIT_KINDS:
            raise ValueError(f"kind must be one of {UNIT_KINDS}, got {self.kind!r}")
        if not (0 <= self.start < self.stop <= self.n_replications):
            raise ValueError(
                f"invalid chunk [{self.start}, {self.stop}) of "
                f"{self.n_replications} replications"
            )

    @property
    def n_trials(self) -> int:
        """Number of trials in this chunk."""
        return self.stop - self.start

    def fingerprint(self, described_payload: Optional[dict[str, Any]] = None) -> dict[str, Any]:
        """Canonical JSON-able identity of this unit (hashed by :func:`unit_key`).

        ``described_payload`` short-circuits :func:`describe_payload` when
        the caller already described the (typically shared) payload once for
        a whole chunk range.
        """
        return {
            "label": self.label,
            "kind": self.kind,
            "payload": (
                describe_payload(self.payload)
                if described_payload is None
                else described_payload
            ),
            "n_replications": self.n_replications,
            "start": self.start,
            "stop": self.stop,
            "seed": self.seed.as_json(),
        }


def unit_key(unit: WorkUnit, described_payload: Optional[dict[str, Any]] = None) -> str:
    """Content hash identifying ``unit`` in a :class:`ResultStore`."""
    canonical = json.dumps(
        unit.fingerprint(described_payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def describe_payload(payload: Mapping[str, Any]) -> dict[str, Any]:
    """A JSON-able description of a unit payload, for fingerprints.

    Callables are identified by module-qualified name; everything else goes
    through :func:`repro.util.serialization.to_jsonable`, falling back to a
    pickle digest for objects with no JSON form (e.g. domain grids).
    """
    described: dict[str, Any] = {}
    for key, value in payload.items():
        if callable(value):
            described[key] = f"{value.__module__}:{getattr(value, '__qualname__', repr(value))}"
        else:
            described[key] = _describe_value(value)
    return described


def _describe_value(value: Any) -> Any:
    from repro.util.serialization import to_jsonable

    try:
        return to_jsonable(value)
    except TypeError:
        pass
    try:
        digest = hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()[:16]
        return {"__pickle_sha256__": digest, "type": type(value).__name__}
    except Exception:
        # No faithful content description exists (e.g. a lambda buried in
        # kwargs).  Such payloads never reach the store — the executor
        # excludes unpicklable payloads from it — so the placeholder only
        # has to be JSON-able, not collision-free.
        return {"__unpicklable__": True, "type": type(value).__name__}


def default_chunk_size(n_replications: int) -> int:
    """Default trials per unit: about eight units per sweep point.

    Deliberately a function of the replication count only — never of the
    worker count — so that the chunk layout (and with it every unit key in a
    resume store) is identical across ``--jobs`` settings.
    """
    return max(1, -(-n_replications // 8))


def chunk_bounds(n_replications: int, chunk_size: Optional[int] = None) -> list[tuple[int, int]]:
    """Split ``n_replications`` trials into contiguous ``(start, stop)`` chunks."""
    if n_replications <= 0:
        raise ValueError(f"n_replications must be positive, got {n_replications}")
    size = default_chunk_size(n_replications) if chunk_size is None else int(chunk_size)
    if size <= 0:
        raise ValueError(f"chunk_size must be positive, got {size}")
    return [(start, min(start + size, n_replications)) for start in range(0, n_replications, size)]


def record_matches_unit(unit: WorkUnit, record: Any) -> bool:
    """Whether ``record`` has the shape ``unit``'s execution must produce.

    The contract per kind: map units return ``{"trials": [...]}``,
    process units return ``{"values": [...], "results":
    [...]}``, and every trial-shaped list holds exactly ``unit.n_trials``
    entries.  This is the cheap structural check the executor applies to
    every fresh *and* stored record before merging — a truncated or
    corrupted record (from a faulty worker, a torn store file, or fault
    injection) must trigger a retry/quarantine, never a silent merge.
    """
    if not isinstance(record, Mapping):
        return False
    if unit.kind == "map":
        trials = record.get("trials")
        return isinstance(trials, list) and len(trials) == unit.n_trials
    values = record.get("values")
    results = record.get("results")
    return (
        isinstance(values, list)
        and isinstance(results, list)
        and len(values) == unit.n_trials
        and len(results) == unit.n_trials
    )


def payload_is_picklable(payload: Mapping[str, Any]) -> bool:
    """Whether a payload can cross the process boundary."""
    try:
        pickle.dumps(dict(payload), protocol=4)
        return True
    except Exception:
        return False
