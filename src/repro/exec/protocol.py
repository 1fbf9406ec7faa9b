"""Wire protocol for multi-host sweep execution.

Everything that crosses the coordinator/worker HTTP boundary is defined
here: JSON codecs for :class:`~repro.exec.units.WorkUnit`\\ s and the
request/response message shapes of the coordinator API
(:mod:`repro.exec.remote`).

Design rules
------------
* **Canonical JSON everywhere.**  Bodies are serialised with
  :func:`canonical_json` (sorted keys, no whitespace), so byte-equality of
  two encoded documents is exactly value-equality — which is what lets the
  coordinator accept a double-pushed record idempotently by comparing bytes.
* **Strict decoding.**  Every ``from_json`` / ``decode_*`` function
  validates shape and types and raises :class:`ProtocolError` on anything
  malformed; a bad message must be rejected at the boundary, never handed
  half-parsed to the executor.
* **Round-trip fidelity.**  ``decode(encode(x)) == x`` for every unit and
  message — the property the Hypothesis suite in
  ``tests/test_exec_protocol.py`` pins down.  This is what makes a unit's
  result independent of *where* it executes: the worker rebuilds exactly
  the unit the coordinator decomposed.

Only ``"process"`` units cross the wire (:data:`REMOTE_KINDS`): their
payload is pure data, a registered process-kernel spec (a broadcast or
gossip spec carries its config).  Decoding rebuilds the kernel once, so an
unknown kernel name or an invalid config is refused at the boundary.  A
spec with no JSON form (e.g. an obstacle domain object in a config's
``mobility_kwargs``) does not encode, and its units run on the coordinator.
``"map"`` payloads hold live callables and never leave the coordinator
process — the executor runs them inline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.exec.seeds import SeedStreamSpec
from repro.exec.units import UNIT_KINDS, WorkUnit
from repro.util.serialization import to_jsonable

#: The one protocol version: stamped on every encoded unit document and
#: announced in the register handshake.  Version 2 is the batched API
#: (``/api/v2/claim`` with unit payloads inlined, ``/api/v2/push`` with
#: per-unit acks); a coordinator refuses any other version at registration.
PROTOCOL_VERSION = 2

#: Unit kinds whose payloads survive JSON encoding (see module docstring).
REMOTE_KINDS = ("process",)


class ProtocolError(ValueError):
    """A message or unit document that does not conform to the protocol."""


def canonical_json(document: Any) -> str:
    """``document`` as canonical JSON (sorted keys, minimal separators).

    Two value-equal documents always canonicalise to identical bytes, so
    byte comparison of canonical forms is value comparison — the idempotent
    double-push check relies on this.
    """
    try:
        return json.dumps(document, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"document is not JSON-able: {exc}") from exc


# --------------------------------------------------------------------------- #
# Strict field extraction
# --------------------------------------------------------------------------- #
def _expect_mapping(document: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(document, Mapping):
        raise ProtocolError(f"{what} must be a JSON object, got {type(document).__name__}")
    return document


def _field(document: Mapping[str, Any], name: str, what: str) -> Any:
    if name not in document:
        raise ProtocolError(f"{what} is missing required field {name!r}")
    return document[name]


def _str_field(document: Mapping[str, Any], name: str, what: str) -> str:
    value = _field(document, name, what)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{what}.{name} must be a non-empty string, got {value!r}")
    return value


def _int_field(document: Mapping[str, Any], name: str, what: str) -> int:
    value = _field(document, name, what)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{what}.{name} must be an integer, got {value!r}")
    return value


def _dict_field(document: Mapping[str, Any], name: str, what: str) -> dict[str, Any]:
    value = _field(document, name, what)
    if not isinstance(value, Mapping):
        raise ProtocolError(f"{what}.{name} must be a JSON object, got {type(value).__name__}")
    return dict(value)


# --------------------------------------------------------------------------- #
# Unit codecs
# --------------------------------------------------------------------------- #
def _encode_payload(kind: str, payload: Mapping[str, Any]) -> dict[str, Any]:
    if kind != "process":
        raise ProtocolError(
            f"unit kind {kind!r} does not cross the wire (its payload holds live objects)"
        )
    spec = _field(payload, "process", "unit payload")
    try:
        spec = to_jsonable(spec)
    except TypeError as exc:
        # e.g. a barrier domain object in a config's mobility_kwargs: such
        # specs have no faithful JSON form and their units stay on the
        # coordinator.
        raise ProtocolError(f"process spec is not JSON-able: {exc}") from exc
    spec = _expect_mapping(spec, "process spec")
    _str_field(spec, "name", "process spec")
    return {"process": dict(spec)}


def _decode_payload(document: Any) -> dict[str, Any]:
    from repro.dissemination.kernels import make_process

    document = _expect_mapping(document, "unit payload")
    spec = _dict_field(document, "process", "unit payload")
    name = _str_field(spec, "name", "process spec")
    kwargs = spec.get("kwargs")
    if kwargs is not None and not isinstance(kwargs, Mapping):
        raise ProtocolError(f"process spec kwargs must be a JSON object, got {kwargs!r}")
    try:
        # The registry lookup and the kernel's (or its config's) own
        # validation are the checks: a spec no worker could run is refused.
        make_process(name, **dict(kwargs or {}))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid process spec {name!r}: {exc}") from exc
    return {"process": spec}


def encode_unit(unit: WorkUnit) -> dict[str, Any]:
    """A :class:`WorkUnit` as a JSON document (raises for non-remote kinds)."""
    return {
        "version": PROTOCOL_VERSION,
        "label": unit.label,
        "kind": unit.kind,
        "payload": _encode_payload(unit.kind, unit.payload),
        "n_replications": unit.n_replications,
        "start": unit.start,
        "stop": unit.stop,
        "seed": unit.seed.as_json(),
        "backend": unit.backend,
        "connectivity": unit.connectivity,
    }


def decode_unit(document: Any) -> WorkUnit:
    """Inverse of :func:`encode_unit` (strictly validated)."""
    document = _expect_mapping(document, "unit document")
    version = _int_field(document, "version", "unit document")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: unit is v{version}, this side speaks v{PROTOCOL_VERSION}"
        )
    kind = _str_field(document, "kind", "unit document")
    if kind not in REMOTE_KINDS or kind not in UNIT_KINDS:
        raise ProtocolError(f"unit kind must be one of {REMOTE_KINDS}, got {kind!r}")
    for name in ("backend", "connectivity"):
        value = document.get(name)
        if value is not None and not isinstance(value, str):
            raise ProtocolError(f"unit document.{name} must be a string or null, got {value!r}")
    try:
        seed = SeedStreamSpec.from_json(_dict_field(document, "seed", "unit document"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid seed spec: {exc}") from exc
    try:
        return WorkUnit(
            label=_str_field(document, "label", "unit document"),
            kind=kind,
            payload=_decode_payload(_field(document, "payload", "unit document")),
            n_replications=_int_field(document, "n_replications", "unit document"),
            start=_int_field(document, "start", "unit document"),
            stop=_int_field(document, "stop", "unit document"),
            seed=seed,
            backend=document.get("backend"),
            connectivity=document.get("connectivity"),
        )
    except ValueError as exc:
        raise ProtocolError(f"invalid unit document: {exc}") from exc


# --------------------------------------------------------------------------- #
# Coordinator API messages
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RegisterRequest:
    """``POST /api/register`` body: a worker announcing itself."""

    worker: str
    pid: int = 0
    host: str = ""
    version: int = PROTOCOL_VERSION

    def as_json(self) -> dict[str, Any]:
        return {"worker": self.worker, "pid": self.pid, "host": self.host, "version": self.version}

    @classmethod
    def from_json(cls, document: Any) -> "RegisterRequest":
        document = _expect_mapping(document, "register request")
        host = document.get("host", "")
        if not isinstance(host, str):
            raise ProtocolError(f"register request.host must be a string, got {host!r}")
        return cls(
            worker=_str_field(document, "worker", "register request"),
            pid=_int_field(document, "pid", "register request") if "pid" in document else 0,
            host=host,
            version=_int_field(document, "version", "register request"),
        )


@dataclass(frozen=True)
class RegisterResponse:
    """``POST /api/register`` response: the coordinator's operating terms."""

    worker: str
    lease_ttl: float
    poll_interval: float

    def as_json(self) -> dict[str, Any]:
        return {
            "worker": self.worker,
            "lease_ttl": self.lease_ttl,
            "poll_interval": self.poll_interval,
        }

    @classmethod
    def from_json(cls, document: Any) -> "RegisterResponse":
        document = _expect_mapping(document, "register response")
        return cls(
            worker=_str_field(document, "worker", "register response"),
            lease_ttl=float(_field(document, "lease_ttl", "register response")),
            poll_interval=float(_field(document, "poll_interval", "register response")),
        )


@dataclass(frozen=True)
class HeartbeatRequest:
    """``POST /api/heartbeat`` body: leases the worker is still working on."""

    worker: str
    keys: tuple[str, ...] = ()

    def as_json(self) -> dict[str, Any]:
        return {"worker": self.worker, "keys": list(self.keys)}

    @classmethod
    def from_json(cls, document: Any) -> "HeartbeatRequest":
        document = _expect_mapping(document, "heartbeat request")
        keys = _field(document, "keys", "heartbeat request")
        if not isinstance(keys, list) or not all(isinstance(k, str) and k for k in keys):
            raise ProtocolError(f"heartbeat request.keys must be a list of keys, got {keys!r}")
        return cls(
            worker=_str_field(document, "worker", "heartbeat request"),
            keys=tuple(keys),
        )


@dataclass(frozen=True)
class FailureReport:
    """``POST /api/fail`` body: a worker reporting a unit it could not run.

    The coordinator releases the worker's lease so another worker retries
    immediately instead of waiting out the TTL; units that keep failing are
    eventually declared dead (see ``Coordinator.max_unit_failures``).
    """

    worker: str
    key: str
    error: str = ""

    def as_json(self) -> dict[str, Any]:
        return {"worker": self.worker, "key": self.key, "error": self.error}

    @classmethod
    def from_json(cls, document: Any) -> "FailureReport":
        document = _expect_mapping(document, "failure report")
        error = document.get("error", "")
        if not isinstance(error, str):
            raise ProtocolError(f"failure report.error must be a string, got {error!r}")
        return cls(
            worker=_str_field(document, "worker", "failure report"),
            key=_str_field(document, "key", "failure report"),
            error=error,
        )


@dataclass(frozen=True)
class ClaimBatchRequest:
    """``POST /api/v2/claim`` body: ask for up to ``max_units`` leases at once."""

    worker: str
    max_units: int = 1

    def as_json(self) -> dict[str, Any]:
        return {"worker": self.worker, "max_units": self.max_units}

    @classmethod
    def from_json(cls, document: Any) -> "ClaimBatchRequest":
        document = _expect_mapping(document, "claim batch request")
        max_units = _int_field(document, "max_units", "claim batch request")
        if max_units < 1:
            raise ProtocolError(
                f"claim batch request.max_units must be >= 1, got {max_units!r}"
            )
        return cls(
            worker=_str_field(document, "worker", "claim batch request"),
            max_units=max_units,
        )


@dataclass(frozen=True)
class LeaseGrant:
    """One lease inside a :class:`ClaimBatchResponse`.

    The encoded unit document rides along (``unit``), so a claim is the
    only round trip a worker makes before executing the unit.
    """

    key: str
    fingerprint: dict[str, Any]
    unit: dict[str, Any]

    def as_json(self) -> dict[str, Any]:
        return {"key": self.key, "fingerprint": self.fingerprint, "unit": self.unit}

    @classmethod
    def from_json(cls, document: Any) -> "LeaseGrant":
        document = _expect_mapping(document, "lease grant")
        return cls(
            key=_str_field(document, "key", "lease grant"),
            fingerprint=_dict_field(document, "fingerprint", "lease grant"),
            unit=_dict_field(document, "unit", "lease grant"),
        )


@dataclass(frozen=True)
class ClaimBatchResponse:
    """``POST /api/v2/claim`` response.

    ``status`` is ``"units"`` (``leases`` holds 1..max_units grants, unit
    payloads inlined), ``"idle"`` (nothing claimable right now — poll again
    after ``retry_after``) or ``"done"`` (the sweep is finished).
    """

    status: str
    leases: tuple[LeaseGrant, ...] = ()
    retry_after: float = 0.5

    STATUSES = ("units", "idle", "done")

    def as_json(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "leases": [lease.as_json() for lease in self.leases],
            "retry_after": self.retry_after,
        }

    @classmethod
    def from_json(cls, document: Any) -> "ClaimBatchResponse":
        document = _expect_mapping(document, "claim batch response")
        status = _str_field(document, "status", "claim batch response")
        if status not in cls.STATUSES:
            raise ProtocolError(
                f"claim batch status must be one of {cls.STATUSES}, got {status!r}"
            )
        raw = document.get("leases", [])
        if not isinstance(raw, list):
            raise ProtocolError(f"claim batch response.leases must be a list, got {raw!r}")
        leases = tuple(LeaseGrant.from_json(item) for item in raw)
        if status == "units" and not leases:
            raise ProtocolError("claim batch status 'units' requires at least one lease")
        if status != "units" and leases:
            raise ProtocolError(f"claim batch status {status!r} must carry no leases")
        retry_after = document.get("retry_after", 0.5)
        if not isinstance(retry_after, (int, float)) or isinstance(retry_after, bool):
            raise ProtocolError(
                f"claim batch response.retry_after must be a number, got {retry_after!r}"
            )
        return cls(status=status, leases=leases, retry_after=float(retry_after))


@dataclass(frozen=True)
class PushEntry:
    """One completed unit's record inside a :class:`PushBatchRequest`."""

    key: str
    fingerprint: dict[str, Any]
    record: dict[str, Any]

    def as_json(self) -> dict[str, Any]:
        return {"key": self.key, "fingerprint": self.fingerprint, "record": self.record}

    @classmethod
    def from_json(cls, document: Any) -> "PushEntry":
        document = _expect_mapping(document, "push entry")
        return cls(
            key=_str_field(document, "key", "push entry"),
            fingerprint=_dict_field(document, "fingerprint", "push entry"),
            record=_dict_field(document, "record", "push entry"),
        )


@dataclass(frozen=True)
class PushBatchRequest:
    """``POST /api/v2/push`` body: a batch of completed-unit records.

    Entries are validated independently server-side — one bad record is
    quarantined and acknowledged ``"rejected"`` without poisoning its
    batch-mates, which are stored through one group commit.
    """

    worker: str
    entries: tuple[PushEntry, ...]

    def as_json(self) -> dict[str, Any]:
        return {"worker": self.worker, "entries": [entry.as_json() for entry in self.entries]}

    @classmethod
    def from_json(cls, document: Any) -> "PushBatchRequest":
        document = _expect_mapping(document, "push batch request")
        raw = _field(document, "entries", "push batch request")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(
                f"push batch request.entries must be a non-empty list, got {raw!r}"
            )
        return cls(
            worker=_str_field(document, "worker", "push batch request"),
            entries=tuple(PushEntry.from_json(item) for item in raw),
        )


@dataclass(frozen=True)
class PushAck:
    """Per-unit acknowledgement inside a :class:`PushBatchResponse`."""

    key: str
    status: str
    error: str = ""

    STATUSES = ("stored", "duplicate", "rejected")

    def as_json(self) -> dict[str, Any]:
        return {"key": self.key, "status": self.status, "error": self.error}

    @classmethod
    def from_json(cls, document: Any) -> "PushAck":
        document = _expect_mapping(document, "push ack")
        status = _str_field(document, "status", "push ack")
        if status not in cls.STATUSES:
            raise ProtocolError(f"push ack status must be one of {cls.STATUSES}, got {status!r}")
        error = document.get("error", "")
        if not isinstance(error, str):
            raise ProtocolError(f"push ack.error must be a string, got {error!r}")
        return cls(key=_str_field(document, "key", "push ack"), status=status, error=error)


@dataclass(frozen=True)
class PushBatchResponse:
    """``POST /api/v2/push`` response: one :class:`PushAck` per entry, in order."""

    acks: tuple[PushAck, ...]

    def as_json(self) -> dict[str, Any]:
        return {"acks": [ack.as_json() for ack in self.acks]}

    @classmethod
    def from_json(cls, document: Any) -> "PushBatchResponse":
        document = _expect_mapping(document, "push batch response")
        raw = _field(document, "acks", "push batch response")
        if not isinstance(raw, list):
            raise ProtocolError(f"push batch response.acks must be a list, got {raw!r}")
        return cls(acks=tuple(PushAck.from_json(item) for item in raw))
