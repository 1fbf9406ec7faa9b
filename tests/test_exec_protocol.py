"""Wire-protocol round trips: ``decode(encode(x)) == x`` for units and messages.

The property the remote transport stands on is that a worker rebuilds
*exactly* the unit the coordinator decomposed — same payload, same seed
spec, same chunk bounds, same content key.  The Hypothesis suites here pin
that down over the full strategy space (process kernels, broadcast and
gossip included, and spawned seed streams), including a trip through
canonical-JSON text, which is what actually crosses the socket.  The deterministic half
checks the strict-decoding contract: every malformed document is rejected
with :class:`ProtocolError`, never handed half-parsed to the executor.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.protocol import (
    PROTOCOL_VERSION,
    REMOTE_KINDS,
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
from repro.exec.seeds import SeedStreamSpec
from repro.exec.units import WorkUnit, unit_key
from repro.util.serialization import to_jsonable
from tests.strategies import (
    broadcast_configs,
    gossip_configs,
    max_examples,
    process_kernels,
    replication_counts,
    seeds,
)


@st.composite
def seed_specs(draw):
    """Seed specs as the executor actually produces them: root or spawned."""
    sequence = np.random.SeedSequence(draw(seeds))
    for _ in range(draw(st.integers(0, 2))):
        sequence = sequence.spawn(1)[0]  # non-trivial spawn_key
    already_spawned = draw(st.integers(0, 3))
    if already_spawned:
        sequence.spawn(already_spawned)  # non-zero children_spawned
    return SeedStreamSpec.from_sequence(sequence)


def _jsonable(spec) -> bool:
    try:
        to_jsonable(spec)
    except TypeError:
        return False  # an obstacle domain object: such units stay local
    return True


@st.composite
def remote_units(draw):
    """Work units of every kind that crosses the wire."""
    kind = draw(st.sampled_from(REMOTE_KINDS))
    spec = draw(process_kernels().map(lambda process: process.spec).filter(_jsonable))
    payload = {"process": spec}
    n_replications = draw(replication_counts)
    start = draw(st.integers(0, n_replications - 1))
    stop = draw(st.integers(start + 1, n_replications))
    return WorkUnit(
        label=draw(st.sampled_from(["E1[k=2]", "sweep[n=100]", "unit"])),
        kind=kind,
        payload=payload,
        n_replications=n_replications,
        start=start,
        stop=stop,
        seed=draw(seed_specs()),
        backend=draw(st.sampled_from([None, "serial", "batched"])),
        connectivity=draw(st.sampled_from([None, "recompute", "incremental"])),
    )


def wire_trip(document):
    """What the HTTP boundary does to a document: canonical JSON and back."""
    return json.loads(canonical_json(document))


class TestUnitRoundTrip:
    @settings(max_examples=max_examples(50), deadline=None)
    @given(remote_units())
    def test_decode_inverts_encode_through_the_wire(self, unit):
        decoded = decode_unit(wire_trip(encode_unit(unit)))
        assert decoded.label == unit.label
        assert decoded.kind == unit.kind
        assert decoded.n_replications == unit.n_replications
        assert (decoded.start, decoded.stop) == (unit.start, unit.stop)
        assert decoded.seed == unit.seed
        assert decoded.backend == unit.backend
        assert decoded.connectivity == unit.connectivity
        assert decoded.payload["process"] == to_jsonable(unit.payload["process"])
        # The property the store and lease table live on: the rebuilt unit
        # hashes to the same content key.
        assert unit_key(decoded) == unit_key(unit)

    @settings(max_examples=max_examples(50), deadline=None)
    @given(remote_units())
    def test_encoding_is_a_fixed_point(self, unit):
        document = encode_unit(unit)
        assert encode_unit(decode_unit(wire_trip(document))) == document

    @settings(max_examples=max_examples(50), deadline=None)
    @given(broadcast_configs() | gossip_configs())
    def test_config_codec_round_trips(self, config):
        """A config crosses the wire inside its kernel's spec and comes back equal."""
        from repro.core.config import BroadcastConfig
        from repro.dissemination.kernels import make_process

        name = "broadcast" if isinstance(config, BroadcastConfig) else "gossip"
        unit = WorkUnit(
            label="unit",
            kind="process",
            payload={"process": make_process(name, config=config).spec},
            n_replications=1,
            start=0,
            stop=1,
            seed=SeedStreamSpec.from_seed(0),
        )
        spec = decode_unit(wire_trip(encode_unit(unit))).payload["process"]
        assert make_process(spec["name"], **spec["kwargs"]).config == config


class TestCanonicalJson:
    @settings(max_examples=max_examples(50), deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers(-(2**31), 2**31) | st.text(max_size=8),
            lambda children: st.lists(children, max_size=3)
            | st.dictionaries(st.text(max_size=8), children, max_size=3),
            max_leaves=10,
        )
    )
    def test_canonicalisation_is_idempotent(self, document):
        text = canonical_json(document)
        assert canonical_json(json.loads(text)) == text

    def test_key_order_does_not_matter(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_non_jsonable_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            canonical_json({"fn": object()})


def _example_unit(kind="process"):
    from repro.core.config import BroadcastConfig
    from repro.dissemination.kernels import BroadcastProcess

    if kind == "map":
        payload = {"fn": len, "kwargs": {}}
    else:
        config = BroadcastConfig(n_nodes=16, n_agents=2, radius=1.0, max_steps=10)
        payload = {"process": BroadcastProcess(config).spec}
    return WorkUnit(
        label="E1",
        kind=kind,
        payload=payload,
        n_replications=4,
        start=0,
        stop=2,
        seed=SeedStreamSpec.from_seed(7),
    )


class TestStrictDecoding:
    def test_map_units_do_not_cross_the_wire(self):
        unit = _example_unit(kind="map")
        with pytest.raises(ProtocolError, match="does not cross the wire"):
            encode_unit(unit)

    def test_version_mismatch_is_rejected(self):
        document = encode_unit(_example_unit())
        document["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version mismatch"):
            decode_unit(document)

    @pytest.mark.parametrize(
        "missing", ["version", "label", "kind", "payload", "n_replications", "seed"]
    )
    def test_missing_fields_are_rejected(self, missing):
        document = encode_unit(_example_unit())
        del document[missing]
        with pytest.raises(ProtocolError):
            decode_unit(document)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", "map"),
            ("kind", "mystery"),
            ("n_replications", "4"),
            ("n_replications", True),
            ("backend", 3),
            ("connectivity", ["recompute"]),
            ("seed", "not-a-spec"),
            ("payload", None),
        ],
    )
    def test_wrong_types_are_rejected(self, field, value):
        document = encode_unit(_example_unit())
        document[field] = value
        with pytest.raises(ProtocolError):
            decode_unit(document)

    def test_invalid_chunk_bounds_are_rejected(self):
        document = encode_unit(_example_unit())
        document["start"], document["stop"] = 2, 2
        with pytest.raises(ProtocolError):
            decode_unit(document)

    def test_not_a_mapping_is_rejected(self):
        with pytest.raises(ProtocolError):
            decode_unit(["not", "a", "unit"])

    def test_unknown_process_name_is_rejected(self):
        document = encode_unit(_example_unit())
        document["payload"] = {"process": {"name": "EvilProcess", "kwargs": {}}}
        with pytest.raises(ProtocolError, match="unknown process 'EvilProcess'"):
            decode_unit(document)

    def test_invalid_config_fields_are_rejected(self):
        document = encode_unit(_example_unit())
        document["payload"]["process"]["kwargs"]["config"]["n_nodes"] = -5
        with pytest.raises(ProtocolError, match="invalid process spec 'broadcast'.*n_nodes"):
            decode_unit(document)
        document["payload"]["process"]["kwargs"]["config"] = {"n_nodes": 16, "colour": "red"}
        with pytest.raises(ProtocolError, match="invalid process spec 'broadcast'"):
            decode_unit(document)

    def test_a_spec_without_json_form_does_not_cross_the_wire(self):
        from repro.core.config import BroadcastConfig
        from repro.dissemination.kernels import BroadcastProcess
        from repro.grid.obstacles import ObstacleGrid

        config = BroadcastConfig(
            n_nodes=64,
            n_agents=3,
            mobility="obstacle_walk",
            mobility_kwargs={"domain": ObstacleGrid.with_wall(8, gap_width=2)},
        )
        unit = _example_unit()
        unit = WorkUnit(**{**vars(unit), "payload": {"process": BroadcastProcess(config).spec}})
        with pytest.raises(ProtocolError, match="not JSON-able"):
            encode_unit(unit)

    def test_process_spec_requires_a_name(self):
        document = encode_unit(_example_unit())
        document["kind"] = "process"
        document["payload"] = {"process": {"kwargs": {}}}
        with pytest.raises(ProtocolError):
            decode_unit(document)


KEYS = st.text(min_size=1, max_size=32)
SMALL_DOCUMENTS = st.dictionaries(st.text(max_size=6), st.integers(), max_size=3)
LEASE_GRANTS = st.builds(LeaseGrant, key=KEYS, fingerprint=SMALL_DOCUMENTS, unit=SMALL_DOCUMENTS)
PUSH_ENTRIES = st.builds(PushEntry, key=KEYS, fingerprint=SMALL_DOCUMENTS, record=SMALL_DOCUMENTS)
PUSH_ACKS = st.builds(
    PushAck, key=KEYS, status=st.sampled_from(PushAck.STATUSES), error=st.text(max_size=40)
)

MESSAGES = st.one_of(
    st.builds(
        RegisterRequest,
        worker=st.text(min_size=1, max_size=12),
        pid=st.integers(0, 2**22),
        host=st.text(max_size=12),
    ),
    st.builds(
        RegisterResponse,
        worker=st.text(min_size=1, max_size=12),
        lease_ttl=st.floats(0.1, 600, allow_nan=False),
        poll_interval=st.floats(0.01, 10, allow_nan=False),
    ),
    st.builds(
        ClaimBatchRequest,
        worker=st.text(min_size=1, max_size=12),
        max_units=st.integers(1, 64),
    ),
    st.builds(
        ClaimBatchResponse,
        status=st.just("units"),
        leases=st.lists(LEASE_GRANTS, min_size=1, max_size=3).map(tuple),
        retry_after=st.floats(0, 10, allow_nan=False),
    ),
    st.builds(ClaimBatchResponse, status=st.sampled_from(["idle", "done"])),
    LEASE_GRANTS,
    st.builds(
        HeartbeatRequest,
        worker=st.text(min_size=1, max_size=12),
        keys=st.lists(KEYS, max_size=4).map(tuple),
    ),
    st.builds(
        FailureReport,
        worker=st.text(min_size=1, max_size=12),
        key=KEYS,
        error=st.text(max_size=40),
    ),
    PUSH_ENTRIES,
    st.builds(
        PushBatchRequest,
        worker=st.text(min_size=1, max_size=12),
        entries=st.lists(PUSH_ENTRIES, min_size=1, max_size=3).map(tuple),
    ),
    PUSH_ACKS,
    st.builds(PushBatchResponse, acks=st.lists(PUSH_ACKS, max_size=3).map(tuple)),
)


class TestMessageRoundTrip:
    @settings(max_examples=max_examples(100), deadline=None)
    @given(MESSAGES)
    def test_from_json_inverts_as_json_through_the_wire(self, message):
        assert type(message).from_json(wire_trip(message.as_json())) == message

    def test_claim_unit_requires_a_key(self):
        with pytest.raises(ProtocolError):
            LeaseGrant.from_json({"key": "", "fingerprint": {}, "unit": {}})
        # A "units" answer must carry at least one lease.
        with pytest.raises(ProtocolError):
            ClaimBatchResponse.from_json({"status": "units", "leases": []})

    def test_claim_status_is_validated(self):
        with pytest.raises(ProtocolError):
            ClaimBatchResponse.from_json({"status": "maybe"})
        lease = {"key": "k", "fingerprint": {}, "unit": {}}
        for status in ("idle", "done"):
            with pytest.raises(ProtocolError):
                ClaimBatchResponse.from_json({"status": status, "leases": [lease]})

    def test_claim_max_units_must_be_positive(self):
        for max_units in (0, -1):
            with pytest.raises(ProtocolError):
                ClaimBatchRequest.from_json({"worker": "w", "max_units": max_units})

    def test_push_entries_must_not_be_empty(self):
        with pytest.raises(ProtocolError):
            PushBatchRequest.from_json({"worker": "w", "entries": []})

    def test_push_status_is_validated(self):
        with pytest.raises(ProtocolError):
            PushAck.from_json({"key": "k", "status": "maybe"})

    def test_heartbeat_keys_must_be_strings(self):
        with pytest.raises(ProtocolError):
            HeartbeatRequest.from_json({"worker": "w", "keys": [1, 2]})

    def test_register_version_must_be_an_integer(self):
        with pytest.raises(ProtocolError):
            RegisterRequest.from_json({"worker": "w", "version": "1"})
