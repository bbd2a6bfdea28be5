"""Property-based tests (hypothesis) on the service wire protocol.

The codec invariants the daemon's liveness rests on: every encodable
message round-trips bit-exactly through one frame, and *no* byte
sequence a client can send produces anything but a well-formed message
or a stable ``bad_request`` error — the dispatcher never sees garbage
and the connection loop never dies on a malformed frame.
"""

import json
import math
from collections import OrderedDict
from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Measurement
from repro.service.protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    REQUEST_TYPES,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    measurement_from_payload,
    measurement_payload,
    parse_request,
    request_id_of,
)

# -- strategies ----------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)

messages = st.dictionaries(st.text(max_size=20), json_values, max_size=8)

finite_positive = st.floats(
    min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False
)

measurements = st.builds(
    Measurement,
    work=finite_positive,
    energy_j=finite_positive,
    rate=finite_positive,
    power_w=finite_positive,
)


# -- framing round trip --------------------------------------------------------


@given(messages)
def test_encode_decode_round_trip(message):
    assert decode_message(encode_message(message)) == message


@given(messages)
def test_encoding_is_one_complete_line(message):
    frame = encode_message(message)
    assert frame.endswith(b"\n")
    assert b"\n" not in frame[:-1]


@given(messages)
def test_encoding_is_canonical(message):
    # Key order in the input never changes the bytes on the wire.
    shuffled = dict(reversed(list(message.items())))
    assert encode_message(message) == encode_message(shuffled)


class _View(Mapping):
    """A read-only Mapping that is not a dict."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


# Every float the encoder may meet, the non-finite ones included: a
# daemon never sends them, but the encoder must not change what it
# would write for them.
wire_floats = st.one_of(
    st.floats(),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 1e300, -1.7976931348623157e308,
         5e-324, 1e16, 0.1]
    ),
)

wire_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        wire_floats,
        st.text(max_size=20),  # any code point, non-ASCII included
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)

wire_payloads = st.dictionaries(
    st.text(max_size=20), wire_values, max_size=8
).flatmap(
    lambda items: st.sampled_from(
        [items, OrderedDict(items), MappingProxyType(items), _View(items)]
    )
)


@given(wire_payloads)
def test_encoding_is_json_dumps_compact_and_sorted(payload):
    # The encoder built once writes what a per-call json.dumps wrote.
    expected = json.dumps(
        dict(payload), separators=(",", ":"), sort_keys=True
    ).encode() + b"\n"
    assert encode_message(payload) == expected


# -- malformed frames ----------------------------------------------------------


@given(st.binary(max_size=200))
def test_arbitrary_bytes_decode_or_raise_bad_request(data):
    try:
        message = decode_message(data)
    except ProtocolError as exc:
        assert exc.code == "bad_request"
    else:
        assert isinstance(message, dict)


@given(json_values)
def test_non_object_payloads_rejected(value):
    line = json.dumps(value).encode() + b"\n"
    if isinstance(value, dict):
        assert decode_message(line) == value
    else:
        with pytest.raises(ProtocolError) as excinfo:
            decode_message(line)
        assert excinfo.value.code == "bad_request"


def test_oversized_line_rejected_before_parsing():
    with pytest.raises(ProtocolError) as excinfo:
        decode_message(b" " * (MAX_LINE_BYTES + 1))
    assert excinfo.value.code == "bad_request"


@given(messages)
def test_parse_request_total_over_arbitrary_messages(message):
    # parse_request either yields a known type or a coded error; it
    # must never raise anything else, whatever the envelope holds.
    try:
        request_type, fields = parse_request(message)
    except ProtocolError as exc:
        assert exc.code in ("bad_request", "unknown_type")
    else:
        assert request_type in REQUEST_TYPES
        assert "type" not in fields and "rid" not in fields


# -- error envelope stability --------------------------------------------------


@given(st.text(max_size=30), st.text(max_size=100))
def test_error_envelope_always_well_formed(code, message):
    envelope = error_response(code, message)
    assert envelope["ok"] is False
    assert envelope["error"]["code"] in ERROR_CODES
    # Unknown codes collapse to "internal" but keep the original code
    # visible in the message for debugging.
    if code not in ERROR_CODES:
        assert envelope["error"]["code"] == "internal"
        assert code in envelope["error"]["message"]
    # The envelope itself must survive the wire.
    assert decode_message(encode_message(envelope)) == envelope


# -- request ids ---------------------------------------------------------------


@given(st.text(min_size=1, max_size=128))
def test_valid_rid_passes_through(rid):
    assert request_id_of({"rid": rid}) == rid


@given(json_values)
def test_rid_validation_is_total(value):
    message = {"rid": value}
    if value is None:
        assert request_id_of(message) is None
    elif isinstance(value, str) and 1 <= len(value) <= 128:
        assert request_id_of(message) == value
    else:
        with pytest.raises(ProtocolError) as excinfo:
            request_id_of(message)
        assert excinfo.value.code == "bad_request"


# -- measurement codec ---------------------------------------------------------


@given(measurements)
@settings(max_examples=50)
def test_measurement_round_trip(measurement):
    decoded = measurement_from_payload(
        measurement_payload(measurement)
    )
    assert math.isclose(decoded.work, measurement.work)
    assert math.isclose(decoded.energy_j, measurement.energy_j)
    assert math.isclose(decoded.rate, measurement.rate)
    assert math.isclose(decoded.power_w, measurement.power_w)


@given(measurements)
@settings(max_examples=50)
def test_measurement_survives_the_wire(measurement):
    payload = measurement_payload(measurement)
    revived = decode_message(encode_message(payload))
    decoded = measurement_from_payload(revived)
    assert decoded == measurement_from_payload(payload)


@given(json_values)
def test_measurement_decoder_is_total(payload):
    # Any JSON value either decodes to a Measurement or raises the
    # stable bad_request error — never a bare KeyError/TypeError.
    try:
        decoded = measurement_from_payload(payload)
    except ProtocolError as exc:
        assert exc.code == "bad_request"
    else:
        assert isinstance(decoded, Measurement)


# -- protocol v3: batch codec, negotiation, pipelining -------------------------

import math as _math

from repro.service.protocol import (
    MAX_BATCH_STEPS,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    batch_measurements_from_payload,
    sensor_ok_from_payload,
)

batch_entries = st.lists(
    st.tuples(measurements, st.booleans()), min_size=1, max_size=12
)


@given(batch_entries)
@settings(max_examples=50)
def test_batch_codec_round_trips_entrywise(entries):
    payload = [
        measurement_payload(measurement, sensor_ok=flag)
        for measurement, flag in entries
    ]
    decoded = batch_measurements_from_payload(payload)
    assert len(decoded) == len(entries)
    for (measurement, flag), (revived, revived_flag) in zip(
        entries, decoded
    ):
        assert revived_flag == flag
        assert _math.isclose(revived.work, measurement.work)
        assert _math.isclose(revived.energy_j, measurement.energy_j)
        assert _math.isclose(revived.rate, measurement.rate)
        assert _math.isclose(revived.power_w, measurement.power_w)


@given(batch_entries, st.data())
@settings(max_examples=50)
def test_batch_validation_names_the_first_bad_entry(entries, data):
    payload = [
        measurement_payload(measurement, sensor_ok=flag)
        for measurement, flag in entries
    ]
    position = data.draw(
        st.integers(min_value=0, max_value=len(payload) - 1)
    )
    payload[position] = {"work": 1.0}  # missing required fields
    with pytest.raises(ProtocolError) as excinfo:
        batch_measurements_from_payload(payload)
    assert excinfo.value.code == "bad_request"
    assert f"measurements[{position}]:" in excinfo.value.message


@given(json_values)
def test_batch_decoder_is_total(payload):
    # Like the single-measurement decoder: any JSON either decodes or
    # raises the stable bad_request error, never a bare TypeError.
    try:
        decoded = batch_measurements_from_payload(payload)
    except ProtocolError as exc:
        assert exc.code == "bad_request"
    else:
        assert 1 <= len(decoded) <= MAX_BATCH_STEPS


def test_batch_size_limits():
    one = measurement_payload(
        Measurement(work=1.0, energy_j=1.0, rate=1.0, power_w=1.0)
    )
    with pytest.raises(ProtocolError):
        batch_measurements_from_payload([])
    with pytest.raises(ProtocolError):
        batch_measurements_from_payload([one] * (MAX_BATCH_STEPS + 1))
    assert len(
        batch_measurements_from_payload([one] * MAX_BATCH_STEPS)
    ) == MAX_BATCH_STEPS


@given(json_values)
def test_version_negotiation_is_total(requested):
    # Every JSON value either negotiates to a supported version or
    # raises the stable version_mismatch error.
    from repro.service.protocol import negotiate_version

    try:
        negotiated = negotiate_version(requested)
    except ProtocolError as exc:
        assert exc.code == "version_mismatch"
        assert requested is not None
    else:
        assert negotiated in SUPPORTED_VERSIONS
        if requested is None:
            assert negotiated == PROTOCOL_VERSION
        else:
            assert negotiated == requested


@given(
    st.sampled_from(ERROR_CODES),
    st.text(max_size=60),
    st.dictionaries(
        st.text(min_size=1, max_size=10),
        st.floats(allow_nan=False, allow_infinity=False),
        max_size=4,
    ),
)
def test_error_data_rides_only_when_present(code, message, data):
    with_data = error_response(code, message, data)
    without = error_response(code, message)
    # Empty data keeps the frame byte-identical to a pre-v3 error.
    assert "data" not in without["error"]
    if data:
        assert with_data["error"]["data"] == dict(data)
    else:
        assert encode_message(with_data) == encode_message(without)
    assert decode_message(encode_message(with_data)) == with_data


@given(st.sampled_from([True, False, 0.5, "3", [3], {}]))
def test_non_integer_versions_are_refused(requested):
    from repro.service.protocol import negotiate_version

    with pytest.raises(ProtocolError) as excinfo:
        negotiate_version(requested)
    assert excinfo.value.code == "version_mismatch"


# -- pipelining and idempotency against a live daemon --------------------------

from hypothesis import HealthCheck

from repro.service import (
    ServerThread,
    ServiceClient,
    SessionManager,
)


@pytest.fixture(scope="module")
def live_daemon(tmp_path_factory):
    sock = str(tmp_path_factory.mktemp("props") / "jg.sock")
    manager = SessionManager(global_budget_j=1e8)
    with ServerThread(manager, unix_path=sock):
        yield sock


#: Pipelined verbs whose responses are recognizable without state:
#: each maps to a predicate over the response envelope.
_PIPELINE_VERBS = {
    "hello": lambda r: r.get("ok") and r.get("type") == "hello",
    "metrics": lambda r: r.get("ok") and r.get("type") == "metrics",
    "events": lambda r: r.get("ok") and r.get("type") == "events",
    "bogus": lambda r: (
        not r.get("ok")
        and r["error"]["code"] == "unknown_type"
    ),
    "report": lambda r: (
        not r.get("ok")
        and r["error"]["code"] == "unknown_session"
    ),
}


def _pipeline_request(verb):
    if verb == "bogus":
        return {"type": "no_such_verb"}
    if verb == "report":
        return {"type": "report", "session": "never-opened"}
    return {"type": verb}


@given(
    st.lists(
        st.sampled_from(sorted(_PIPELINE_VERBS)),
        min_size=1,
        max_size=10,
    )
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_pipelined_responses_arrive_in_request_order(live_daemon, verbs):
    # The v3 ordering contract: K requests written back-to-back are
    # answered positionally — error envelopes included, so a failure
    # mid-pipeline cannot shift later responses out of alignment.
    with ServiceClient(unix_path=live_daemon) as client:
        responses = client.request_pipeline(
            [_pipeline_request(verb) for verb in verbs]
        )
    assert len(responses) == len(verbs)
    for verb, response in zip(verbs, responses):
        assert _PIPELINE_VERBS[verb](response), (verb, response)


def test_errors_are_never_rid_cached(live_daemon):
    # A failed request under rid R must not poison R: the retry that
    # follows (same rid, now-valid request) executes for real, and
    # only *its* ok response is replayed thereafter.
    with ServiceClient(unix_path=live_daemon) as client:
        failed = client.request_pipeline(
            [{"type": "report", "session": "ghost", "rid": "rid-x"}]
        )[0]
        assert not failed["ok"] and "rid" not in failed
        opened = client.request_pipeline([
            {
                "type": "open_session", "machine": "tablet",
                "app": "x264", "factor": 1.5, "total_work": 50.0,
                "seed": 0, "rid": "rid-x",
            },
        ])[0]
        assert opened["ok"] and opened["rid"] == "rid-x"
        replayed = client.request_pipeline([
            {
                "type": "open_session", "machine": "tablet",
                "app": "x264", "factor": 1.5, "total_work": 50.0,
                "seed": 0, "rid": "rid-x",
            },
        ])[0]
        # Byte-for-byte the cached response: same session id, not a
        # second admission.
        assert replayed == opened
        client.close(opened["session"])


def test_v2_clients_are_still_served(live_daemon):
    with ServiceClient(unix_path=live_daemon, handshake=False) as client:
        greeted = client.request({"type": "hello", "version": 2})
        assert greeted["version"] == 2
        refused = client.request_pipeline(
            [{"type": "hello", "version": 1}]
        )[0]
        assert not refused["ok"]
        assert refused["error"]["code"] == "version_mismatch"
