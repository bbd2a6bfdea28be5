"""Wire-protocol framing, envelopes, and payload codecs."""

import json

import pytest

from repro.core.types import Measurement
from repro.service.protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    REQUEST_TYPES,
    ProtocolError,
    decision_payload,
    decode_message,
    encode_message,
    error_response,
    measurement_from_payload,
    measurement_payload,
    ok_response,
    parse_request,
)


class TestFraming:
    def test_round_trip(self):
        message = {"type": "hello", "version": PROTOCOL_VERSION}
        line = encode_message(message)
        assert line.endswith(b"\n")
        assert decode_message(line) == message

    def test_one_line_per_message(self):
        line = encode_message({"a": "x", "b": [1, 2]})
        assert line.count(b"\n") == 1

    def test_compact_and_sorted(self):
        line = encode_message({"b": 1, "a": 2})
        assert line == b'{"a":2,"b":1}\n'

    def test_rejects_invalid_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_message(b"{nope\n")
        assert excinfo.value.code == "bad_request"

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2]\n")

    def test_rejects_oversized_line(self):
        blob = b'"' + b"x" * MAX_LINE_BYTES + b'"\n'
        with pytest.raises(ProtocolError):
            decode_message(blob)


class TestRequestEnvelope:
    def test_parse_splits_type_and_fields(self):
        kind, fields = parse_request(
            {"type": "step", "session": "s1", "measurement": {}}
        )
        assert kind == "step"
        assert fields == {"session": "s1", "measurement": {}}

    def test_every_request_type_parses(self):
        for kind in REQUEST_TYPES:
            assert parse_request({"type": kind}) == (kind, {})

    def test_unknown_type(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"type": "dance"})
        assert excinfo.value.code == "unknown_type"

    def test_missing_type(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"session": "s1"})
        assert excinfo.value.code == "bad_request"


class TestResponses:
    def test_ok_envelope(self):
        response = ok_response("hello", version=1)
        assert response == {"ok": True, "type": "hello", "version": 1}

    def test_error_envelope_is_structured(self):
        response = error_response("unknown_session", "gone")
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown_session"

    def test_unknown_code_degrades_to_internal(self):
        response = error_response("martian", "what")
        assert response["error"]["code"] == "internal"
        assert "martian" in response["error"]["message"]

    def test_protocol_error_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            ProtocolError("martian", "nope")

    def test_error_codes_are_unique(self):
        assert len(set(ERROR_CODES)) == len(ERROR_CODES)


class TestMeasurementCodec:
    def test_round_trip(self):
        measurement = Measurement(
            work=1.0, energy_j=0.5, rate=30.0, power_w=15.0
        )
        payload = measurement_payload(measurement)
        json.dumps(payload)  # must be JSON-able
        assert measurement_from_payload(payload) == measurement

    def test_missing_field(self):
        with pytest.raises(ProtocolError) as excinfo:
            measurement_from_payload({"work": 1.0})
        assert "energy_j" in str(excinfo.value)

    def test_non_object(self):
        with pytest.raises(ProtocolError):
            measurement_from_payload([1, 2, 3])

    def test_non_numeric_field(self):
        with pytest.raises(ProtocolError):
            measurement_from_payload(
                {"work": 1, "energy_j": "a lot", "rate": 1, "power_w": 1}
            )


def _decision():
    from repro.apps.base import AppConfig
    from repro.core.jouleguard import Decision

    config = AppConfig(index=3, speedup=1.75, accuracy=0.9125)
    return Decision(
        system_index=17,
        app_config=config,
        speedup_setpoint=1.2345678901234567,
        pole=0.1,
        epsilon=1e-07,
        explored=False,
        feasible=True,
    )


_DECISION_BYTES = (
    b'{"app_accuracy":0.9125,"app_index":3,"app_power_factor":1.0,'
    b'"app_speedup":1.75,"epsilon":1e-07,"explored":false,'
    b'"feasible":true,"pole":0.1,"speedup_setpoint":1.2345678901234567,'
    b'"system_index":17}'
)


class TestWireBytes:
    """The exact bytes of each reply shape, built as the daemon builds it.

    The shard router relays ok step and close replies by their first
    key, and clients compare replies byte for byte, so these pins hold
    whatever encoder writes them.
    """

    def test_step_reply(self):
        reply = ok_response(
            "step",
            decision=decision_payload(_decision()),
            enforcement={"tier": "nominal", "throttle_s": 0.0},
        )
        assert encode_message(dict(reply, rid="r-é")) == (
            b'{"decision":' + _DECISION_BYTES + b','
            b'"enforcement":{"throttle_s":0.0,"tier":"nominal"},'
            b'"ok":true,"rid":"r-\\u00e9","type":"step"}\n'
        )

    def test_killed_step_reply(self):
        reply = ok_response(
            "step",
            killed=True,
            report={
                "session": "w0e0-s000002",
                "steps": 41,
                "energy_used_j": 12.5,
                "tier": "kill",
            },
            enforcement={"tier": "kill", "throttle_s": 0.0},
        )
        assert encode_message(reply) == (
            b'{"enforcement":{"throttle_s":0.0,"tier":"kill"},'
            b'"killed":true,"ok":true,"report":{"energy_used_j":12.5,'
            b'"session":"w0e0-s000002","steps":41,"tier":"kill"},'
            b'"type":"step"}\n'
        )

    def test_open_session_reply(self):
        reply = ok_response(
            "open_session",
            session="w0e0-s000001",
            warm=False,
            granted_budget_j=123.456,
            decision=decision_payload(_decision()),
        )
        assert encode_message(reply) == (
            b'{"decision":' + _DECISION_BYTES + b','
            b'"granted_budget_j":123.456,"ok":true,'
            b'"session":"w0e0-s000001","type":"open_session",'
            b'"warm":false}\n'
        )

    def test_batch_step_reply(self):
        reply = ok_response(
            "batch_step",
            results=[
                {
                    "decision": decision_payload(_decision()),
                    "enforcement": {"tier": "throttle", "throttle_s": 0.25},
                },
                {
                    "killed": True,
                    "report": {"steps": 2},
                    "enforcement": {"tier": "kill", "throttle_s": 0.0},
                },
            ],
            completed=2,
            killed=True,
            enforcement={"tier": "kill", "throttle_s": 0.25},
        )
        assert encode_message(reply) == (
            b'{"completed":2,"enforcement":{"throttle_s":0.25,'
            b'"tier":"kill"},"killed":true,"ok":true,"results":['
            b'{"decision":' + _DECISION_BYTES + b','
            b'"enforcement":{"throttle_s":0.25,"tier":"throttle"}},'
            b'{"enforcement":{"throttle_s":0.0,"tier":"kill"},'
            b'"killed":true,"report":{"steps":2}}],'
            b'"type":"batch_step"}\n'
        )

    def test_error_envelope_with_data(self):
        reply = error_response(
            "budget_exhausted",
            "needs 1e+300 J — only 0.25 J free",
            {"needed_j": 1e300, "available_j": 0.25},
        )
        assert encode_message(reply) == (
            b'{"error":{"code":"budget_exhausted","data":'
            b'{"available_j":0.25,"needed_j":1e+300},'
            b'"message":"needs 1e+300 J \\u2014 only 0.25 J free"},'
            b'"ok":false}\n'
        )

    def test_threads_sharing_the_encoder_write_the_same_bytes(self):
        # The encoder is built once and shared by every thread that
        # encodes (the client and the load generator use several).
        import threading

        nested = {"deep": [{"k": [i, {"v": i / 7}]} for i in range(50)]}
        payloads = [
            dict(nested, n=n, text="é" * n) for n in range(40)
        ]
        expected = [encode_message(p) for p in payloads]
        results = {}
        errors = []
        start = threading.Barrier(4)

        def encode_all(worker):
            try:
                start.wait()
                results[worker] = [
                    [encode_message(p) for p in payloads]
                    for _ in range(25)
                ]
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=encode_all, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for rounds in results.values():
            for got in rounds:
                assert got == expected
