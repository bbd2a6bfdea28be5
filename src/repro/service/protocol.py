"""The JouleGuard service wire protocol (version 3).

Newline-delimited JSON over a stream socket (TCP or Unix): every
request and every response is one JSON object on one line.  Requests
carry a ``type`` and the fields of that operation; responses carry
``ok`` (bool) plus either the operation's payload or a structured
``error`` object::

    -> {"type": "hello", "version": 3}
    <- {"ok": true, "type": "hello", "version": 3, "sessions": 0}
    -> {"type": "open_session", "machine": "tablet", "app": "x264",
        "factor": 1.5, "total_work": 200, "seed": 7}
    <- {"ok": true, "type": "open_session", "session": "s000001",
        "warm": false, "granted_budget_j": 123.4, "decision": {...}}
    -> {"type": "step", "session": "s000001",
        "measurement": {"work": 1, "energy_j": 0.6,
                        "rate": 31.2, "power_w": 19.8}}
    <- {"ok": true, "type": "step", "decision": {...},
        "enforcement": {"tier": "nominal", "throttle_s": 0.0}}

Request types: ``hello``, ``open_session``, ``step``, ``batch_step``,
``report``, ``snapshot``, ``close``, ``metrics``, ``events``.  Error
codes are stable strings (:data:`ERROR_CODES`) so clients can branch
without parsing messages.  The protocol is versioned: ``hello``
negotiates a version out of :data:`SUPPORTED_VERSIONS`, and
learned-state snapshots embed their own format version
(:mod:`repro.service.state`).

Version 2 (enforcement + observability) adds the ``metrics`` and
``events`` verbs, the ``enforcement`` object on ``step`` responses,
and the ``killed`` step outcome: when the enforcement ladder
terminates a session, the step response carries ``killed: true`` plus
the final (budget-retired) session ``report`` instead of a decision;
clients surface that as the stable error code ``session_killed``.

Version 3 (sharding + throughput) adds

* **batched step frames** — ``batch_step`` carries up to
  :data:`MAX_BATCH_STEPS` measurements for one session and answers
  with one decision + enforcement entry per measurement, amortizing
  the per-heartbeat syscall and codec cost.  The whole batch is
  validated *before* any measurement is applied, so an error response
  (never rid-cached) always means no controller state changed; a
  mid-batch KILL truncates the result list with a terminal
  ``{"killed": true, "report": ...}`` entry and IS cached, like a
  single-step kill.
* **request pipelining** — a client may write several request lines
  before reading responses; the server answers strictly in request
  order, so responses are matched to requests by position (and by
  ``rid`` when retries are in play).  This is a usage contract, not a
  frame change: v3 servers guarantee ordered responses per connection.
* **version negotiation** — ``hello`` succeeds for any version in
  :data:`SUPPORTED_VERSIONS` and echoes the *negotiated* version, so
  v2 clients keep working against a v3 daemon (they simply never send
  ``batch_step``).

Encoding is canonical, and that is a contract: :func:`encode_message`
writes compact JSON with sorted keys, so one message has exactly one
encoding.  The shard router relies on it to pass worker replies back
without decoding them — it recognises an ok reply by its first key —
so a change to the key order or layout here changes what the router
relays.  The one encoder is built at import, not per message; it
writes the bytes ``json.dumps(..., separators=(",", ":"),
sort_keys=True)`` writes, and threads may share it (each
:meth:`json.JSONEncoder.encode` call keeps its own circular-reference
markers).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.jouleguard import Decision
from ..core.types import Measurement

__all__ = [
    "ADMIN_TYPES",
    "ERROR_CODES",
    "MAX_BATCH_STEPS",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "REQUEST_TYPES",
    "SUPPORTED_VERSIONS",
    "ProtocolError",
    "batch_measurements_from_payload",
    "decision_payload",
    "decode_message",
    "encode_message",
    "error_response",
    "measurement_from_payload",
    "measurement_payload",
    "negotiate_version",
    "ok_response",
    "parse_request",
    "request_id_of",
    "sensor_ok_from_payload",
]

#: Newest wire protocol version (what this codebase speaks natively).
PROTOCOL_VERSION = 3

#: Versions a v3 server still serves (v2 clients lack ``batch_step``).
SUPPORTED_VERSIONS = (2, 3)

#: Upper bound on one encoded message (enforced by the line transport).
MAX_LINE_BYTES = 1_000_000

#: Upper bound on measurements in one ``batch_step`` frame.
MAX_BATCH_STEPS = 256

#: The operations a client may request.
REQUEST_TYPES = (
    "hello",
    "open_session",
    "step",
    "batch_step",
    "report",
    "snapshot",
    "close",
    "metrics",
    "events",
    "admin_lease",
    "admin_rebalance_inputs",
    "admin_rebalance_apply",
)

#: Verbs only an admin-enabled listener (a shard worker) serves: the
#: router leases/reclaims budget and drives the global rebalance with
#: them.  A daemon facing untrusted clients keeps them disabled.
ADMIN_TYPES = (
    "admin_lease",
    "admin_rebalance_inputs",
    "admin_rebalance_apply",
)

#: Stable error codes carried in ``error.code``.
ERROR_CODES = (
    "bad_request",
    "unknown_type",
    "version_mismatch",
    "unknown_session",
    "infeasible_goal",
    "budget_exhausted",
    "unknown_application",
    "unknown_machine",
    "snapshot_mismatch",
    "session_killed",
    "unavailable",
    "internal",
)


class ProtocolError(Exception):
    """A malformed or unserviceable message, with a stable error code."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


# -- framing ------------------------------------------------------------------
#: The canonical encoder: compact separators, sorted keys.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def encode_message(payload: Mapping[str, Any]) -> bytes:
    """One protocol message: compact JSON plus the line terminator."""
    if type(payload) is not dict:
        payload = dict(payload)
    return _ENCODER.encode(payload).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a message object.

    Raises :class:`ProtocolError` (``bad_request``) on oversized lines,
    invalid JSON, or a non-object payload.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            "bad_request",
            f"message exceeds {MAX_LINE_BYTES} bytes",
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad_request", f"invalid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            "bad_request", "message must be a JSON object"
        )
    return message


def parse_request(message: Mapping[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Validate a request envelope; return ``(type, fields)``."""
    request_type = message.get("type")
    if not isinstance(request_type, str):
        raise ProtocolError("bad_request", "request needs a string 'type'")
    if request_type not in REQUEST_TYPES:
        raise ProtocolError(
            "unknown_type",
            f"unknown request type {request_type!r}; "
            f"expected one of {', '.join(REQUEST_TYPES)}",
        )
    fields = {
        key: value
        for key, value in message.items()
        if key not in ("type", "rid")
    }
    return request_type, fields


def request_id_of(message: Mapping[str, Any]) -> Optional[str]:
    """The request's idempotency id (``rid``), validated, or None.

    A client that retries after a lost response resends the *same*
    ``rid``; the server answers non-``hello`` retries from its response
    cache instead of re-executing them, which is what makes retrying a
    ``step`` safe (stepping a controller twice would corrupt its budget
    accounting).  Raises ``bad_request`` for a non-string or empty id.
    """
    rid = message.get("rid")
    if rid is None:
        return None
    if not isinstance(rid, str) or not rid or len(rid) > 128:
        raise ProtocolError(
            "bad_request",
            "'rid' must be a non-empty string of at most 128 chars",
        )
    return rid


def negotiate_version(requested: Any) -> int:
    """Settle the protocol version a ``hello`` asked for.

    Returns the negotiated version (the requested one — the server
    speaks every supported version natively) or raises
    ``version_mismatch`` for anything outside
    :data:`SUPPORTED_VERSIONS`.  A ``hello`` without a version gets
    the newest.
    """
    if requested is None:
        return PROTOCOL_VERSION
    if (
        isinstance(requested, bool)
        or not isinstance(requested, int)
        or requested not in SUPPORTED_VERSIONS
    ):
        supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
        raise ProtocolError(
            "version_mismatch",
            f"client speaks protocol {requested!r}; "
            f"server supports {supported}",
        )
    return requested


# -- envelopes ----------------------------------------------------------------
def ok_response(request_type: str, **fields: Any) -> Dict[str, Any]:
    """A success envelope echoing the request type."""
    response: Dict[str, Any] = {"ok": True, "type": request_type}
    response.update(fields)
    return response


def error_response(
    code: str,
    message: str,
    data: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """A structured error envelope.

    ``data``, when given, rides along as ``error.data`` — machine-
    readable context (e.g. ``needed_j``/``available_j`` on a
    ``budget_exhausted`` rejection, which the shard router uses to
    size a lease top-up).  Omitted entirely when empty, keeping
    pre-v3 error frames byte-identical.
    """
    if code not in ERROR_CODES:
        code, message = "internal", f"[{code}] {message}"
    error: Dict[str, Any] = {"code": code, "message": message}
    if data:
        error["data"] = dict(data)
    return {"ok": False, "error": error}


# -- payload codecs -----------------------------------------------------------
def measurement_payload(
    measurement: Measurement, sensor_ok: bool = True
) -> Dict[str, Any]:
    """Wire form of one heartbeat measurement.

    ``sensor_ok=False`` marks the heartbeat as carrying *held-over*
    estimates rather than trustworthy sensor readings (the client's
    power sensor is lost); the daemon degrades the session instead of
    feeding the learner unreliable feedback.  The flag is only encoded
    when False, keeping version-1 frames byte-identical for healthy
    heartbeats.
    """
    payload: Dict[str, Any] = {
        "work": measurement.work,
        "energy_j": measurement.energy_j,
        "rate": measurement.rate,
        "power_w": measurement.power_w,
    }
    if not sensor_ok:
        payload["sensor_ok"] = False
    return payload


def measurement_from_payload(payload: Any) -> Measurement:
    """Decode and validate a ``step`` request's measurement."""
    # The exact-type test first: a decoded line holds plain dicts, and
    # the ``Mapping`` ABC check costs more than the rest of the decode.
    if type(payload) is not dict and not isinstance(payload, Mapping):
        raise ProtocolError(
            "bad_request", "'measurement' must be an object"
        )
    try:
        return Measurement(
            work=float(payload["work"]),
            energy_j=float(payload["energy_j"]),
            rate=float(payload["rate"]),
            power_w=float(payload["power_w"]),
        )
    except KeyError as exc:
        raise ProtocolError(
            "bad_request", f"measurement is missing field {exc}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            "bad_request", f"invalid measurement: {exc}"
        ) from exc


def batch_measurements_from_payload(
    payload: Any,
) -> List[Tuple[Measurement, bool]]:
    """Decode and validate a ``batch_step`` request's measurement list.

    Validates *every* entry before returning, so the caller can apply
    the batch knowing no entry will fail validation halfway through —
    the property that makes whole-batch error responses (which are
    never rid-cached) safe: an error always means nothing was applied.
    """
    if not isinstance(payload, list):
        raise ProtocolError(
            "bad_request", "'measurements' must be an array"
        )
    if not payload:
        raise ProtocolError(
            "bad_request", "'measurements' must not be empty"
        )
    if len(payload) > MAX_BATCH_STEPS:
        raise ProtocolError(
            "bad_request",
            f"batch carries {len(payload)} measurements; "
            f"the limit is {MAX_BATCH_STEPS}",
        )
    entries: List[Tuple[Measurement, bool]] = []
    for index, entry in enumerate(payload):
        try:
            entries.append(
                (
                    measurement_from_payload(entry),
                    sensor_ok_from_payload(entry),
                )
            )
        except ProtocolError as exc:
            raise ProtocolError(
                exc.code, f"measurements[{index}]: {exc.message}"
            ) from exc
    return entries


def sensor_ok_from_payload(payload: Any) -> bool:
    """Whether a ``step`` measurement carries trustworthy sensor data."""
    if type(payload) is not dict and not isinstance(payload, Mapping):
        return True
    return bool(payload.get("sensor_ok", True))


def decision_payload(decision: Decision) -> Dict[str, Any]:
    """Wire form of one runtime decision.

    Carries everything a client needs to *actuate*: the system
    configuration index, and the application configuration's index,
    speedup, accuracy, and power factor (the client owns the actual
    knobs; the daemon only decides).
    """
    app_config = decision.app_config
    return {
        "system_index": decision.system_index,
        "app_index": getattr(app_config, "index", -1),
        "app_speedup": app_config.speedup,
        "app_accuracy": app_config.accuracy,
        "app_power_factor": getattr(app_config, "power_factor", 1.0),
        "speedup_setpoint": decision.speedup_setpoint,
        "pole": decision.pole,
        "epsilon": decision.epsilon,
        "explored": decision.explored,
        "feasible": decision.feasible,
    }
