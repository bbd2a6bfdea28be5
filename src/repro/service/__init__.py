"""repro.service: a multi-tenant JouleGuard daemon.

One long-running process hosts many concurrent controller sessions —
each an independent :class:`~repro.core.jouleguard.JouleGuardRuntime` —
under one shared global energy budget, and speaks a small versioned
JSON-lines protocol over TCP or Unix sockets.  Learned state (SEO
tables, VDBE exploration, pole adaptation) can be snapshotted per
``(machine, app)`` pair and used to warm-start later sessions.

Layers, bottom to top:

* :mod:`~repro.service.protocol` — wire format, error codes, payload
  codecs;
* :mod:`~repro.service.state` — learned-state snapshots and the
  :class:`SnapshotStore`;
* :mod:`~repro.service.telemetry` — the daemon's metrics registry and
  event log (the :mod:`repro.obs` glue);
* :mod:`~repro.service.sessions` — the :class:`SessionManager`:
  admission control, the shared budget pool, cross-session rebalance,
  and the per-session enforcement ladder (:mod:`repro.enforce`);
* :mod:`~repro.service.transport` — the socket layer the daemon and
  the router share: line framing, ordered replies, pipelined worker
  channels;
* :mod:`~repro.service.server` — the asyncio daemon (:func:`serve`,
  :class:`ServerThread`);
* :mod:`~repro.service.client` — the blocking :class:`ServiceClient`
  and the :func:`run_load` load generator;
* :mod:`~repro.service.lease` / :mod:`~repro.service.shard` — the
  sharded deployment: a :class:`ShardRouter` consistent-hashing
  sessions onto pinned worker processes, with the shared budget kept
  coherent by the zero-sum :class:`LeaseLedger`.
"""

from .client import (
    BatchStepResult,
    LoadReport,
    OpenedSession,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    SessionKilledError,
    SessionRun,
    drive_synthetic_session,
    run_load,
)
from .lease import LeaseLedger, LedgerError
from .protocol import (
    ADMIN_TYPES,
    ERROR_CODES,
    MAX_BATCH_STEPS,
    PROTOCOL_VERSION,
    REQUEST_TYPES,
    SUPPORTED_VERSIONS,
    ProtocolError,
    batch_measurements_from_payload,
    decision_payload,
    decode_message,
    encode_message,
    error_response,
    measurement_from_payload,
    measurement_payload,
    negotiate_version,
    ok_response,
    parse_request,
    request_id_of,
    sensor_ok_from_payload,
)
from .server import RID_CACHE_MAX, ServerThread, ServiceServer, serve
from .sessions import (
    Session,
    SessionError,
    SessionKilled,
    SessionManager,
    plan_rebalance,
)
from .shard import (
    LEASE_FLOOR_J,
    ShardRouter,
    ShardThread,
    WorkerHandle,
    serve_sharded,
)
from .state import (
    STATE_VERSION,
    SnapshotError,
    SnapshotStore,
    SnapshotVersionError,
    apply_state,
    capture_state,
    dumps_state,
    loads_state,
    validate_state,
)
from .telemetry import ServiceTelemetry, SessionStepRecorder

__all__ = [
    "ADMIN_TYPES",
    "BatchStepResult",
    "ERROR_CODES",
    "LEASE_FLOOR_J",
    "LeaseLedger",
    "LedgerError",
    "LoadReport",
    "MAX_BATCH_STEPS",
    "OpenedSession",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REQUEST_TYPES",
    "RID_CACHE_MAX",
    "RetryPolicy",
    "STATE_VERSION",
    "SUPPORTED_VERSIONS",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ServiceTelemetry",
    "Session",
    "SessionError",
    "SessionKilled",
    "SessionKilledError",
    "SessionManager",
    "SessionRun",
    "SessionStepRecorder",
    "ShardRouter",
    "ShardThread",
    "SnapshotError",
    "SnapshotStore",
    "SnapshotVersionError",
    "WorkerHandle",
    "apply_state",
    "batch_measurements_from_payload",
    "capture_state",
    "decision_payload",
    "decode_message",
    "drive_synthetic_session",
    "dumps_state",
    "encode_message",
    "error_response",
    "loads_state",
    "measurement_from_payload",
    "measurement_payload",
    "negotiate_version",
    "ok_response",
    "parse_request",
    "plan_rebalance",
    "request_id_of",
    "run_load",
    "sensor_ok_from_payload",
    "serve",
    "serve_sharded",
    "validate_state",
]
