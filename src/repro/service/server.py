"""The JouleGuard daemon: an asyncio JSON-lines server.

One process hosts one :class:`~repro.service.sessions.SessionManager`
and serves the :mod:`repro.service.protocol` over TCP and/or a Unix
socket.  All session state lives on the event loop thread; request
handling is synchronous between awaits, so no locking is needed.  A
background reaper closes idle sessions on a fixed cadence.

Three entry points:

* :class:`ServiceServer` — the asyncio server object (``await
  server.start()`` inside a running loop);
* :func:`serve` — blocking convenience for the CLI (``python -m repro
  serve``), runs until interrupted;
* :class:`ServerThread` — context manager running a daemon in a
  background thread, for tests, benchmarks, and notebooks.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Awaitable,
    Callable,
    Dict,
    Optional,
    Union,
    cast,
)

from ..obs.http import MetricsHTTPServer
from .protocol import (
    ProtocolError,
    batch_measurements_from_payload,
    decision_payload,
    decode_message,
    error_response,
    measurement_from_payload,
    negotiate_version,
    ok_response,
    parse_request,
    request_id_of,
    sensor_ok_from_payload,
)
from .sessions import SessionError, SessionKilled, SessionManager
from .transport import LineServer, LoopThread

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.models import RequestChaos

__all__ = [
    "RID_CACHE_MAX",
    "RidCache",
    "ServerThread",
    "ServiceServer",
    "serve",
]

#: Upper bound on cached idempotent responses (oldest evicted first).
RID_CACHE_MAX = 1024

#: An answer to one request line: a response dict, or (shard router
#: only) a worker's ok reply line relayed as it came.
Response = Union[Dict[str, Any], bytes]


class RidCache:
    """The rid contract: a request carrying a ``rid`` executes once.

    The first execution's ok reply is kept in an LRU of
    :data:`RID_CACHE_MAX` entries and a retried rid is answered from
    it (:meth:`replay`) without re-executing.  Error envelopes are
    never cached: a retry should re-attempt the operation, since the
    failure may have been transient.  A dict reply is cached stamped
    with its rid; a relayed ``bytes`` reply already carries it and is
    cached as it came.

    The daemon answers each line without awaiting, so a duplicate
    runs wholly before or after its original: :meth:`replay` and
    :meth:`store` are all it needs.  The shard router suspends at the
    worker round-trip, so it goes through :meth:`run`, which also
    *reserves* the rid for the length of the execution: a duplicate
    arriving meanwhile (a client that timed out and reconnected)
    awaits the original's reply instead of re-executing a
    non-idempotent verb like ``step``.
    """

    def __init__(self) -> None:
        #: rid → cached ok reply, least recently used first.
        self.replies: "OrderedDict[str, Response]" = OrderedDict()
        #: rid → the reply of the execution holding its reservation.
        self.inflight: Dict[str, "asyncio.Future[Response]"] = {}
        #: Requests answered from a cached or in-flight reply.
        self.replayed = 0

    def replay(self, rid: str) -> Optional[Response]:
        """The cached reply to ``rid``, counted as a replay, or ``None``."""
        reply = self.replies.get(rid)
        if reply is not None:
            self.replayed += 1
            self.replies.move_to_end(rid)
        return reply

    def store(self, rid: str, response: Response) -> Response:
        """Cache an ok ``response`` to ``rid``; return the one to send."""
        if isinstance(response, dict):
            if not response.get("ok", False):
                return response
            response = dict(response, rid=rid)
        self.replies[rid] = response
        while len(self.replies) > RID_CACHE_MAX:
            self.replies.popitem(last=False)
        return response

    async def run(
        self, rid: str, execute: Callable[[], Awaitable[Response]]
    ) -> Response:
        """Answer ``rid`` from the cache, its reservation, or ``execute``.

        A reservation lives only as long as the execution holding it:
        when that is cancelled (the transport cancels a dispatch the
        moment its client vanishes), the reservation expires and the
        duplicates parked on it wake, re-check the cache and the
        reservations, and the first of them executes afresh; the rest
        park on that execution.  The router does not cancel an
        execution that has sent its request to a worker, so that
        reservation holds until the reply is cached.
        """
        while True:
            reply = self.replay(rid)
            if reply is not None:
                return reply
            inflight = self.inflight.get(rid)
            if inflight is None:
                break
            self.replayed += 1
            try:
                return await asyncio.shield(inflight)
            except asyncio.CancelledError:
                if not inflight.cancelled():
                    raise
                # The original execution was abandoned.  Loop to
                # re-check: another parked duplicate may have
                # re-reserved the rid first, and a second execution
                # would double-step the session.
        future: "asyncio.Future[Response]" = (
            asyncio.get_running_loop().create_future()
        )
        self.inflight[rid] = future
        try:
            response = self.store(rid, await execute())
            if not future.done():
                future.set_result(response)
            return response
        finally:
            if self.inflight.get(rid) is future:
                del self.inflight[rid]
            if not future.done():
                # Cancelled mid-execution: wake the parked duplicates
                # rather than leaving them parked forever.
                future.cancel()


class ServiceServer(LineServer):
    """Serves one :class:`SessionManager` over TCP and/or Unix sockets.

    Parameters
    ----------
    manager:
        The session manager to expose.
    host / port:
        TCP listening address; ``port=0`` picks a free port (see
        :attr:`tcp_address` after :meth:`start`).  ``host=None``
        disables TCP.
    unix_path:
        Unix-socket path; ``None`` disables the Unix listener.
    reap_interval_s:
        Cadence of the idle-session reaper.
    chaos:
        Optional :class:`~repro.faults.models.RequestChaos` injecting
        deterministic request/response drops and delays in front of the
        dispatcher (fault-injection testing only; ``None`` in
        production).
    metrics_host / metrics_port:
        When ``metrics_host`` is given, an HTTP endpoint serving
        ``GET /metrics`` (Prometheus text format, from the manager's
        telemetry registry) is hosted alongside the protocol listeners;
        ``metrics_port=0`` picks a free port (see
        :attr:`metrics_address` after :meth:`start`).
    admin:
        Serve the ``admin_*`` verbs (protocol v3) the shard router
        uses to lease budget and drive the global rebalance.  Enabled
        only on shard workers, whose sockets face the router rather
        than untrusted clients.
    """

    def __init__(
        self,
        manager: SessionManager,
        host: Optional[str] = None,
        port: int = 0,
        unix_path: Optional[str] = None,
        reap_interval_s: float = 5.0,
        chaos: Optional["RequestChaos"] = None,
        metrics_host: Optional[str] = None,
        metrics_port: int = 0,
        admin: bool = False,
    ) -> None:
        super().__init__(host, port, unix_path, metrics_host, metrics_port)
        if reap_interval_s <= 0:
            raise ValueError("reap interval must be positive")
        self.manager = manager
        self.reap_interval_s = reap_interval_s
        self.chaos = chaos
        self.admin = admin
        self._metrics_http: Optional[MetricsHTTPServer] = None
        self._reaper: Optional[asyncio.Task] = None
        self.rids = RidCache()
        self.chaos_dropped_requests = 0
        self.chaos_dropped_responses = 0

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        """Bind listeners and start the reaper (loop must be running)."""
        await self._listen(self.port)
        if self.metrics_host is not None:
            self._metrics_http = MetricsHTTPServer(
                self.manager.telemetry.registry,
                host=self.metrics_host,
                port=self.metrics_port,
            )
            await self._metrics_http.start()
            self.metrics_port = self._metrics_http.address[1]
        self._reaper = asyncio.get_running_loop().create_task(
            self._reap_forever()
        )

    async def aclose(self) -> None:
        """Stop listeners, live connections, the reaper; close sessions.

        The handles are captured and cleared *before* any await
        (jgflow JGF101): a second ``aclose`` racing this one on the
        event loop then sees ``None`` everywhere and is a no-op,
        instead of cancelling/closing the same handles twice.
        """
        reaper, self._reaper = self._reaper, None
        metrics_http, self._metrics_http = self._metrics_http, None
        if reaper is not None:
            reaper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await reaper
        await self._close_listeners()
        if metrics_http is not None:
            await metrics_http.aclose()
        self.manager.close_all()

    async def _reap_forever(self) -> None:
        while True:
            await asyncio.sleep(self.reap_interval_s)
            self.manager.reap_idle()

    # -- connection handling ---------------------------------------------------
    def _serve_line(self, line: bytes) -> Any:
        """Answer inline, or hand the transport an awaitable."""
        response = None
        if self.chaos is None:
            response = self.handle_line(line)
            if _throttle_of(response) <= 0.0:
                return response
        return self._serve_suspended(line, response)

    async def _serve_suspended(
        self, line: bytes, response: Optional[Dict[str, Any]]
    ) -> Optional[Dict[str, Any]]:
        """Chaos and THROTTLE holds; ``None`` hangs up."""
        if response is None:
            action = "deliver"
            if self.chaos is not None:
                action = self.chaos.on_request()
                delay_s = self.chaos.delay_for()
                if delay_s > 0.0:
                    await asyncio.sleep(delay_s)
            if action == "drop_request":
                # The request "never arrived": no processing, and the
                # connection dies so the client sees it closed.
                self.chaos_dropped_requests += 1
                return None
            response = self.handle_line(line)
            if action == "drop_response":
                # Processed, but the answer is "lost on the wire".
                # The rid cache is what lets a retry recover this.
                self.chaos_dropped_responses += 1
                return None
        # THROTTLE tier: duty-cycle the session's step loop by holding
        # the response back; later lines on this connection wait too.
        throttle_s = _throttle_of(response)
        if throttle_s > 0.0:
            await asyncio.sleep(throttle_s)
        return response

    # -- dispatch (synchronous: one request, one response) ---------------------
    def handle_line(self, line: bytes) -> Dict[str, Any]:
        """Decode, dispatch, and answer one request line.

        A request carrying a ``rid`` is idempotent under the
        :class:`RidCache` contract; nothing here awaits, so a duplicate
        rid needs no in-flight reservation.
        """
        started_s = time.perf_counter()
        request_type = "invalid"
        rid: Optional[str] = None
        try:
            message = decode_message(line)
            rid = request_id_of(message)
            if rid is not None:
                cached = self.rids.replay(rid)
                if cached is not None:
                    return cast(Dict[str, Any], cached)
            request_type, fields = parse_request(message)
            response = self._dispatch(request_type, fields)
        except Exception as exc:  # daemon must answer every request
            response = _error_envelope(exc)
        ok = bool(response.get("ok", False))
        if ok and rid is not None:
            response = cast(Dict[str, Any], self.rids.store(rid, response))
        self.manager.telemetry.record_request(
            request_type, ok, time.perf_counter() - started_s
        )
        return response

    def _dispatch(
        self, request_type: str, fields: Dict[str, Any]
    ) -> Dict[str, Any]:
        handler = getattr(self, f"_handle_{request_type}")
        return handler(fields)

    def _handle_hello(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        version = negotiate_version(fields.get("version"))
        return ok_response(
            "hello",
            version=version,
            server="repro.service",
            **self.manager.stats(),
        )

    def _handle_open_session(
        self, fields: Dict[str, Any]
    ) -> Dict[str, Any]:
        try:
            machine = str(fields["machine"])
            app = str(fields["app"])
            factor = float(fields["factor"])
            total_work = float(fields["total_work"])
        except KeyError as exc:
            raise ProtocolError(
                "bad_request", f"open_session is missing field {exc}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                "bad_request", f"invalid open_session field: {exc}"
            ) from exc
        if not (math.isfinite(factor) and math.isfinite(total_work)):
            raise ProtocolError(
                "bad_request",
                "open_session 'factor' and 'total_work' must be finite",
            )
        seed = fields.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ProtocolError(
                "bad_request", "'seed' must be an integer"
            )
        session = self.manager.open_session(
            machine_name=machine,
            app_name=app,
            factor=factor,
            total_work=total_work,
            seed=seed,
            warm_start=bool(fields.get("warm_start", True)),
            client=str(fields.get("client", "")),
        )
        return ok_response(
            "open_session",
            session=session.session_id,
            warm=session.warm_started,
            granted_budget_j=session.granted_budget_j,
            decision=decision_payload(session.decision),
        )

    def _require_session(self, fields: Dict[str, Any]) -> str:
        session_id = fields.get("session")
        if not isinstance(session_id, str):
            raise ProtocolError(
                "bad_request", "request needs a string 'session'"
            )
        return session_id

    def _handle_step(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        session_id = self._require_session(fields)
        payload = fields.get("measurement")
        measurement = measurement_from_payload(payload)
        try:
            decision = self.manager.step(
                session_id,
                measurement,
                sensor_ok=sensor_ok_from_payload(payload),
            )
        except SessionKilled as exc:
            # The kill already closed the session and retired its
            # budget; answer ok (and rid-cacheable, so a retried step
            # replays the same outcome) with the final report.
            return ok_response(
                "step",
                killed=True,
                report=exc.report,
                enforcement={"tier": "kill", "throttle_s": 0.0},
            )
        return ok_response(
            "step",
            decision=decision_payload(decision),
            enforcement=self.manager.enforcement_of(session_id),
        )

    def _handle_batch_step(
        self, fields: Dict[str, Any]
    ) -> Dict[str, Any]:
        """N measurements in, N decisions + enforcement tiers out.

        The whole batch is validated before the first measurement is
        applied, so an error response always means no controller state
        changed (the rid cache never stores errors — a retried failed
        batch re-executes from scratch, safely).  A mid-batch KILL
        truncates the results with a terminal killed entry; the
        response is still ``ok`` (and rid-cacheable) because state
        *did* change.  The response-level ``enforcement.throttle_s``
        is the sum over entries: one batch of N throttled heartbeats
        sleeps as long as N single steps would have.
        """
        session_id = self._require_session(fields)
        entries = batch_measurements_from_payload(
            fields.get("measurements")
        )
        results = []
        throttle_total = 0.0
        killed = False
        for measurement, sensor_ok in entries:
            try:
                decision = self.manager.step(
                    session_id, measurement, sensor_ok=sensor_ok
                )
            except SessionKilled as exc:
                results.append(
                    {
                        "killed": True,
                        "report": exc.report,
                        "enforcement": {
                            "tier": "kill",
                            "throttle_s": 0.0,
                        },
                    }
                )
                killed = True
                break
            enforcement = self.manager.enforcement_of(session_id)
            throttle_total += float(
                enforcement.get("throttle_s", 0.0)
            )
            results.append(
                {
                    "decision": decision_payload(decision),
                    "enforcement": enforcement,
                }
            )
        return ok_response(
            "batch_step",
            results=results,
            completed=len(results),
            killed=killed,
            enforcement={
                "tier": results[-1]["enforcement"]["tier"],
                "throttle_s": throttle_total,
            },
        )

    def _handle_report(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        session_id = self._require_session(fields)
        return ok_response(
            "report", report=self.manager.report(session_id)
        )

    def _handle_snapshot(
        self, fields: Dict[str, Any]
    ) -> Dict[str, Any]:
        session_id = self._require_session(fields)
        state = self.manager.snapshot(session_id)
        return ok_response("snapshot", state=state)

    def _handle_close(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        session_id = self._require_session(fields)
        return ok_response(
            "close", report=self.manager.close(session_id)
        )

    # -- admin verbs (shard workers only) --------------------------------------
    def _require_admin(self) -> None:
        if not self.admin:
            raise ProtocolError(
                "bad_request",
                "admin verbs are disabled on this listener",
            )

    def _handle_admin_lease(
        self, fields: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Grow or shrink this worker's budget lease by ``delta_j``.

        The router moves joules between its unleased pool and workers
        with this verb; shrinks are clamped by
        :meth:`SessionManager.revise_global_budget` (never below spend
        + commitments), and the *applied* delta is reported back so
        the router's ledger mirrors what actually moved.
        """
        self._require_admin()
        delta_j = fields.get("delta_j")
        if not isinstance(delta_j, (int, float)) or isinstance(
            delta_j, bool
        ):
            raise ProtocolError(
                "bad_request", "'delta_j' must be a number"
            )
        previous_j = self.manager.global_budget_j
        target_j = previous_j + float(delta_j)
        if target_j <= 0.0:
            raise ProtocolError(
                "bad_request",
                f"lease delta {delta_j:g} J would leave a non-positive "
                f"budget ({target_j:g} J)",
            )
        applied_j = self.manager.revise_global_budget(target_j)
        return ok_response(
            "admin_lease",
            budget_j=applied_j,
            applied_delta_j=applied_j - previous_j,
            committed_j=self.manager.committed_budget_j,
            available_j=self.manager.available_budget_j,
        )

    def _handle_admin_rebalance_inputs(
        self, fields: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Per-session rebalance inputs, for the router's global plan."""
        self._require_admin()
        surpluses, overdrafts = self.manager.rebalance_inputs()
        return ok_response(
            "admin_rebalance_inputs",
            surpluses=surpluses,
            overdrafts=overdrafts,
        )

    def _handle_admin_rebalance_apply(
        self, fields: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Apply this worker's slice of a daemon-wide transfer plan."""
        self._require_admin()
        deltas = fields.get("deltas")
        if not isinstance(deltas, dict):
            raise ProtocolError(
                "bad_request", "'deltas' must be an object"
            )
        plan: Dict[str, float] = {}
        for session_id, delta_j in deltas.items():
            if not isinstance(delta_j, (int, float)) or isinstance(
                delta_j, bool
            ):
                raise ProtocolError(
                    "bad_request",
                    f"delta for {session_id!r} must be a number",
                )
            plan[str(session_id)] = float(delta_j)
        applied = self.manager.apply_rebalance(plan)
        return ok_response(
            "admin_rebalance_apply",
            applied=applied,
            net_j=sum(applied.values()),
            available_j=self.manager.available_budget_j,
        )

    def _handle_metrics(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        registry = self.manager.telemetry.registry
        return ok_response(
            "metrics",
            samples=[sample.as_dict() for sample in registry.samples()],
        )

    def _handle_events(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        since = fields.get("since", 0)
        if not isinstance(since, int) or isinstance(since, bool):
            raise ProtocolError(
                "bad_request", "'since' must be an integer cursor"
            )
        log = self.manager.telemetry.events
        events = log.since(max(0, since))
        return ok_response(
            "events",
            events=[event.as_dict() for event in events],
            next=log.next_seq - 1,
        )


def _error_envelope(exc: Exception) -> Dict[str, Any]:
    """The error response for an exception raised while answering."""
    if isinstance(exc, ProtocolError):
        return error_response(exc.code, exc.message)
    if isinstance(exc, SessionError):
        return error_response(exc.code, exc.message, exc.data)
    return error_response("internal", f"{type(exc).__name__}: {exc}")


def _throttle_of(response: Dict[str, Any]) -> float:
    """The duty-cycle sleep a response asks the server to inject."""
    enforcement = response.get("enforcement")
    if not isinstance(enforcement, dict):
        return 0.0
    throttle_s = enforcement.get("throttle_s", 0.0)
    if not isinstance(throttle_s, (int, float)):
        return 0.0
    return max(0.0, float(throttle_s))


def serve(
    manager: SessionManager,
    host: Optional[str] = None,
    port: int = 0,
    unix_path: Optional[str] = None,
    reap_interval_s: float = 5.0,
    ready: Optional[Any] = None,
    metrics_host: Optional[str] = None,
    metrics_port: int = 0,
    admin: bool = False,
) -> None:
    """Run a daemon in the foreground until interrupted.

    ``ready``, when given, is an object with a ``set()`` method
    (e.g. :class:`threading.Event`) signalled once listeners are bound.
    """
    server = ServiceServer(
        manager,
        host=host,
        port=port,
        unix_path=unix_path,
        reap_interval_s=reap_interval_s,
        metrics_host=metrics_host,
        metrics_port=metrics_port,
        admin=admin,
    )

    async def _main() -> None:
        await server.start()
        if ready is not None:
            ready.set()
        try:
            await asyncio.Event().wait()
        finally:
            await server.aclose()

    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_main())


class ServerThread(LoopThread):
    """A daemon running in a background thread (tests and benchmarks).

    >>> manager = SessionManager(global_budget_j=1e6)
    >>> with ServerThread(manager, unix_path="/tmp/jg.sock") as handle:
    ...     client = ServiceClient(unix_path=handle.unix_path)

    The manager stays accessible for white-box assertions; remember
    that it mutates on the server thread, so inspect it only while no
    request is in flight.
    """

    def __init__(
        self,
        manager: SessionManager,
        host: Optional[str] = None,
        port: int = 0,
        unix_path: Optional[str] = None,
        reap_interval_s: float = 5.0,
        chaos: Optional["RequestChaos"] = None,
        metrics_host: Optional[str] = None,
        metrics_port: int = 0,
        admin: bool = False,
    ) -> None:
        self.manager = manager
        self.server = ServiceServer(
            manager,
            host=host,
            port=port,
            unix_path=unix_path,
            reap_interval_s=reap_interval_s,
            chaos=chaos,
            metrics_host=metrics_host,
            metrics_port=metrics_port,
            admin=admin,
        )
        super().__init__(self.server, "jouleguard-service", 10.0)
