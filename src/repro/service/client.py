"""Blocking client library and load generator for the daemon.

:class:`ServiceClient` is the reference protocol implementation for
callers that live outside the daemon's event loop: it speaks the
JSON-lines protocol over TCP or a Unix socket with a timeout on every
operation, raises :class:`ServiceError` with the server's structured
error code, and exposes one method per request type.

On top of it, :func:`drive_synthetic_session` closes the loop the way
:func:`repro.runtime.harness.run_jouleguard` does — but with the
*client* owning the (simulated) platform and the *daemon* owning the
controller — and :func:`run_load` drives N such clients concurrently
to measure sessions/sec and step-latency percentiles.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..apps import build_application
from ..core.types import Measurement
from ..hw import PlatformSimulator, get_machine
from ..hw.simulator import NoiseModel
from ..runtime.oracle import default_energy_per_work
from .protocol import (
    MAX_BATCH_STEPS,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    decode_message,
    encode_message,
    measurement_payload,
)

__all__ = [
    "BatchStepResult",
    "LoadReport",
    "OpenedSession",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "SessionKilledError",
    "SessionRun",
    "drive_synthetic_session",
    "run_load",
]


class ServiceError(RuntimeError):
    """A structured error returned by the daemon."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class SessionKilledError(ServiceError):
    """The daemon's enforcement ladder terminated the session.

    Raised by :meth:`ServiceClient.step` when the step response says
    ``killed``.  The session is already closed daemon-side with its
    budget retired; :attr:`report` is its final report.
    """

    def __init__(self, report: Dict[str, Any]) -> None:
        session = report.get("session", "?")
        super().__init__(
            "session_killed",
            f"session {session} was killed by the enforcement ladder",
        )
        self.report = report


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter for lossy transports.

    Attempt *n* (zero-based) sleeps ``base_delay_s * 2**n`` capped at
    ``max_delay_s``, shrunk by up to ``jitter`` (a fraction in [0, 1])
    drawn from a ``random.Random(seed)`` stream so retry schedules are
    reproducible.  Only transport failures are retried; structured
    :class:`ServiceError` responses mean the daemon answered and are
    raised immediately.
    """

    max_attempts: int = 5
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError(
                "delays must satisfy 0 <= base_delay_s <= max_delay_s"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """The backoff before retry ``attempt`` (zero-based)."""
        delay = min(self.max_delay_s, self.base_delay_s * (2.0 ** attempt))
        return delay * (1.0 - self.jitter * rng.random())


@dataclass(frozen=True)
class OpenedSession:
    """The daemon's answer to ``open_session``."""

    session: str
    warm: bool
    granted_budget_j: float
    decision: Dict[str, Any]


@dataclass(frozen=True)
class BatchStepResult:
    """The daemon's answer to one ``batch_step`` frame (protocol v3).

    ``decisions`` holds one decision payload (with its ``enforcement``
    attached, like :meth:`ServiceClient.step` returns) per *applied*
    measurement.  A mid-batch KILL truncates the batch: ``killed`` is
    True, ``report`` carries the final (budget-retired) session
    report, and ``decisions`` covers only the heartbeats the session
    survived.
    """

    decisions: List[Dict[str, Any]]
    killed: bool = False
    report: Optional[Dict[str, Any]] = None

    @property
    def completed(self) -> int:
        """Heartbeats applied (the kill entry does not count)."""
        return len(self.decisions)


class ServiceClient:
    """Blocking JSON-lines client for one daemon connection.

    Parameters
    ----------
    host / port:
        TCP address of the daemon (mutually exclusive with
        ``unix_path``).
    unix_path:
        Unix-socket path of the daemon.
    timeout_s:
        Socket timeout applied to connect and to every request.
    handshake:
        Send ``hello`` on connect and verify the protocol version.
    retry:
        Optional :class:`RetryPolicy`.  When given, every request
        carries an idempotency id (``rid``), transport failures trigger
        reconnect + resend with exponential backoff, and the daemon's
        rid cache guarantees a retried ``step`` is not executed twice.
        ``None`` (the default) keeps the historical fail-fast behavior:
        a dropped connection raises :class:`ConnectionError`.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
        timeout_s: float = 30.0,
        handshake: bool = True,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if (unix_path is None) == (host is None):
            raise ValueError(
                "give either host/port (TCP) or unix_path, not both"
            )
        if timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if host is not None and port is None:
            raise ValueError("TCP needs an explicit port")
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.timeout_s = timeout_s
        self.retry = retry
        self.retries = 0
        self.reconnects = 0
        self._retry_rng = (
            random.Random(retry.seed) if retry is not None else None
        )
        self._rid_token = uuid.uuid4().hex[:12]
        self._rid_counter = itertools.count()
        self._sock: Optional[socket.socket] = None
        self._file: Optional[Any] = None
        self._connect()
        self.server_stats: Dict[str, Any] = {}
        if handshake:
            self.server_stats = self.hello()

    # -- transport -------------------------------------------------------------
    def _connect(self) -> None:
        if self.unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.timeout_s)
                sock.connect(self.unix_path)
            except OSError:
                sock.close()  # create_connection does this for TCP
                raise
            self._sock = sock
        else:
            assert self.port is not None
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
        self._file = self._sock.makefile("rwb")

    def _drop_connection(self) -> None:
        file, sock = self._file, self._sock
        self._file = None
        self._sock = None
        # Teardown of an already-broken transport: close errors carry
        # no information the caller can act on.
        if file is not None:
            with contextlib.suppress(OSError):
                file.close()
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.close()

    def _next_rid(self) -> str:
        return f"{self._rid_token}-{next(self._rid_counter)}"

    def _request_once(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round trip on the live connection."""
        if self._file is None:
            self._connect()
            self.reconnects += 1
        assert self._file is not None
        self._file.write(encode_message(payload))
        self._file.flush()
        line = self._file.readline(MAX_LINE_BYTES + 2)
        if not line:
            raise ConnectionError("daemon closed the connection")
        response = decode_message(line)
        if not response.get("ok", False):
            error = response.get("error") or {}
            raise ServiceError(
                str(error.get("code", "internal")),
                str(error.get("message", "unspecified error")),
            )
        return response

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round trip; raises on error envelopes.

        With a :class:`RetryPolicy`, a ``rid`` is attached and transport
        failures (dropped connections, timeouts) are retried with
        backoff; resends reuse the same ``rid`` so the daemon replays
        the cached response rather than re-executing the operation.
        """
        if self.retry is None:
            return self._request_once(payload)
        assert self._retry_rng is not None
        payload = dict(payload)
        payload.setdefault("rid", self._next_rid())
        last_error: Optional[Exception] = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.retries += 1
                time.sleep(self.retry.delay_s(attempt - 1, self._retry_rng))
            try:
                return self._request_once(payload)
            except ServiceError:
                raise  # the daemon answered; retrying cannot help
            except OSError as exc:  # includes ConnectionError, timeouts
                last_error = exc
                self._drop_connection()
        raise ConnectionError(
            f"request failed after {self.retry.max_attempts} attempts"
        ) from last_error

    def close_connection(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close_connection()

    # -- one method per request type -------------------------------------------
    def hello(self) -> Dict[str, Any]:
        return self.request(
            {"type": "hello", "version": PROTOCOL_VERSION}
        )

    def open_session(
        self,
        machine: str,
        app: str,
        factor: float,
        total_work: float,
        seed: int = 0,
        warm_start: bool = True,
        client_name: str = "",
    ) -> OpenedSession:
        response = self.request(
            {
                "type": "open_session",
                "machine": machine,
                "app": app,
                "factor": factor,
                "total_work": total_work,
                "seed": seed,
                "warm_start": warm_start,
                "client": client_name,
            }
        )
        return OpenedSession(
            session=response["session"],
            warm=response["warm"],
            granted_budget_j=response["granted_budget_j"],
            decision=response["decision"],
        )

    def step(
        self, session: str, measurement: Measurement
    ) -> Dict[str, Any]:
        """Send one heartbeat; return the next decision payload.

        Raises :class:`SessionKilledError` (carrying the final report)
        when the daemon's enforcement ladder terminated the session
        instead of answering with a decision.
        """
        response = self.request(
            {
                "type": "step",
                "session": session,
                "measurement": measurement_payload(measurement),
            }
        )
        if response.get("killed", False):
            raise SessionKilledError(response.get("report", {}))
        decision = dict(response["decision"])
        decision["enforcement"] = response.get(
            "enforcement", {"tier": "nominal", "throttle_s": 0.0}
        )
        return decision

    def step_batch(
        self,
        session: str,
        measurements: List[Measurement],
        sensor_ok: Optional[List[bool]] = None,
    ) -> BatchStepResult:
        """Send N heartbeats in one frame (protocol v3).

        Returns a :class:`BatchStepResult` rather than raising on a
        kill: a mid-batch KILL still carries the decisions of the
        heartbeats that were applied, which the caller usually wants.
        """
        if not measurements:
            raise ValueError("need at least one measurement")
        if len(measurements) > MAX_BATCH_STEPS:
            raise ValueError(
                f"batch of {len(measurements)} exceeds the protocol "
                f"limit of {MAX_BATCH_STEPS}"
            )
        if sensor_ok is not None and len(sensor_ok) != len(measurements):
            raise ValueError(
                "sensor_ok must have one flag per measurement"
            )
        payload = [
            measurement_payload(
                measurement,
                sensor_ok=True if sensor_ok is None else sensor_ok[i],
            )
            for i, measurement in enumerate(measurements)
        ]
        response = self.request(
            {
                "type": "batch_step",
                "session": session,
                "measurements": payload,
            }
        )
        decisions: List[Dict[str, Any]] = []
        report: Optional[Dict[str, Any]] = None
        for entry in response.get("results", []):
            if entry.get("killed", False):
                report = entry.get("report", {})
                break
            decision = dict(entry["decision"])
            decision["enforcement"] = entry.get(
                "enforcement", {"tier": "nominal", "throttle_s": 0.0}
            )
            decisions.append(decision)
        return BatchStepResult(
            decisions=decisions,
            killed=bool(response.get("killed", False)),
            report=report,
        )

    def request_pipeline(
        self, payloads: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Write K requests back-to-back, then read the K responses.

        Protocol v3 guarantees responses arrive in request order, so
        the result list lines up with ``payloads`` by position.  Raw
        response envelopes are returned — including error envelopes —
        because with several requests in flight, raising on the first
        error would discard the answers behind it.  Retry policies do
        not apply here: a transport failure mid-pipeline raises
        :class:`ConnectionError` and the caller decides what to replay.
        """
        if not payloads:
            return []
        if self._file is None:
            self._connect()
            self.reconnects += 1
        assert self._file is not None
        for payload in payloads:
            self._file.write(encode_message(payload))
        self._file.flush()
        responses: List[Dict[str, Any]] = []
        for _ in payloads:
            line = self._file.readline(MAX_LINE_BYTES + 2)
            if not line:
                raise ConnectionError(
                    "daemon closed the connection mid-pipeline"
                )
            responses.append(decode_message(line))
        return responses

    def report(self, session: str) -> Dict[str, Any]:
        return self.request({"type": "report", "session": session})[
            "report"
        ]

    def snapshot(self, session: str) -> Dict[str, Any]:
        """Ask the daemon to persist this session's learned state."""
        return self.request({"type": "snapshot", "session": session})[
            "state"
        ]

    def close(self, session: str) -> Dict[str, Any]:
        return self.request({"type": "close", "session": session})[
            "report"
        ]

    def metrics(self) -> List[Dict[str, Any]]:
        """The daemon's metric samples (name/labels/value dicts)."""
        return self.request({"type": "metrics"})["samples"]

    def events(
        self, since: int = 0
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Events newer than ``since``; returns ``(events, cursor)``.

        Pass the returned cursor back as ``since`` to poll without
        re-reading (the dashboard's loop).
        """
        response = self.request({"type": "events", "since": since})
        return response["events"], int(response["next"])


# -- synthetic closed loop ----------------------------------------------------
@dataclass
class SessionRun:
    """Outcome of one synthetic client session.

    ``steps`` is what was *requested*; ``steps_completed`` counts the
    heartbeats the daemon actually applied (fewer on a kill).  With
    batching, ``step_latencies_s`` holds one round-trip latency per
    *frame*, not per heartbeat — divide by the batch size for an
    amortized per-step figure.
    """

    session: str
    warm: bool
    steps: int
    decisions: List[Dict[str, Any]] = field(default_factory=list)
    step_latencies_s: List[float] = field(default_factory=list)
    report: Dict[str, Any] = field(default_factory=dict)
    state: Optional[Dict[str, Any]] = None
    killed: bool = False
    steps_completed: int = 0

    def convergence_step(self, epsilon_threshold: float = 0.2) -> int:
        """First step whose decision has ε below the threshold.

        Counts the iterations spent exploring before the learner
        settles; a warm-started session should converge in strictly
        fewer iterations than a cold one.  Returns ``steps`` when the
        run never converged.
        """
        for index, decision in enumerate(self.decisions):
            if decision["epsilon"] < epsilon_threshold:
                return index
        return self.steps


class _SimMeasurements:
    """Full-fidelity client platform: one simulator iteration per step."""

    def __init__(
        self,
        machine: str,
        app: str,
        seed: int,
        noise: Optional[NoiseModel],
    ) -> None:
        machine_model = get_machine(machine)
        application = build_application(app)
        self._simulator = PlatformSimulator(
            machine_model,
            application.resource_profile,
            noise=noise if noise is not None else NoiseModel(),
            seed=seed,
        )
        self._space = machine_model.space
        self.work_per_iteration = application.work_per_iteration

    def next(self, decision: Dict[str, Any]) -> Measurement:
        result = self._simulator.run_iteration(
            config=self._space[decision["system_index"]],
            work=self.work_per_iteration,
            app_speedup=decision["app_speedup"],
            app_power_factor=decision["app_power_factor"],
        )
        return Measurement(
            work=result.work,
            energy_j=result.measured_power_w * result.time_s,
            rate=result.measured_rate,
            power_w=result.measured_power_w,
        )


class _FastMeasurements:
    """Cheap load-generation heartbeats (microseconds, not a simulator).

    Throughput benchmarking wants the *daemon* on the critical path,
    not the load generator's platform simulation — the same reason
    HTTP load tools replay canned requests instead of rendering pages.
    Heartbeats spend a seeded jitter around 90% of the session's
    per-work budget, so sessions stay comfortably inside their energy
    goal (no kills or throttles distorting the measurement) while the
    controller still sees plausible, varying feedback.
    """

    def __init__(
        self, machine: str, app: str, factor: float, seed: int
    ) -> None:
        machine_model = get_machine(machine)
        application = build_application(app)
        self.work_per_iteration = application.work_per_iteration
        epw = default_energy_per_work(machine_model, application)
        self._target_epw = epw / max(factor, 1.0) * 0.9
        self._rng = random.Random(seed)
        self._slice_s = 0.05

    def next(self, decision: Dict[str, Any]) -> Measurement:
        work = self.work_per_iteration
        jitter = 0.95 + 0.1 * self._rng.random()
        energy_j = self._target_epw * work * jitter
        return Measurement(
            work=work,
            energy_j=energy_j,
            rate=work / self._slice_s,
            power_w=energy_j / self._slice_s,
        )


def drive_synthetic_session(
    client: ServiceClient,
    machine: str,
    app: str,
    factor: float,
    steps: int,
    seed: int = 0,
    warm_start: bool = True,
    take_snapshot: bool = False,
    close: bool = True,
    noise: Optional[NoiseModel] = None,
    client_name: str = "synthetic",
    batch: int = 1,
    fast: bool = False,
) -> SessionRun:
    """Run one closed loop with the daemon deciding, the client acting.

    The client simulates the platform locally (seeded with ``seed``,
    exactly like the in-process harness) and feeds measured heartbeats
    to the daemon, which answers with the next decision.  ``seed``
    therefore pins the *whole* loop: same seed, same daemon state →
    identical decision trace, replicating
    :func:`repro.runtime.repeat.replicate` against the service.

    ``batch > 1`` switches to protocol v3 batched frames: the client
    runs up to ``batch`` iterations under the current decision, ships
    them in one ``batch_step``, and actuates the last returned
    decision — amortized control, trading per-heartbeat reactivity
    for round trips.  ``fast=True`` swaps the platform simulator for
    a cheap seeded heartbeat source (load generation only; see
    :class:`_FastMeasurements`).
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    source = (
        _FastMeasurements(machine, app, factor, seed)
        if fast
        else _SimMeasurements(machine, app, seed, noise)
    )

    opened = client.open_session(
        machine=machine,
        app=app,
        factor=factor,
        total_work=steps * source.work_per_iteration,
        seed=seed,
        warm_start=warm_start,
        client_name=client_name,
    )
    run = SessionRun(
        session=opened.session, warm=opened.warm, steps=steps
    )
    decision = opened.decision
    run.decisions.append(decision)
    remaining = steps
    while remaining > 0:
        chunk = min(batch, remaining)
        measurements = [source.next(decision) for _ in range(chunk)]
        sent_s = time.perf_counter()
        if chunk == 1:
            try:
                decision = client.step(run.session, measurements[0])
            except SessionKilledError as exc:
                # The daemon terminated the session (hard budget
                # bound); its final report is the run's report.
                run.killed = True
                run.report = exc.report
                run.step_latencies_s.append(
                    time.perf_counter() - sent_s
                )
                return run
            run.step_latencies_s.append(time.perf_counter() - sent_s)
            run.decisions.append(decision)
            run.steps_completed += 1
        else:
            result = client.step_batch(run.session, measurements)
            run.step_latencies_s.append(time.perf_counter() - sent_s)
            run.decisions.extend(result.decisions)
            run.steps_completed += result.completed
            if result.killed:
                run.killed = True
                run.report = result.report or {}
                return run
            if result.decisions:
                decision = result.decisions[-1]
        remaining -= chunk
    if take_snapshot:
        run.state = client.snapshot(run.session)
    if close:
        run.report = client.close(run.session)
    else:
        run.report = client.report(run.session)
    return run


# -- load generation ----------------------------------------------------------
@dataclass(frozen=True)
class LoadReport:
    """Aggregate results of one load-generation run.

    ``client_steps_per_s`` is each client's own throughput (its step
    count over the wall-clock of the whole run); the spread between
    min and max exposes unfair scheduling that the aggregate
    ``steps_per_s`` hides.

    ``elapsed_s`` — and every rate derived from it — covers only the
    *measurement window*: all clients connect and handshake first,
    rendezvous on a barrier, and the clock starts when the barrier
    releases.  Connection setup (reported separately as ``setup_s``)
    scales with client count, so folding it into the window would make
    the 1-client and 32-client rows incomparable.  With ``batch > 1``
    the latency percentiles are per *frame* (one round trip carrying
    ``batch`` heartbeats), not per heartbeat.
    """

    n_clients: int
    steps_per_client: int
    total_steps: int
    elapsed_s: float
    sessions_per_s: float
    steps_per_s: float
    p50_step_latency_s: float
    p95_step_latency_s: float
    p99_step_latency_s: float
    client_steps_per_s: List[float]
    errors: int
    batch: int = 1
    setup_s: float = 0.0

    @property
    def mean_client_steps_per_s(self) -> float:
        if not self.client_steps_per_s:
            return 0.0
        return sum(self.client_steps_per_s) / len(
            self.client_steps_per_s
        )

    def as_dict(self) -> Dict[str, Any]:
        per_client = self.client_steps_per_s
        return {
            "n_clients": self.n_clients,
            "steps_per_client": self.steps_per_client,
            "batch": self.batch,
            "total_steps": self.total_steps,
            "elapsed_s": self.elapsed_s,
            "setup_s": self.setup_s,
            "sessions_per_s": self.sessions_per_s,
            "steps_per_s": self.steps_per_s,
            "p50_step_latency_ms": self.p50_step_latency_s * 1e3,
            "p95_step_latency_ms": self.p95_step_latency_s * 1e3,
            "p99_step_latency_ms": self.p99_step_latency_s * 1e3,
            "client_steps_per_s_mean": self.mean_client_steps_per_s,
            "client_steps_per_s_min": min(per_client, default=0.0),
            "client_steps_per_s_max": max(per_client, default=0.0),
            "errors": self.errors,
        }


def _percentile(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(
        len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))
    )
    return ordered[index]


def _connect_kwargs(
    host: Optional[str],
    port: Optional[int],
    unix_path: Optional[str],
    timeout_s: float,
    retry: Optional[RetryPolicy] = None,
) -> Dict[str, Any]:
    return {
        "host": host,
        "port": port,
        "unix_path": unix_path,
        "timeout_s": timeout_s,
        "retry": retry,
    }


def run_load(
    n_clients: int,
    steps: int,
    machine: str = "tablet",
    app: str = "x264",
    factor: float = 1.5,
    host: Optional[str] = None,
    port: Optional[int] = None,
    unix_path: Optional[str] = None,
    base_seed: int = 0,
    timeout_s: float = 60.0,
    retry: Optional[RetryPolicy] = None,
    batch: int = 1,
    fast: bool = False,
) -> LoadReport:
    """Drive ``n_clients`` concurrent synthetic sessions; aggregate.

    Each client thread connects and handshakes first, then all threads
    rendezvous on a barrier before any session opens — the measurement
    clock starts at the barrier release, so ``elapsed_s`` (and every
    derived rate) excludes connection setup.  Each thread runs one
    session (seeded ``base_seed + index`` so runs replicate), steps it
    to completion, and closes.  Latency percentiles are over all step
    round trips (per batched frame when ``batch > 1``).
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    latencies: List[List[float]] = [[] for _ in range(n_clients)]
    steps_done = [0] * n_clients
    failures: List[Optional[str]] = [None] * n_clients
    # n_clients workers + the coordinating thread; a worker that fails
    # to connect still waits (in its finally) so nobody deadlocks.
    barrier = threading.Barrier(n_clients + 1)

    def _one(index: int) -> None:
        client: Optional[ServiceClient] = None
        try:
            client = ServiceClient(
                **_connect_kwargs(host, port, unix_path, timeout_s, retry)
            )
        except (ServiceError, ConnectionError, OSError) as exc:
            failures[index] = str(exc)
        finally:
            barrier.wait()
        if client is None:
            return
        try:
            run = drive_synthetic_session(
                client,
                machine=machine,
                app=app,
                factor=factor,
                steps=steps,
                seed=base_seed + index,
                client_name=f"load-{index}",
                batch=batch,
                fast=fast,
            )
            latencies[index] = run.step_latencies_s
            steps_done[index] = run.steps_completed
        except (ServiceError, ConnectionError, OSError) as exc:
            failures[index] = str(exc)
        finally:
            client.close_connection()

    threads = [
        threading.Thread(target=_one, args=(index,), daemon=True)
        for index in range(n_clients)
    ]
    setup_started_s = time.perf_counter()
    for thread in threads:
        thread.start()
    barrier.wait()
    started_s = time.perf_counter()
    setup_s = started_s - setup_started_s
    for thread in threads:
        thread.join()
    elapsed_s = max(time.perf_counter() - started_s, 1e-9)

    flat = [value for chunk in latencies for value in chunk]
    total_steps = sum(steps_done)
    completed = sum(1 for failure in failures if failure is None)
    return LoadReport(
        n_clients=n_clients,
        steps_per_client=steps,
        total_steps=total_steps,
        elapsed_s=elapsed_s,
        sessions_per_s=completed / elapsed_s,
        steps_per_s=total_steps / elapsed_s,
        p50_step_latency_s=_percentile(flat, 0.50),
        p95_step_latency_s=_percentile(flat, 0.95),
        p99_step_latency_s=_percentile(flat, 0.99),
        client_steps_per_s=[
            count / elapsed_s for count in steps_done
        ],
        errors=sum(1 for failure in failures if failure is not None),
        batch=batch,
        setup_s=setup_s,
    )
