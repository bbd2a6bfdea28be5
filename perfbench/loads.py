"""Seeded inputs, closed-loop load drivers and correctness gates.

Every heartbeat is generated from the run's seed before the daemon is
launched and encoded once, so the measurement window contains only
socket I/O and the daemon's own work.  Heartbeats spend a seeded
jitter around 90 % of each session's per-work budget: sessions stay
inside their goal, so the enforcement ladder never throttles and no
THROTTLE sleep is ever part of a measured round trip.

Load comes from this one process: at most two threads, each owning
one connection, each closed loop (the next frame goes out only when an
earlier one is answered).  Every few tenths of a second of load each
driver stops at a quiescent point, no request in flight, and calls the
round's ``pause`` (a host-speed calibration slice, see ``host.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
import socket
import threading
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from deploy import SOCKET_NAME

#: The Table 3 machines, each with an application that runs on it.
PAIRS = (
    ("tablet", "x264"),
    ("mobile", "swaptions"),
    ("server", "streamcluster"),
)

#: Heartbeats per ``batch_step`` frame on the ``batch`` workload.
BATCH_FRAME = 128

#: Sessions on the ``batch`` workload (split over two connections).
BATCH_SESSIONS = 16

#: Live sessions per connection on ``shard-churn``; also the pipeline
#: depth, since each session has at most one request in flight.
CHURN_SLOTS = 4

#: Seeded session lifetimes on ``shard-churn``, in heartbeats.
CHURN_LIFETIME = (60, 240)

_SLICE_S = 0.05  # nominal seconds of work per heartbeat

#: Heartbeats each connection completes between two pauses, about a
#: tenth of a second of load on every workload.
SEGMENT = {"solo": 480, "batch": 4 * BATCH_FRAME, "shard-churn": 100}

#: A deployment that leaves a request unanswered this long has failed.
_REPLY_TIMEOUT_S = 60.0


class GateError(Exception):
    """A correctness check failed; the run's metrics are withheld."""


def _dumps(obj: Any) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()


def energy_per_work() -> Dict[Tuple[str, str], float]:
    """Default energy per unit of work for each machine/app pair."""
    from repro.apps import build_application
    from repro.hw import get_machine
    from repro.runtime.oracle import default_energy_per_work

    return {
        (machine, app): default_energy_per_work(
            get_machine(machine), build_application(app)
        )
        for machine, app in PAIRS
    }


@dataclass
class SessionPlan:
    """One session's open request and its pre-generated heartbeats."""

    machine: str
    app: str
    factor: float
    seed: int
    measurements: List[Dict[str, float]]
    encoded: List[bytes] = field(default_factory=list)

    def open_request(self) -> Dict[str, Any]:
        return {
            "type": "open_session",
            "machine": self.machine,
            "app": self.app,
            "factor": self.factor,
            "total_work": float(len(self.measurements)),
            "seed": self.seed,
            "client": "perfbench",
        }


def plan_session(
    rng: random.Random,
    epw: Dict[Tuple[str, str], float],
    pair: Tuple[str, str],
    steps: int,
) -> SessionPlan:
    """A session on ``pair`` with ``steps`` in-budget heartbeats."""
    factor = round(rng.uniform(1.2, 2.0), 6)
    target = epw[pair] / factor * 0.9
    measurements = []
    for _ in range(steps):
        energy_j = target * (0.95 + 0.1 * rng.random())
        measurements.append(
            {
                "work": 1.0,
                "energy_j": energy_j,
                "rate": 1.0 / _SLICE_S,
                "power_w": energy_j / _SLICE_S,
            }
        )
    plan = SessionPlan(
        pair[0], pair[1], factor, rng.randrange(1 << 30), measurements
    )
    plan.encoded = [_dumps(m) for m in measurements]
    return plan


def step_frame(session: str, encoded_measurement: bytes) -> bytes:
    return (
        b'{"measurement":' + encoded_measurement + b',"session":"'
        + session.encode() + b'","type":"step"}\n'
    )


def batch_frame(session: str, encoded: List[bytes]) -> bytes:
    return (
        b'{"measurements":[' + b",".join(encoded) + b'],"session":"'
        + session.encode() + b'","type":"batch_step"}\n'
    )


class Conn:
    """A blocking JSON-lines connection to the deployment's socket."""

    def __init__(self) -> None:
        self.sock = socket.socket(socket.AF_UNIX)
        self.sock.settimeout(_REPLY_TIMEOUT_S)
        self.sock.connect(SOCKET_NAME)
        self.buf = bytearray()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def recv_line(self) -> bytes:
        while True:
            end = self.buf.find(b"\n")
            if end >= 0:
                line = bytes(self.buf[:end])
                del self.buf[: end + 1]
                return line
            chunk = self.sock.recv(1 << 18)
            if not chunk:
                raise ConnectionError("deployment closed the connection")
            self.buf += chunk

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.send(_dumps(request) + b"\n")
        return json.loads(self.recv_line())

    def close(self) -> None:
        self.sock.close()


def _ok(response: Dict[str, Any], what: str) -> Dict[str, Any]:
    if not response.get("ok"):
        raise GateError(f"{what} failed: {response.get('error')}")
    return response


def check_report(report: Dict[str, Any]) -> None:
    """Zero hard-tier overdraft, and no kill, in a close report."""
    if report.get("hard_overdraft_j", 0.0) != 0.0:  # jglint: disable=JG004
        raise GateError(
            f"session {report.get('session')} overdrew its hard budget "
            f"by {report['hard_overdraft_j']} J"
        )
    if report.get("close_reason") not in (None, "client"):
        raise GateError(
            f"session {report.get('session')} ended by "
            f"{report.get('close_reason')}"
        )


def check_step(entry: Dict[str, Any]) -> None:
    if entry.get("killed"):
        raise GateError("an in-budget session was killed")
    if entry["enforcement"]["throttle_s"] != 0.0:  # jglint: disable=JG004
        raise GateError("an in-budget session was throttled")


@dataclass
class Window:
    """What one measured round produced, before any metric is derived."""

    heartbeats: int
    start_ns: int = 0
    end_ns: int = 0
    sent_ns: array = field(default_factory=lambda: array("q"))
    done_ns: array = field(default_factory=lambda: array("q"))
    digest: str = ""
    opens: int = 0
    warm_opens: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def latencies_ns(self) -> List[int]:
        return [done - sent for sent, done in zip(self.sent_ns, self.done_ns)]


def _run_pair(work0, work1, pause) -> None:
    """Run two connection loops, one on this thread and one beside it.

    Each loop is called with a ``rendezvous`` function; once both loops
    have called it, ``pause`` runs, while neither sends anything.
    """
    errors: List[BaseException] = []
    barrier = threading.Barrier(2, action=pause, timeout=_REPLY_TIMEOUT_S)

    def guarded(work) -> None:
        try:
            work(barrier.wait)
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()  # release the other loop

    helper = threading.Thread(target=guarded, args=(work1,))
    helper.start()
    try:
        guarded(work0)
    finally:
        helper.join()
    if errors:
        # A loop released by abort() fails with BrokenBarrierError;
        # the one that broke it has the cause.
        errors.sort(key=lambda e: isinstance(e, threading.BrokenBarrierError))
        raise errors[0]


# -- solo -------------------------------------------------------------------
class Solo:
    """One connection, one session, one heartbeat per frame."""

    shards = 1

    def __init__(self, seed: int, heartbeats: int) -> None:
        rng = random.Random(seed)
        self.plan = plan_session(rng, energy_per_work(), PAIRS[0], heartbeats)

    def open(self) -> None:
        self.conn = Conn()
        self.opened = _ok(self.conn.call(self.plan.open_request()), "open")
        self.session = self.opened["session"]

    def run(self, mark, pause) -> Window:
        frames = [step_frame(self.session, m) for m in self.plan.encoded]
        window = Window(heartbeats=len(frames))
        conn, replies = self.conn, []
        sent, done, clock = window.sent_ns, window.done_ns, time.monotonic_ns
        segment = SEGMENT["solo"]
        mark(window)
        for start in range(0, len(frames), segment):
            if start:
                pause()
            for frame in frames[start : start + segment]:
                sent.append(clock())
                conn.send(frame)
                replies.append(conn.recv_line())
                done.append(clock())
        mark(window)
        digest = hashlib.sha256(_dumps(self.opened["decision"]))
        for line in replies:
            response = _ok(json.loads(line), "step")
            check_step(response)
            digest.update(
                _dumps([response["decision"], response["enforcement"]])
            )
        window.digest = digest.hexdigest()
        return window

    def finish(self) -> None:
        closed = self.conn.call({"type": "close", "session": self.session})
        check_report(_ok(closed, "close")["report"])
        self.conn.close()

    def replay_digest(self) -> str:
        """The same heartbeats through an in-process ``SessionManager``."""
        from repro.core.types import Measurement
        from repro.service.protocol import decision_payload
        from repro.service.sessions import SessionManager

        manager = SessionManager(global_budget_j=1e9)
        request = self.plan.open_request()
        session = manager.open_session(
            machine_name=request["machine"],
            app_name=request["app"],
            factor=request["factor"],
            total_work=request["total_work"],
            seed=request["seed"],
            client=request["client"],
        )
        sid = session.session_id
        digest = hashlib.sha256(_dumps(decision_payload(session.decision)))
        for m in self.plan.measurements:
            decision = manager.step(sid, Measurement(**m))
            digest.update(
                _dumps(
                    [decision_payload(decision), manager.enforcement_of(sid)]
                )
            )
        return digest.hexdigest()


# -- batch ------------------------------------------------------------------
class Batch:
    """Two connections, a fixed set of sessions, ``batch_step`` frames."""

    shards = 1

    def __init__(self, seed: int, heartbeats: int) -> None:
        rng = random.Random(seed)
        epw = energy_per_work()
        self.frames_per_session = max(
            1, heartbeats // (BATCH_SESSIONS * BATCH_FRAME)
        )
        steps = self.frames_per_session * BATCH_FRAME
        self.plans = [
            plan_session(rng, epw, PAIRS[i % len(PAIRS)], steps)
            for i in range(BATCH_SESSIONS)
        ]

    def open(self) -> None:
        self.conns = [Conn(), Conn()]
        self.sessions = []
        for index, plan in enumerate(self.plans):
            opened = self.conns[index % 2].call(plan.open_request())
            self.sessions.append(_ok(opened, "open")["session"])

    def run(self, mark, pause) -> Window:
        window = Window(heartbeats=len(self.plans) * len(self.plans[0].encoded))
        replies: List[List[bytes]] = [[], []]
        times = [(array("q"), array("q")), (array("q"), array("q"))]
        frames: List[List[bytes]] = [[], []]
        for f in range(self.frames_per_session):
            chunk = slice(f * BATCH_FRAME, (f + 1) * BATCH_FRAME)
            for index, plan in enumerate(self.plans):
                frames[index % 2].append(
                    batch_frame(self.sessions[index], plan.encoded[chunk])
                )

        # Both connections carry the same number of frames, so they meet
        # at every rendezvous.
        segment = SEGMENT["batch"] // BATCH_FRAME

        def loop(c: int, rendezvous) -> None:
            conn, out = self.conns[c], replies[c]
            (sent, done), clock = times[c], time.monotonic_ns
            for index, frame in enumerate(frames[c]):
                if index and index % segment == 0:
                    rendezvous()
                sent.append(clock())
                conn.send(frame)
                out.append(conn.recv_line())
                done.append(clock())

        mark(window)
        _run_pair(
            lambda rendezvous: loop(0, rendezvous),
            lambda rendezvous: loop(1, rendezvous),
            pause,
        )
        mark(window)
        window.sent_ns = times[0][0] + times[1][0]
        window.done_ns = times[0][1] + times[1][1]
        for line in replies[0] + replies[1]:
            response = _ok(json.loads(line), "batch_step")
            if response["completed"] != BATCH_FRAME:
                raise GateError("a batch_step frame completed partially")
            for entry in response["results"]:
                check_step(entry)
        return window

    def finish(self) -> None:
        for index, session in enumerate(self.sessions):
            closed = self.conns[index % 2].call(
                {"type": "close", "session": session}
            )
            check_report(_ok(closed, "close")["report"])
        for conn in self.conns:
            conn.close()


# -- shard-churn ------------------------------------------------------------
class _Slot:
    """One live-session position on a churn connection."""

    __slots__ = ("plan", "session", "next", "snapshotted")

    def __init__(self, plan: SessionPlan) -> None:
        self.plan = plan
        self.session: Optional[str] = None
        self.next = 0
        self.snapshotted = False


class Churn:
    """Router plus two workers; sessions end and warm-start replacements open.

    Each connection keeps :data:`CHURN_SLOTS` sessions live and one
    request per session in flight, so it pipelines up to that many
    one-heartbeat frames.  A session that reaches its seeded lifetime
    is snapshotted and closed, and the next planned session opens in
    its place (warm-starting from the snapshot store).
    """

    shards = 2

    def __init__(self, seed: int, heartbeats: int) -> None:
        rng = random.Random(seed)
        epw = energy_per_work()
        self.plans: List[List[SessionPlan]] = []
        opened = 0
        for _ in range(2):
            quota, lives = heartbeats // 2, []
            while quota > 0:
                steps = min(quota, rng.randint(*CHURN_LIFETIME))
                pair = PAIRS[opened % len(PAIRS)]
                lives.append(plan_session(rng, epw, pair, steps))
                quota -= steps
                opened += 1
            self.plans.append(lives)
        self.heartbeats = heartbeats // 2 * 2

    def open(self) -> None:
        self.conns = [Conn(), Conn()]
        self.lives = [deque(plans) for plans in self.plans]
        self.slots: List[List[_Slot]] = [[], []]
        for c in (0, 1):
            while self.lives[c] and len(self.slots[c]) < CHURN_SLOTS:
                slot = _Slot(self.lives[c].popleft())
                opened = self.conns[c].call(slot.plan.open_request())
                slot.session = _ok(opened, "open")["session"]
                self.slots[c].append(slot)

    def _loop(
        self,
        c: int,
        times: Tuple[array, array],
        replies: List[bytes],
        opens: List[int],
        rendezvous,
    ) -> None:
        """One connection's pipelined closed loop; ``opens`` counts
        ``[opened, warm-started]`` sessions.

        At every multiple of :data:`SEGMENT` steps below its total it
        stops sending, drains its pipeline and meets the other
        connection.  Both connections carry the same number of steps, so
        they meet equally often.
        """
        conn, pending = self.conns[c], self.lives[c]
        ready: Deque[_Slot] = deque(self.slots[c])
        inflight: Deque[Tuple[_Slot, str, int]] = deque()
        total, steps = self.heartbeats // 2, 0
        segment = SEGMENT["shard-churn"]
        next_pause = segment
        while ready or inflight:
            stopped = steps >= next_pause and next_pause < total
            if stopped and not inflight:
                rendezvous()
                next_pause += segment
                stopped = False
            while ready and not stopped:
                slot = ready.popleft()
                if slot.session is None:
                    kind, data = "open", _dumps(slot.plan.open_request()) + b"\n"
                elif slot.next < len(slot.plan.encoded):
                    kind = "step"
                    data = step_frame(slot.session, slot.plan.encoded[slot.next])
                elif not slot.snapshotted:
                    kind = "snapshot"
                    data = _dumps({"type": "snapshot", "session": slot.session}) + b"\n"
                else:
                    kind = "close"
                    data = _dumps({"type": "close", "session": slot.session}) + b"\n"
                inflight.append((slot, kind, time.monotonic_ns()))
                conn.send(data)
            line = conn.recv_line()
            slot, kind, sent = inflight.popleft()
            if kind == "step":
                times[0].append(sent)
                times[1].append(time.monotonic_ns())
                replies.append(line)
                slot.next += 1
                steps += 1
            elif kind == "open":
                opened = _ok(json.loads(line), "open")
                slot.session = opened["session"]
                opens[0] += 1
                opens[1] += bool(opened["warm"])
            elif kind == "snapshot":
                if not line.startswith(b'{"ok":true'):
                    _ok(json.loads(line), "snapshot")
                slot.snapshotted = True
            else:
                check_report(_ok(json.loads(line), "close")["report"])
                if not pending:
                    continue  # this slot's work is done
                slot = _Slot(pending.popleft())
            ready.append(slot)

    def run(self, mark, pause) -> Window:
        window = Window(heartbeats=self.heartbeats)
        times = [(array("q"), array("q")), (array("q"), array("q"))]
        replies: List[List[bytes]] = [[], []]
        opens = [[0, 0], [0, 0]]
        mark(window)
        _run_pair(
            lambda meet: self._loop(0, times[0], replies[0], opens[0], meet),
            lambda meet: self._loop(1, times[1], replies[1], opens[1], meet),
            pause,
        )
        mark(window)
        window.opens = opens[0][0] + opens[1][0]
        window.warm_opens = opens[0][1] + opens[1][1]
        window.sent_ns = times[0][0] + times[1][0]
        window.done_ns = times[0][1] + times[1][1]
        for line in replies[0] + replies[1]:
            check_step(_ok(json.loads(line), "step"))
        return window

    def finish(self) -> None:
        """Every session closed in the window; check the lease ledger."""
        conn = self.conns[0]
        budget_j = _ok(conn.call({"type": "hello"}), "hello")["global_budget_j"]
        samples = _ok(conn.call({"type": "metrics"}), "metrics")["samples"]
        ledger = {
            name: sum(s["value"] for s in samples if s["name"] == name)
            for name in (
                "jg_shard_lease_joules",
                "jg_shard_unleased_joules",
                "jg_shard_forfeited_joules",
            )
        }
        if abs(sum(ledger.values()) - budget_j) > 1e-5:
            raise GateError(f"lease ledger not conserved: {ledger} vs {budget_j}")
        if ledger["jg_shard_forfeited_joules"] != 0.0:  # jglint: disable=JG004
            raise GateError("a worker crashed and forfeited its lease")
        for conn in self.conns:
            conn.close()


WORKLOADS = {"solo": Solo, "batch": Batch, "shard-churn": Churn}
