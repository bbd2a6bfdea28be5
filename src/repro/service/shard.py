"""Sharded JouleGuard: a thin router over pinned worker processes.

``repro.service.shard`` scales the daemon past one process: a
:class:`ShardRouter` listens where a single daemon would and places
each session on one of N *worker* processes, each running the ordinary
:class:`~repro.service.sessions.SessionManager` behind the ordinary
:class:`~repro.service.server.ServiceServer` (spawned as ``python -m
repro serve --session-prefix w{i}e{e}- --external-rebalance --admin``).

**Placement** is a sha256 consistent-hash ring over a deterministic
open key (client name, seed, open ordinal), so identical runs place
identically; every later verb routes by the session id's
``w{index}e{epoch}-`` prefix, making the router stateless about
individual sessions beyond their global open order.

**Relaying**: ``step``, ``report``, ``snapshot`` and ``close`` pass
through as bytes — the request line goes to the worker as the client
wrote it, ``rid`` and all, and an ok reply comes back undecoded
(:meth:`ShardRouter._relay`).  They also start on arrival, while the
lines ahead of them on their connection are in flight, unless a
rebalance boundary is in flight (:meth:`ShardRouter._start_early`);
every other verb waits for the lines ahead of it and holds the lines
behind it.  Replies leave in request order.

**Budget coherence** uses the zero-sum lease scheme of
:class:`~repro.service.lease.LeaseLedger`: workers boot with a
microjoule floor lease and the router tops them up *on demand* — a
``budget_exhausted`` rejection carries ``needed_j``/``available_j`` in
its error data, the router leases the shortfall from the unleased pool
and retries the open once.  After every close or kill it shrinks the
worker back to its floor (the worker clamps at ``spent + committed``,
so only free joules move), which keeps each worker's free headroom at
~0 and makes fleet-wide admission decide against the unleased pool —
the same joules a single-process daemon would have had available, up
to microjoule dust.

**Rebalancing** is router-driven (workers run with
``--external-rebalance``): the router counts heartbeats fleet-wide,
and on the single-process cadence gathers ``admin_rebalance_inputs``
from every worker at once, merges them in *global open order*,
computes the plan with the very
:func:`~repro.core.multi.plan_rebalance` a
single-process manager uses (bit-identical inputs, bit-identical
deltas — the cross-shard lockstep rig's core claim), and pushes each
worker its slice via ``admin_rebalance_apply``.  Client batches are
split at rebalance boundaries so a heartbeat after the boundary sees
post-rebalance state, exactly as it would in one process.

**Crashes**: a dead worker's entire lease is forfeited to the ledger's
crash sink (conservative: joules can be lost to a crash, never double
spent), its sessions are gone (``unknown_session`` thereafter), and a
successor is spawned with the restart epoch bumped — its session ids
can never collide with the dead worker's.  Workers share the router's
``--state-dir``, so reopened sessions warm-start from the snapshot
store across the crash.

Known serialization caveats (the lockstep rig asserts equivalence
for one client connection, pipelined or not): the router pipelines all
client connections onto one
:class:`~repro.service.transport.LineChannel` per worker, answered in
order, so a THROTTLE sleep on one session delays that worker's other
sessions; and across connections the global heartbeat order — which
the rebalance cadence counts — depends on timing, and an open on one
connection may race a rebalance driven by another and observe a
mid-transfer pool.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..core.multi import plan_rebalance
from ..obs.events import EventLog
from ..obs.http import MetricsHTTPServer
from ..obs.registry import MetricsRegistry
from .lease import LeaseLedger, joules_to_uj, uj_to_joules
from .protocol import (
    ADMIN_TYPES,
    MAX_LINE_BYTES,
    ProtocolError,
    batch_measurements_from_payload,
    decode_message,
    encode_message,
    error_response,
    negotiate_version,
    ok_response,
    parse_request,
    request_id_of,
)
from .server import Response, RidCache, _error_envelope
from .sessions import SessionError
from .transport import LineChannel, LineServer, LoopThread

__all__ = [
    "LEASE_FLOOR_J",
    "ShardRouter",
    "ShardThread",
    "WorkerHandle",
    "serve_sharded",
]

#: Joules a worker process boots with before its first on-demand lease.
#: One microjoule: positive (the manager requires that) yet too small
#: to admit anything, so admission always goes through the ledger.
LEASE_FLOOR_J = 1e-6

#: How a shard worker's session ids start: worker index, restart epoch.
SESSION_PREFIX_RE = re.compile(r"^w(\d+)e(\d+)-")

_RING_VNODES = 64

#: Verbs the router relays: forwarded to the session's worker, the
#: reply passed back as bytes when it is an ok, not-killed answer.
_RELAYED = ("step", "report", "snapshot", "close")

#: How an ok step reply and an ok close/report/snapshot reply begin:
#: workers encode with sorted keys, so each shape has one first key.
_OK_PREFIXES = (b'{"decision":', b'{"ok":true')


class _LineTask(asyncio.Task):
    """A router line's task, which runs to the end once it reached a worker.

    The transport cancels the lines a connection has started when its
    client hangs up.  A line a worker has received is run by the
    worker, so the router must finish it too: count the step, end the
    closed session, track the admitted one, cache the reply under its
    rid.  From :meth:`ShardRouter._call_worker`'s first write on,
    ``cancel()`` is refused and only the reply is dropped.
    """

    sent = False

    def cancel(self, msg: Any = None) -> bool:
        if self.sent:
            return False
        return super().cancel(msg)


def _hash64(key: str) -> int:
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Consistent sha256 hash ring over worker indices.

    Virtual nodes smooth the split; consistency means growing the pool
    by one worker remaps only ~1/N of the key space, so a future
    ``--shards N+1`` restart keeps most placements (and their
    per-worker warm caches) stable.
    """

    def __init__(self, indices: List[int], vnodes: int = _RING_VNODES) -> None:
        if not indices:
            raise ValueError("ring needs at least one worker")
        points = sorted(
            (_hash64(f"shard-{index}-vnode-{vnode}"), index)
            for index in indices
            for vnode in range(vnodes)
        )
        self._hashes = [point for point, _ in points]
        self._owners = [index for _, index in points]

    def route(self, key: str) -> int:
        position = bisect.bisect_right(self._hashes, _hash64(key))
        if position == len(self._hashes):
            position = 0
        return self._owners[position]


class WorkerHandle:
    """One pinned worker process plus the router's connection to it."""

    def __init__(
        self,
        index: int,
        epoch: int,
        unix_path: str,
        process: subprocess.Popen,
        log_path: Optional[Path] = None,
    ) -> None:
        self.index = index
        self.epoch = epoch
        self.unix_path = unix_path
        self.process = process
        self.log_path = log_path
        #: The pipelined connection to the worker, once it answered.
        self.channel: Optional[LineChannel] = None
        #: Serializes admissions (open → lease shortfall → retry) and
        #: surplus reclaims on this worker.  Without it, two concurrent
        #: opens can interleave so one consumes the lease the other
        #: just took, surfacing a spurious ``budget_exhausted`` while
        #: the unleased pool is still deep.
        self.admission_lock = asyncio.Lock()

    @property
    def name(self) -> str:
        """Ledger identity — stable across this worker's restarts."""
        return f"w{self.index}"

    @property
    def prefix(self) -> str:
        """Session-id prefix of this (worker, epoch) incarnation."""
        return f"w{self.index}e{self.epoch}-"

    def alive(self) -> bool:
        return self.process.poll() is None and self.channel is not None


class ShardRouter(LineServer):
    """Routes the client protocol onto a pool of worker processes.

    Speaks the same wire protocol as a single daemon (clients cannot
    tell the difference), with the admin verbs refused on its own
    listeners — those face the workers only.

    Parameters mirror :class:`~repro.service.server.ServiceServer`
    where they overlap; ``rebalance_period`` and ``transfer_fraction``
    must match what a single-process reference uses for the lockstep
    equivalence to hold.
    """

    def __init__(
        self,
        n_shards: int,
        budget_j: float,
        host: Optional[str] = None,
        port: int = 0,
        unix_path: Optional[str] = None,
        state_dir: Optional[str] = None,
        run_dir: Optional[str] = None,
        rebalance_period: int = 25,
        transfer_fraction: float = 0.5,
        idle_timeout_s: float = 300.0,
        reap_interval_s: float = 5.0,
        metrics_host: Optional[str] = None,
        metrics_port: int = 0,
        worker_ready_timeout_s: float = 60.0,
        python: Optional[str] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        super().__init__(host, port, unix_path, metrics_host, metrics_port)
        if rebalance_period < 1:
            raise ValueError("rebalance period must be >= 1")
        if not 0.0 < transfer_fraction <= 1.0:
            raise ValueError("transfer_fraction must be in (0, 1]")
        self.n_shards = n_shards
        self.budget_j = budget_j
        self.state_dir = state_dir
        self.run_dir = run_dir
        self.rebalance_period = rebalance_period
        self.transfer_fraction = transfer_fraction
        self.idle_timeout_s = idle_timeout_s
        self.reap_interval_s = reap_interval_s
        self.worker_ready_timeout_s = worker_ready_timeout_s
        self.python = python or sys.executable

        self.ledger = LeaseLedger(budget_j)
        self.events = EventLog()
        self._workers: List[WorkerHandle] = []
        self._ring: Optional[HashRing] = None
        self._open_order: "OrderedDict[str, None]" = OrderedDict()
        self._opens = 0
        self._steps_since_rebalance = 0
        #: Steps started toward a worker and not yet finished; with the
        #: count above, what the rebalance cadence has committed to.
        self._steps_sent = 0
        self._rebalance_lock = asyncio.Lock()
        self._restart_lock = asyncio.Lock()
        self.rids = RidCache()
        self._metrics_http: Optional[MetricsHTTPServer] = None
        self._owns_run_dir: Optional[tempfile.TemporaryDirectory] = None

        reg = MetricsRegistry()
        self.registry = reg
        self.m_workers = reg.gauge(
            "jg_shard_workers", "Worker processes in the pool."
        )
        self.m_worker_up = reg.gauge(
            "jg_shard_worker_up",
            "1 while the worker is serving, 0 across a restart.",
            ("worker",),
        )
        self.m_worker_epoch = reg.gauge(
            "jg_shard_worker_epoch",
            "Restart epoch baked into the worker's session ids.",
            ("worker",),
        )
        self.m_requests = reg.counter(
            "jg_shard_requests_total",
            "Requests routed to workers, by worker and type.",
            ("worker", "type"),
        )
        self.m_steps = reg.counter(
            "jg_shard_steps_total",
            "Heartbeats routed fleet-wide (batch entries included).",
        )
        self.m_sessions_placed = reg.counter(
            "jg_shard_sessions_placed_total",
            "Sessions placed on the ring, by worker.",
            ("worker",),
        )
        self.m_lease = reg.gauge(
            "jg_shard_lease_joules",
            "Joules currently leased, by worker.",
            ("worker",),
        )
        self.m_unleased = reg.gauge(
            "jg_shard_unleased_joules",
            "Joules in the router's unleased pool.",
        )
        self.m_forfeited = reg.gauge(
            "jg_shard_forfeited_joules",
            "Joules written off to worker crashes, ever.",
        )
        self.m_lease_moves = reg.counter(
            "jg_shard_lease_moves_total",
            "Lease ledger movements, by worker and direction.",
            ("worker", "direction"),
        )
        self.m_rebalances = reg.counter(
            "jg_shard_rebalances_total",
            "Cross-shard rebalance rounds driven by the router.",
        )
        self.m_restarts = reg.counter(
            "jg_shard_worker_restarts_total",
            "Worker crash/restart cycles, by worker.",
            ("worker",),
        )

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the workers, connect, and bind the client listeners."""
        if self.run_dir is None:
            self._owns_run_dir = tempfile.TemporaryDirectory(
                prefix="jg-shards-"
            )
            self.run_dir = self._owns_run_dir.name
        Path(self.run_dir).mkdir(parents=True, exist_ok=True)
        for index in range(self.n_shards):
            self.ledger.add_shard(f"w{index}")
            handle = await self._spawn_worker(index, epoch=0)
            self._workers.append(handle)
        self._ring = HashRing(list(range(self.n_shards)))
        self.m_workers.labels().set(float(self.n_shards))
        self.m_unleased.labels().set(self.ledger.available_j)
        await self._listen(self.port)
        if self.metrics_host is not None:
            self._metrics_http = MetricsHTTPServer(
                self.registry,
                host=self.metrics_host,
                port=self.metrics_port,
            )
            await self._metrics_http.start()
            self.metrics_port = self._metrics_http.address[1]

    async def aclose(self) -> None:
        """Stop listeners and live connections, then the workers."""
        metrics_http, self._metrics_http = self._metrics_http, None
        await self._close_listeners()
        if metrics_http is not None:
            await metrics_http.aclose()
        workers, self._workers = self._workers, []
        for handle in workers:
            await self._stop_worker(handle)
        if self._owns_run_dir is not None:
            self._owns_run_dir.cleanup()
            self._owns_run_dir = None

    async def _stop_worker(self, handle: WorkerHandle) -> None:
        channel, handle.channel = handle.channel, None
        if channel is not None:
            channel.close()
        if handle.process.poll() is None:
            handle.process.terminate()
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, handle.process.wait, 5.0
                )
            except subprocess.TimeoutExpired:  # jglint: disable=JG009
                # Escalation is the handling: a worker that ignores
                # SIGTERM for 5 s gets SIGKILLed.
                handle.process.kill()
                handle.process.wait()
        with contextlib.suppress(OSError):
            if os.path.exists(handle.unix_path):
                os.unlink(handle.unix_path)

    # -- worker processes ------------------------------------------------------
    def _worker_command(
        self, unix_path: str, prefix: str
    ) -> List[str]:
        command = [
            self.python,
            "-m",
            "repro",
            "serve",
            "--unix",
            unix_path,
            "--budget-j",
            repr(LEASE_FLOOR_J),
            "--session-prefix",
            prefix,
            "--external-rebalance",
            "--admin",
            "--idle-timeout",
            str(self.idle_timeout_s),
            "--reap-interval",
            str(self.reap_interval_s),
        ]
        if self.state_dir is not None:
            command += ["--state-dir", self.state_dir]
        return command

    async def _spawn_worker(self, index: int, epoch: int) -> WorkerHandle:
        unix_path = str(
            Path(self.run_dir) / f"w{index}e{epoch}.sock"
        )
        log_path = Path(self.run_dir) / f"w{index}e{epoch}.log"
        env = dict(os.environ)
        package_src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = package_src + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else ""
        )
        prefix = f"w{index}e{epoch}-"
        with open(log_path, "ab") as log_file:
            process = subprocess.Popen(
                self._worker_command(unix_path, prefix),
                stdout=log_file,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=env,
            )
        handle = WorkerHandle(
            index, epoch, unix_path, process, log_path
        )
        await self._wait_ready(handle)
        self.ledger.lease(
            handle.name,
            min(joules_to_uj(LEASE_FLOOR_J), self.ledger.unleased_uj),
        )
        self._publish_ledger(handle)
        self.m_worker_up.labels(handle.name).set(1.0)
        self.m_worker_epoch.labels(handle.name).set(float(epoch))
        self.events.append(
            "worker_started",
            worker=handle.name,
            epoch=epoch,
            pid=process.pid,
        )
        return handle

    async def _wait_ready(self, handle: WorkerHandle) -> None:
        """Connect to the worker, retrying until its socket answers."""
        loop = asyncio.get_running_loop()
        deadline = time.monotonic() + self.worker_ready_timeout_s
        last_error: Optional[BaseException] = None
        while time.monotonic() < deadline:
            if handle.process.poll() is not None:
                break
            channel = None
            try:
                _, channel = await loop.create_unix_connection(
                    LineChannel, handle.unix_path
                )
                line = await asyncio.wait_for(
                    channel.request(encode_message({"type": "hello"})),
                    timeout=5.0,
                )
                if decode_message(line).get("ok"):
                    handle.channel = channel
                    return
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                last_error = exc
            if channel is not None:
                channel.close()
            await asyncio.sleep(0.05)
        handle.process.kill()
        raise RuntimeError(
            f"worker {handle.prefix!r} did not become ready within "
            f"{self.worker_ready_timeout_s:.0f}s "
            f"(log: {handle.log_path}): {last_error}"
        )

    async def _restart_worker(self, crashed: WorkerHandle) -> None:
        """Forfeit a dead worker's lease and spawn its successor."""
        async with self._restart_lock:
            current = self._workers[crashed.index]
            if current is not crashed:
                return  # another coroutine already replaced it
            self.m_worker_up.labels(crashed.name).set(0.0)
            forfeited_uj = self.ledger.forfeit(crashed.name)
            self.m_forfeited.labels().set(
                uj_to_joules(self.ledger.forfeited_uj)
            )
            self._publish_ledger(crashed)
            self.m_restarts.labels(crashed.name).inc()
            self.events.append(
                "worker_crashed",
                worker=crashed.name,
                epoch=crashed.epoch,
                forfeited_j=uj_to_joules(forfeited_uj),
            )
            stale = [
                session_id
                for session_id in self._open_order
                if session_id.startswith(crashed.prefix)
            ]
            for session_id in stale:
                del self._open_order[session_id]
            await self._stop_worker(crashed)
            replacement = await self._spawn_worker(
                crashed.index, crashed.epoch + 1
            )
            self._workers[crashed.index] = replacement

    # -- worker I/O ------------------------------------------------------------
    @staticmethod
    def _worker_line(payload: Dict[str, Any]) -> bytes:
        """``payload`` encoded for a worker, if the worker would read it.

        Re-encoding escapes every non-ASCII character, so a client line
        under ``MAX_LINE_BYTES`` can come out over it.  A worker would
        answer such a line ``bad_request`` and hang up, which the
        router would take for a crash; refuse it here instead.
        """
        line = encode_message(payload)
        if len(line) - 1 > MAX_LINE_BYTES:  # the limit excludes b"\n"
            raise ProtocolError(
                "bad_request",
                f"message exceeds {MAX_LINE_BYTES} bytes once re-encoded "
                "for its worker",
            )
        return line

    async def _call_worker(
        self,
        handle: WorkerHandle,
        payload: Dict[str, Any],
        line: Optional[bytes] = None,
    ) -> bytes:
        """One round trip, pipelined on the worker's FIFO channel.

        Sends ``line`` when given (``payload`` already encoded, such as
        a client's own request bytes), else ``payload`` encoded (see
        :meth:`_worker_line`); returns the reply line.  Replies
        complete in send order.  Nothing may await between the reply
        and the return: tracing pairs each call with the worker request
        it made by that order.
        """
        if handle.channel is None:
            raise ConnectionError("worker connection is down")
        line = line or self._worker_line(payload)
        task = asyncio.current_task()
        if isinstance(task, _LineTask):
            task.sent = True
        reply = await handle.channel.request(line)
        self.m_requests.labels(
            handle.name, str(payload.get("type", "?"))
        ).inc()
        return reply

    async def _send(
        self,
        handle: WorkerHandle,
        payload: Dict[str, Any],
        line: Optional[bytes] = None,
    ) -> Response:
        """The reply line; a dead worker is restarted, answered unavailable."""
        try:
            return await self._call_worker(handle, payload, line)
        except (ConnectionError, OSError):
            await self._restart_worker(handle)
            return error_response(
                "unavailable",
                f"worker {handle.name} crashed; its sessions are "
                "lost (reopen to recover from the snapshot store)",
            )

    async def _forward(
        self, handle: WorkerHandle, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """:meth:`_send`, the reply decoded."""
        reply = await self._send(handle, payload)
        return reply if isinstance(reply, dict) else decode_message(reply)

    # -- lease plumbing --------------------------------------------------------
    def _publish_ledger(self, handle: WorkerHandle) -> None:
        self.m_lease.labels(handle.name).set(
            self.ledger.balance_j(handle.name)
        )
        self.m_unleased.labels().set(self.ledger.available_j)

    def _ledger_sync(
        self, handle: WorkerHandle, reported_budget_j: float
    ) -> None:
        """Mirror a worker's reported budget into the ledger exactly.

        The worker clamps lease deltas (never below spent + committed),
        so the applied budget is authoritative; syncing to it keeps the
        integer ledger drift-free instead of accumulating float dust.
        """
        target_uj = joules_to_uj(reported_budget_j)
        current_uj = self.ledger.leased_uj[handle.name]
        if target_uj > current_uj:
            moved = self.ledger.lease(
                handle.name,
                min(target_uj - current_uj, self.ledger.unleased_uj),
            )
            if moved:
                self.m_lease_moves.labels(handle.name, "lease").inc(
                    uj_to_joules(moved)
                )
        elif target_uj < current_uj:
            moved = self.ledger.reclaim(
                handle.name, current_uj - target_uj
            )
            if moved:
                self.m_lease_moves.labels(handle.name, "reclaim").inc(
                    uj_to_joules(moved)
                )
        self._publish_ledger(handle)

    async def _lease_delta(
        self, handle: WorkerHandle, delta_j: float
    ) -> bool:
        """Adjust a worker's budget by ``delta_j``; sync the ledger."""
        if delta_j > 0:
            want_uj = joules_to_uj(delta_j) + 1  # +1 uJ: float pad
            if want_uj > self.ledger.unleased_uj:
                return False
            delta_j = uj_to_joules(want_uj)
        response = await self._forward(
            handle, {"type": "admin_lease", "delta_j": delta_j}
        )
        if not response.get("ok"):
            return False
        self._ledger_sync(handle, float(response["budget_j"]))
        return True

    async def _reclaim_surplus(self, handle: WorkerHandle) -> None:
        """Shrink a worker back toward its floor lease.

        Run after every close/kill: the worker clamps at spent +
        committed, so exactly the retired session's residual grant
        flows back to the unleased pool — the "donation" half of the
        zero-sum story.
        """
        surplus_j = self.ledger.balance_j(handle.name) - LEASE_FLOOR_J
        if surplus_j <= 0:
            return
        await self._lease_delta(handle, -surplus_j)

    # -- routing ---------------------------------------------------------------
    def _worker_for_session(self, session_id: Any) -> WorkerHandle:
        if not isinstance(session_id, str):
            raise ProtocolError(
                "bad_request", "request needs a string 'session'"
            )
        match = SESSION_PREFIX_RE.match(session_id)
        if match is None:
            raise SessionError(
                "unknown_session",
                f"no live session {session_id!r} "
                "(closed, reaped, or never opened)",
            )
        index, epoch = int(match.group(1)), int(match.group(2))
        if index >= len(self._workers):
            raise SessionError(
                "unknown_session",
                f"no live session {session_id!r} (no such shard)",
            )
        handle = self._workers[index]
        if handle.epoch != epoch:
            raise SessionError(
                "unknown_session",
                f"no live session {session_id!r} (its worker "
                "restarted; the session died with it)",
            )
        return handle

    # -- client-facing server --------------------------------------------------
    @staticmethod
    def _decoded(line: bytes) -> Tuple[bytes, Any]:
        """``(line, message)``, or ``(line, error)`` if it fails to decode."""
        try:
            return line, decode_message(line)
        except ProtocolError as exc:
            return line, exc

    def _start_early(self, request: Any) -> Any:
        """Start a relayed line on arrival, or hold it (the transport hook).

        A relayed verb starts while steps counted since the last
        rebalance plus steps sent and not yet counted stay below
        ``rebalance_period``, so no line reaches a worker between the
        boundary step and its rebalance.  Every other line, and one
        that fails to decode, is held.
        """
        if isinstance(request, bytes):
            request = self._decoded(request)
        message = request[1]
        if (
            isinstance(message, dict)
            and message.get("type") in _RELAYED
            and self._steps_since_rebalance + self._steps_sent
            < self.rebalance_period
        ):
            return self._serve_line(request)
        return request

    def _serve_line(self, request: Any) -> Any:
        """Answer a line, decoded once, with :meth:`handle_line`.

        Each line runs in a :class:`_LineTask`, which a hang-up no
        longer cancels once the line has reached a worker.  A step
        counts as sent until its task is done.
        """
        line, message = (
            request if isinstance(request, tuple) else self._decoded(request)
        )
        answer = _LineTask(self.handle_line(line, message))
        if isinstance(message, dict) and message.get("type") == "step":
            self._steps_sent += 1
            answer.add_done_callback(self._step_done)
        return answer

    def _step_done(self, _: Any) -> None:
        self._steps_sent -= 1

    async def handle_line(self, line: bytes, message: Any = None) -> Response:
        """Decode, route, and answer one request line.

        ``message`` is the line already decoded, or the
        :class:`ProtocolError` decoding it raised; ``None`` decodes
        ``line`` here.

        The single daemon's rid contract, owned here through
        :meth:`RidCache.run`: a retry the router has answered never
        reaches a worker again, even across a router reconnect, and a
        duplicate of a request still in flight awaits its reply.
        Relayed verbs reach their worker with the rid in the line, so
        the worker (an ordinary daemon) writes it into its reply and
        caches that reply too; the other verbs are forwarded stripped
        of it.
        """
        try:
            if message is None:
                message = decode_message(line)
            elif isinstance(message, ProtocolError):
                raise message
            rid = request_id_of(message)
        except ProtocolError as exc:
            return error_response(exc.code, exc.message)
        if rid is None:
            return await self._execute_line(message, line)
        return await self.rids.run(
            rid, lambda: self._execute_line(message, line)
        )

    async def _execute_line(
        self, message: Dict[str, Any], line: bytes
    ) -> Response:
        """Dispatch one decoded request.

        A relayed verb is forwarded as the client's own ``line``; the
        worker answers an ok, rid'd request with the rid already in
        its reply.  Other verbs get the message without its rid.
        """
        try:
            request_type, _ = parse_request(message)
            if request_type in ADMIN_TYPES:
                raise ProtocolError(
                    "bad_request",
                    "admin verbs are disabled on this listener",
                )
            handler = getattr(self, f"_handle_{request_type}")
            if request_type in _RELAYED:
                return await handler(message, line)
            return await handler(
                {k: v for k, v in message.items() if k != "rid"}
            )
        except Exception as exc:  # the router must answer every line
            return _error_envelope(exc)

    # -- verb handlers ---------------------------------------------------------
    async def _handle_hello(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        version = negotiate_version(message.get("version"))
        return ok_response(
            "hello",
            version=version,
            server="repro.service.shard",
            shards=self.n_shards,
            sessions=len(self._open_order),
            global_budget_j=self.budget_j,
            available_budget_j=self.ledger.available_j,
            forfeited_budget_j=uj_to_joules(self.ledger.forfeited_uj),
            workers=[
                {
                    "worker": handle.name,
                    "epoch": handle.epoch,
                    "up": handle.alive(),
                    "lease_j": self.ledger.balance_j(handle.name),
                }
                for handle in self._workers
            ],
        )

    async def _handle_open_session(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        key = (
            f"{message.get('client', '')}:"
            f"{message.get('seed', 0)}:{self._opens}"
        )
        self._opens += 1
        handle = self._workers[self._ring.route(key)]
        async with handle.admission_lock:
            response = await self._forward(handle, message)
            if not response.get("ok"):
                response = await self._open_with_lease(
                    handle, message, response
                )
        if response.get("ok"):
            session_id = response.get("session")
            if isinstance(session_id, str):
                self._open_order[session_id] = None
            self.m_sessions_placed.labels(handle.name).inc()
        return response

    async def _open_with_lease(
        self,
        handle: WorkerHandle,
        message: Dict[str, Any],
        rejection: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Lease the admission shortfall and retry the open once."""
        error = rejection.get("error")
        if (
            not isinstance(error, dict)
            or error.get("code") != "budget_exhausted"
        ):
            return rejection
        data = error.get("data")
        if not isinstance(data, dict) or "needed_j" not in data:
            return rejection
        needed_j = float(data["needed_j"])
        worker_available_j = float(data.get("available_j", 0.0))
        shortfall_j = needed_j - worker_available_j
        if shortfall_j > 0 and await self._lease_delta(
            handle, shortfall_j
        ):
            retried = await self._forward(handle, message)
            if retried.get("ok"):
                return retried
            # The lease was not enough (or the worker crashed under
            # us); give back what we can before reporting.
            await self._reclaim_surplus(handle)
            rejection = retried
            error = rejection.get("error", error)
        # Report fleet-wide availability, the number a single-process
        # daemon would have printed.
        if isinstance(error, dict) and isinstance(
            error.get("data"), dict
        ):
            error["data"]["available_j"] = (
                worker_available_j + self.ledger.available_j
            )
        return rejection

    async def _count_steps(self, n: int) -> None:
        """Advance the fleet-wide rebalance cadence by ``n`` heartbeats."""
        if n <= 0:
            return
        self.m_steps.labels().inc(float(n))
        # The counter is only ever mutated under the lock, so a
        # concurrent batch cannot lose its increment to the post-
        # rebalance reset (the lock is uncontended off-cadence).
        async with self._rebalance_lock:
            self._steps_since_rebalance += n
            if self._steps_since_rebalance >= self.rebalance_period:
                await self._rebalance()
                self._steps_since_rebalance = 0

    async def _handle_batch_step(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Split a client batch at rebalance boundaries; merge results.

        Validating the *whole* batch up front (same codec the worker
        uses, so error text matches a single daemon's) restores the
        batch contract across the split: an error response still means
        no sub-batch was ever sent, hence nothing was applied.
        """
        session_id = message.get("session")
        handle = self._worker_for_session(session_id)
        measurements = message.get("measurements")
        batch_measurements_from_payload(measurements)
        # Every sub-batch is a slice of this one, so if the whole batch
        # fits a worker line, so does each part: refuse it before any
        # part is sent.
        self._worker_line(
            {
                "type": "batch_step",
                "session": session_id,
                "measurements": measurements,
            }
        )
        results: List[Dict[str, Any]] = []
        throttle_total = 0.0
        killed = False
        index = 0
        while index < len(measurements):
            room = self.rebalance_period - self._steps_since_rebalance
            chunk = measurements[
                index : index + max(1, min(len(measurements), room))
            ]
            response = await self._forward(
                handle,
                {
                    "type": "batch_step",
                    "session": session_id,
                    "measurements": chunk,
                },
            )
            if not response.get("ok"):
                if index == 0:
                    return response
                # Later sub-batches can only fail if the worker died
                # mid-frame; earlier entries were applied, so answer
                # with what completed rather than pretend otherwise.
                killed = False
                break
            sub_results = response.get("results", [])
            results.extend(sub_results)
            throttle_total += float(
                response.get("enforcement", {}).get("throttle_s", 0.0)
            )
            killed = bool(response.get("killed"))
            applied = len(sub_results) - (1 if killed else 0)
            await self._count_steps(applied)
            if killed:
                await self._session_ended(handle, str(session_id))
                break
            index += len(chunk)
        return ok_response(
            "batch_step",
            results=results,
            completed=len(results),
            killed=killed,
            enforcement={
                "tier": (
                    results[-1]["enforcement"]["tier"]
                    if results
                    else "nominal"
                ),
                "throttle_s": throttle_total,
            },
        )

    async def _session_ended(
        self, handle: WorkerHandle, session_id: str
    ) -> None:
        self._open_order.pop(session_id, None)
        # Under the admission lock: a reclaim racing an in-flight
        # open's lease-then-retry could otherwise take back the grant
        # before the retried open commits it.
        async with handle.admission_lock:
            await self._reclaim_surplus(handle)

    async def _relay(self, message: Dict[str, Any], line: bytes) -> Response:
        """Forward a relayed verb; pass an ok reply back as its bytes.

        ``line`` is the request as the client sent it, and goes to the
        worker as it is.  An ok, not-killed reply is recognised by its
        first key and returned undecoded; any other reply (a kill, an
        error, a crashed worker) is decoded and returned as a dict.  A
        step advances the rebalance cadence; a close or a kill ends the
        session.
        """
        handle = self._worker_for_session(message.get("session"))
        if not line.endswith(b"\n"):
            line += b"\n"
        reply = await self._send(handle, message, line)
        if isinstance(reply, bytes) and reply.startswith(_OK_PREFIXES):
            response: Response = reply + b"\n"
            ok, killed = True, False
        else:
            if isinstance(reply, bytes):
                reply = decode_message(reply)
            response = reply
            ok, killed = bool(reply.get("ok")), bool(reply.get("killed"))
        if ok:
            if killed or message["type"] == "close":
                await self._session_ended(handle, message["session"])
            elif message["type"] == "step":
                await self._count_steps(1)
        return response

    _handle_step = _handle_report = _handle_snapshot = _handle_close = _relay

    async def _handle_metrics(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        return ok_response(
            "metrics",
            samples=[
                sample.as_dict()
                for sample in self.registry.samples()
            ],
        )

    async def _handle_events(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        since = message.get("since", 0)
        if not isinstance(since, int) or isinstance(since, bool):
            raise ProtocolError(
                "bad_request", "'since' must be an integer cursor"
            )
        events = self.events.since(max(0, since))
        return ok_response(
            "events",
            events=[event.as_dict() for event in events],
            next=self.events.next_seq - 1,
        )

    # -- the global rebalance --------------------------------------------------
    async def _rebalance(self) -> Dict[str, float]:
        """One fleet-wide rebalance round, scatter-gather style.

        Gathers per-session inputs from every worker at once, merges
        them in global open order (the single-process dict order),
        whatever order the replies came in, plans with
        the shared pure :func:`plan_rebalance`, and applies each
        worker's slice — net donors first, so the lease pool always
        holds the joules a net receiver is about to be granted.
        """
        gathered: Dict[str, Tuple[float, float]] = {}
        owner: Dict[str, WorkerHandle] = {}
        workers = list(self._workers)
        responses = await asyncio.gather(
            *(
                self._forward(handle, {"type": "admin_rebalance_inputs"})
                for handle in workers
            )
        )
        for handle, response in zip(workers, responses):
            if not response.get("ok"):
                continue  # crashed worker: its sessions are gone
            surpluses = response.get("surpluses", {})
            overdrafts = response.get("overdrafts", {})
            for session_id, surplus in surpluses.items():
                gathered[session_id] = (
                    float(surplus),
                    float(overdrafts.get(session_id, 0.0)),
                )
                owner[session_id] = handle
        merged_surpluses = {
            session_id: gathered[session_id][0]
            for session_id in self._open_order
            if session_id in gathered
        }
        merged_overdrafts = {
            session_id: gathered[session_id][1]
            for session_id in merged_surpluses
        }
        deltas = plan_rebalance(
            merged_surpluses, merged_overdrafts, self.transfer_fraction
        )
        slices: Dict[int, Dict[str, float]] = {}
        for session_id, delta_j in deltas.items():
            handle = owner[session_id]
            slices.setdefault(handle.index, {})[session_id] = delta_j
        nets = {
            index: sum(plan.values())
            for index, plan in slices.items()
        }
        for index in sorted(slices, key=lambda i: nets[i]):
            handle = self._workers[index]
            if not any(slices[index].values()):
                continue
            response = await self._forward(
                handle,
                {
                    "type": "admin_rebalance_apply",
                    "deltas": slices[index],
                },
            )
            if not response.get("ok"):
                continue
            net_j = float(response.get("net_j", 0.0))
            if abs(net_j) > 0.0:
                await self._lease_delta(handle, net_j)
        self.m_rebalances.labels().inc()
        self.events.append(
            "rebalance",
            sessions=len(merged_surpluses),
            moved_j=round(
                sum(d for d in deltas.values() if d > 0), 6
            ),
        )
        return deltas


# -- entry points --------------------------------------------------------------
async def _serve_router(
    router: ShardRouter, ready: Optional[Any] = None
) -> None:
    await router.start()
    if ready is not None:
        ready.set()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    # SIGTERM must reach aclose(): the default handler kills the
    # router outright and orphans the worker processes.  (SIGINT
    # already unwinds through asyncio.run's KeyboardInterrupt.)
    with contextlib.suppress(NotImplementedError, RuntimeError):
        loop.add_signal_handler(signal.SIGTERM, stop.set)
    try:
        await stop.wait()
    finally:
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.remove_signal_handler(signal.SIGTERM)
        await router.aclose()


def serve_sharded(
    router: ShardRouter, ready: Optional[Any] = None
) -> None:
    """Run a shard router in the foreground until interrupted."""
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_serve_router(router, ready))


class ShardThread(LoopThread):
    """A sharded daemon in a background thread (tests, benchmarks).

    Mirrors :class:`~repro.service.server.ServerThread`: enter to get
    a running router, connect a plain :class:`ServiceClient` to its
    address, exit to tear down router and workers.
    """

    def __init__(self, router: ShardRouter) -> None:
        self.router = router
        super().__init__(router, "jouleguard-shard", 120.0)
