"""The line transport: reply order, framing limits, backpressure, shutdown.

The daemon and the shard router serve clients through one
:class:`~repro.service.transport.LineConnection`, and the router talks
to each worker over a pipelined
:class:`~repro.service.transport.LineChannel`.  These tests drive both
through real sockets.
"""

import asyncio
import contextlib
import gc
import json
import logging
import socket
import sys
import threading
import time

import pytest

from repro.service import (
    ServerThread,
    ServiceClient,
    SessionManager,
    ShardRouter,
    ShardThread,
)
from repro.service.protocol import MAX_LINE_BYTES
from repro.service.transport import LineChannel

#: A heartbeat far inside any session's budget (never throttled).
STEP = {"work": 1.0, "energy_j": 0.05, "rate": 30.0, "power_w": 18.0}


def _connect(path, timeout_s=10.0):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout_s)
    sock.connect(path)
    return sock, sock.makefile("rb")


def _send(sock, payload):
    sock.sendall(json.dumps(payload).encode() + b"\n")


def _reply(stream):
    line = stream.readline()
    assert line, "the server closed the connection without a reply"
    return json.loads(line)


def _padded(payload, size):
    """``payload`` plus a filler field, encoded to exactly ``size`` bytes."""
    base = len(json.dumps(dict(payload, pad="")).encode())
    return json.dumps(dict(payload, pad="x" * (size - base))).encode()


def _router(tmp_path, n_shards=1):
    return ShardRouter(
        n_shards=n_shards,
        budget_j=1e9,
        unix_path=str(tmp_path / "router.sock"),
        run_dir=str(tmp_path / "run"),
    )


def _open(client, seed=1):
    return client.open_session(
        machine="tablet",
        app="x264",
        factor=1.5,
        total_work=1e6,
        seed=seed,
    ).session


class TestRouterReplyOrder:
    """A client gone mid-request must not shift another client's reply.

    The router used to read each worker reply inside a lock it held
    across the round trip.  A client closing while its ``step`` was at
    the worker cancelled that read; the reply stayed buffered and the
    next request to the worker read it instead of its own answer.
    """

    def test_disconnect_mid_step_never_shifts_replies(self, tmp_path):
        router = _router(tmp_path)
        with ShardThread(router):
            with ServiceClient(unix_path=router.unix_path) as client:
                session = _open(client)
                for trial in range(40):
                    with socket.socket(socket.AF_UNIX) as gone:
                        gone.connect(router.unix_path)
                        step = {"type": "step", "session": session}
                        _send(gone, dict(step, measurement=STEP))
                    reply = client.request(
                        {"type": "report", "session": session}
                    )
                    assert reply["type"] == "report", (trial, reply)
                    assert reply["report"]["session"] == session

    def test_pipelined_replies_match_their_requests(self, tmp_path):
        router = _router(tmp_path, n_shards=2)
        with ShardThread(router):
            with ServiceClient(unix_path=router.unix_path) as client:
                sessions = [_open(client, seed) for seed in range(6)]
            sock, stream = _connect(router.unix_path)
            with sock, stream:
                expected = []
                for round_ in range(10):
                    for session in sessions:
                        kind = "step" if round_ % 2 else "report"
                        payload = {"type": kind, "session": session}
                        if kind == "step":
                            payload["measurement"] = STEP
                        _send(sock, payload)
                        expected.append(kind)
                got = [_reply(stream)["type"] for _ in expected]
        assert got == expected


class TestLineChannel:
    @staticmethod
    async def _with_peer(tmp_path, peer, body):
        """Run ``body(channel)`` against a stream server running ``peer``."""
        finished = asyncio.Event()

        async def handler(reader, writer):
            try:
                await peer(reader, writer)
            finally:
                writer.close()
                finished.set()

        path = str(tmp_path / "peer.sock")
        server = await asyncio.start_unix_server(handler, path=path)
        _, channel = await asyncio.get_running_loop().create_unix_connection(
            LineChannel, path
        )
        try:
            return await body(channel)
        finally:
            channel.close()
            await asyncio.wait_for(finished.wait(), timeout=5.0)
            server.close()
            await server.wait_closed()

    def test_cancelled_waiter_consumes_its_own_reply(self, tmp_path):
        release = None

        async def peer(reader, writer):
            await reader.readline()
            await reader.readline()
            await release.wait()
            writer.write(b"one\ntwo\n")
            await writer.drain()
            await reader.read()

        async def body(channel):
            nonlocal release
            release = asyncio.Event()
            first = channel.request(b"1\n")
            second = channel.request(b"2\n")
            first.cancel()
            release.set()
            return await asyncio.wait_for(second, timeout=5.0)

        reply = asyncio.run(self._with_peer(tmp_path, peer, body))
        assert reply == b"two"

    def test_peer_close_fails_waiters_and_later_requests(self, tmp_path):
        async def peer(reader, writer):
            await reader.readline()

        async def body(channel):
            pending = channel.request(b"1\n")
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(pending, timeout=5.0)
            with pytest.raises(ConnectionError):
                channel.request(b"2\n")

        asyncio.run(self._with_peer(tmp_path, peer, body))


class TestMaxLineBytes:
    """Lines up to ``MAX_LINE_BYTES`` are served; longer ones refused."""

    def _check(self, server, path, session=None):
        sock, stream = _connect(path)
        with sock, stream:
            sock.sendall(_padded({"type": "hello"}, 100_000) + b"\n")
            assert _reply(stream)["type"] == "hello"
            if session is not None:
                # Forwarded: the worker's framing sees the long line too.
                big = _padded(
                    {"type": "report", "session": session}, 100_000
                )
                sock.sendall(big + b"\n")
                assert _reply(stream)["type"] == "report"
            edge = _padded({"type": "hello"}, MAX_LINE_BYTES)
            sock.sendall(edge + b"\n")
            assert _reply(stream)["type"] == "hello"
            errors = server.connection_errors
            over = _padded({"type": "hello"}, MAX_LINE_BYTES + 1)
            sock.sendall(over + b"\n")
            refused = _reply(stream)
            assert refused["ok"] is False
            assert refused["error"]["code"] == "bad_request"
            assert stream.readline() == b""  # connection closed
        assert server.connection_errors == errors + 1

    def test_daemon(self, tmp_path):
        path = str(tmp_path / "jg.sock")
        manager = SessionManager(global_budget_j=1e6)
        with ServerThread(manager, unix_path=path) as handle:
            self._check(handle.server, path)

    def test_router(self, tmp_path):
        router = _router(tmp_path)
        with ShardThread(router):
            with ServiceClient(unix_path=router.unix_path) as client:
                session = _open(client)
            self._check(router, router.unix_path, session)


class TestBackpressure:
    def test_unread_pipeline_is_answered_in_order(self, tmp_path):
        """A client that writes far ahead of reading gets every reply.

        The replies outgrow the socket buffer, so the daemon pauses
        answering, its read-ahead fills, reading pauses, and the
        client's writes block until it starts reading.
        """
        path = str(tmp_path / "jg.sock")
        count = 5000
        manager = SessionManager(global_budget_j=1e6)
        with ServerThread(manager, unix_path=path):
            sock, stream = _connect(path, timeout_s=30.0)
            with sock, stream:
                lines = b"".join(
                    json.dumps({"type": "hello", "rid": f"h{i}"}).encode()
                    + b"\n"
                    for i in range(count)
                )
                writer = threading.Thread(
                    target=sock.sendall, args=(lines,)
                )
                writer.start()
                time.sleep(0.3)
                rids = [_reply(stream)["rid"] for _ in range(count)]
                writer.join(timeout=30.0)
        assert rids == [f"h{i}" for i in range(count)]


class _Stall:
    """Request chaos that parks every request for a long delay."""

    def on_request(self):
        return "deliver"

    def delay_for(self):
        return 60.0


@contextlib.contextmanager
def _no_leaked_tasks():
    """Fail on destroyed-pending tasks or errors from a closed loop."""
    unraisable = []
    records = []

    class Collect(logging.Handler):
        def emit(self, record):
            records.append(record.getMessage())

    handler = Collect(level=logging.WARNING)
    logger = logging.getLogger("asyncio")
    previous_hook = sys.unraisablehook
    sys.unraisablehook = unraisable.append
    logger.addHandler(handler)
    try:
        yield
        gc.collect()
    finally:
        logger.removeHandler(handler)
        sys.unraisablehook = previous_hook
    assert [repr(u.exc_value) for u in unraisable] == []
    assert records == []


class TestCleanShutdown:
    """Stopping a daemon or router with clients attached leaks nothing."""

    def test_daemon_with_a_request_in_flight(self, tmp_path):
        path = str(tmp_path / "jg.sock")
        manager = SessionManager(global_budget_j=1e6)
        with _no_leaked_tasks():
            handle = ServerThread(manager, unix_path=path, chaos=_Stall())
            handle.start()
            idle = _connect(path)
            busy = _connect(path)
            _send(busy[0], {"type": "hello"})
            time.sleep(0.2)
            started = time.monotonic()
            handle.stop()
            assert time.monotonic() - started < 5.0
            for sock, stream in (idle, busy):
                stream.close()
                sock.close()

    def test_router_with_connected_clients(self, tmp_path):
        router = _router(tmp_path)
        with _no_leaked_tasks():
            handle = ShardThread(router).start()
            with ServiceClient(unix_path=router.unix_path) as client:
                client.hello()
                _open(client)
                handle.stop()
