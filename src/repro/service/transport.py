"""The line transport under the daemon, the router and its workers.

Every connection carries newline-delimited protocol messages
(:mod:`repro.service.protocol`) through an :class:`asyncio.Protocol`,
with no stream reader, per-request task or lock:

* :class:`LineConnection` serves one client of a :class:`LineServer`
  (the daemon, the shard router).  Replies leave in request order.
  While nothing is queued, a synchronous answer (the scalar daemon's
  ``handle_line``) is written from ``data_received``; what must
  suspend (the router, vexec, chaos delays, THROTTLE holds) is awaited
  by the connection's one long-lived task, later lines queued behind
  it.  Reading pauses at 64 queued lines, answering while the write
  buffer is full.  A disconnect cancels the request in flight and
  drops the queue unexecuted; a line over ``MAX_LINE_BYTES`` is
  answered ``bad_request`` and ends the connection.
* :class:`LineChannel` is the router's pipelined link to one worker:
  requests are written in call order and each reply line resolves the
  oldest waiting future; a cancelled waiter still consumes its own.

The codec is called through the ``protocol`` module attribute, so
instrumentation that patches it sees every call.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
from collections import deque
from typing import Any, Callable, Deque, Optional, Set, Tuple

from . import protocol

__all__ = ["LineChannel", "LineConnection", "LineServer", "LoopThread"]

#: Lines a connection queues behind the executing request before it
#: stops reading; bounds what a flooding client can park in memory.
_READAHEAD_LINES = 64

_IDLE = object()


class LineConnection(asyncio.Protocol):
    """One client connection: framing, ordered replies, read-ahead."""

    def __init__(self, server: "LineServer") -> None:
        self._server = server
        self._serve = server._serve_line
        self._loop = asyncio.get_running_loop()
        self._transport: Any = None
        self._partial = b""
        self._queue: Deque[Any] = deque()
        #: True while the task owns the queue (non-empty or executing).
        self._busy = False
        self._task: Optional["asyncio.Task[None]"] = None
        self._wakeup: Optional["asyncio.Future[None]"] = None
        self._writable: Optional["asyncio.Future[None]"] = None
        self._input_done = False

    def connection_made(self, transport: Any) -> None:
        self._transport = transport
        self._server.connections += 1
        self._server._live.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if exc is not None:
            self._server.connection_errors += 1
        self._server._live.discard(self)
        self._drop()

    def abort(self) -> Optional["asyncio.Task[None]"]:
        """Drop the connection; return its task, now cancelled."""
        self._transport.abort()
        return self._drop()

    def _drop(self) -> Optional["asyncio.Task[None]"]:
        """Cancel the request in flight; queued lines die unexecuted."""
        self._input_done = True
        for item in self._queue:
            if asyncio.iscoroutine(item):
                item.close()
        self._queue.clear()
        if self._task is not None:
            self._task.cancel()
        return self._task

    def data_received(self, data: bytes) -> None:
        if self._input_done:
            return
        if self._partial:
            data = self._partial + data
        lines = data.split(b"\n")
        self._partial = lines.pop()
        for line in lines:
            if len(line) > protocol.MAX_LINE_BYTES:
                return self._overflow()
            if line and not line.isspace():
                self._accept(line)
        if len(self._partial) > protocol.MAX_LINE_BYTES:
            self._overflow()

    def _overflow(self) -> None:
        """An over-long line: answer it in order, then end the connection."""
        self._server.connection_errors += 1
        self._input_done = True
        self._transport.pause_reading()
        message = f"message exceeds {protocol.MAX_LINE_BYTES} bytes"
        self._accept(protocol.error_response("bad_request", message))
        self._accept(None)

    def _accept(self, item: Any) -> None:
        """Answer inline if nothing is ahead; otherwise queue ``item``.

        ``item`` is a request line (``bytes``), a ready response dict,
        ``None`` (close the connection) or an awaitable resolving to a
        response.  A reply line ``_serve`` returns is never queued: a
        queued ``bytes`` item is always a request.
        """
        if not self._busy and self._writable is None:
            if isinstance(item, bytes):
                item = self._serve(item)
                if isinstance(item, bytes):
                    return self._reply(item)
            if isinstance(item, dict):
                return self._reply(item)
            if item is None:
                return self._finish()
        self._queue.append(item)
        self._busy = True
        if self._task is None:
            self._task = self._loop.create_task(self._run())
        elif self._wakeup is not None and not self._wakeup.done():
            self._wakeup.set_result(None)
        if len(self._queue) >= _READAHEAD_LINES:
            self._transport.pause_reading()

    def _pop(self) -> Any:
        if not self._queue:
            self._busy = False
            self._wakeup = self._loop.create_future()
            return _IDLE
        if not self._input_done:
            self._transport.resume_reading()
        return self._queue.popleft()

    async def _run(self) -> None:
        """The connection's one task: serve queued items in order."""
        try:
            while True:
                item = self._pop()
                if item is _IDLE:
                    await self._wakeup
                    continue
                if self._writable is not None:
                    await self._writable
                if isinstance(item, bytes):
                    item = self._serve(item)
                if item is not None and not isinstance(item, (dict, bytes)):
                    item = await item
                if item is None:
                    return
                self._reply(item)
        finally:
            self._finish()

    def _reply(self, response: Any) -> None:
        if not self._transport.is_closing():
            if not isinstance(response, bytes):  # bytes: an encoded line
                response = protocol.encode_message(response)
            self._transport.write(response)

    def _finish(self) -> None:
        self._input_done = True
        self._transport.close()

    def pause_writing(self) -> None:
        self._writable = self._loop.create_future()

    def resume_writing(self) -> None:
        writable, self._writable = self._writable, None
        if writable is not None and not writable.done():
            writable.set_result(None)


class LineServer:
    """Listeners and live connections shared by the daemon and router.

    :meth:`_serve_line` (by default ``handle_line``) answers a line with
    a response — a dict, or an encoded reply line (``bytes``, written
    as it is) — or ``None`` (hang up), or with an awaitable of one.
    """

    handle_line: Callable[[bytes], Any]

    def __init__(
        self,
        host: Optional[str],
        port: int,
        unix_path: Optional[str],
        metrics_host: Optional[str],
        metrics_port: int,
    ) -> None:
        if host is None and unix_path is None:
            raise ValueError("need a TCP host and/or a unix socket path")
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.metrics_host = metrics_host
        self.metrics_port = metrics_port
        self.connections = 0
        self.connection_errors = 0
        self._live: Set[LineConnection] = set()
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._unix_server: Optional[asyncio.AbstractServer] = None

    def _serve_line(self, line: bytes) -> Any:
        return self.handle_line(line)

    def _new_connection(self) -> LineConnection:
        """Protocol factory for ``loop.create_server`` and friends."""
        return LineConnection(self)

    async def _listen(self, port: int) -> None:
        loop = asyncio.get_running_loop()
        if self.host is not None:
            tcp = await loop.create_server(
                self._new_connection, host=self.host, port=port
            )
            self._tcp_server = tcp
            self.port = tcp.sockets[0].getsockname()[1]
        if self.unix_path is not None:
            self._unix_server = await loop.create_unix_server(
                self._new_connection, path=self.unix_path
            )

    async def _close_listeners(self) -> None:
        """Stop accepting, then drop every live connection and its task."""
        servers = [self._tcp_server, self._unix_server]
        servers = [server for server in servers if server is not None]
        self._tcp_server = self._unix_server = None
        live, self._live = self._live, set()
        for server in servers:
            server.close()
        for task in [conn.abort() for conn in live]:
            if task is not None:
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        await asyncio.sleep(0)  # let the aborted transports finish closing
        for server in servers:
            await server.wait_closed()
        if self.unix_path is not None and os.path.exists(self.unix_path):
            os.unlink(self.unix_path)

    @property
    def tcp_address(self) -> Optional[Tuple[str, int]]:
        """The bound ``(host, port)``, once started with TCP enabled."""
        return None if self.host is None else (self.host, self.port)

    @property
    def metrics_address(self) -> Optional[Tuple[str, int]]:
        """The bound metrics ``(host, port)``, when enabled."""
        host, port = self.metrics_host, self.metrics_port
        return None if host is None else (host, port)


class LineChannel(asyncio.Protocol):
    """A pipelined request/reply connection: replies resolve a FIFO."""

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._transport: Any = None
        self._partial = b""
        self._waiters: Deque["asyncio.Future[bytes]"] = deque()

    def connection_made(self, transport: Any) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        if self._partial:
            data = self._partial + data
        lines = data.split(b"\n")
        self._partial = lines.pop()
        waiters = self._waiters
        for line in lines:
            if waiters:
                waiter = waiters.popleft()
                if not waiter.done():  # a cancelled waiter's line is dropped
                    waiter.set_result(line)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        waiters, self._waiters = self._waiters, deque()
        for waiter in waiters:
            if not waiter.done():
                waiter.set_exception(
                    ConnectionError("the peer closed the connection")
                )

    def request(self, line: bytes) -> "asyncio.Future[bytes]":
        """Send one encoded request; the future resolves to its reply line."""
        if self._transport.is_closing():
            raise ConnectionError("the connection is down")
        self._transport.write(line)
        waiter = self._loop.create_future()
        self._waiters.append(waiter)
        return waiter

    def close(self) -> None:
        self._transport.close()


class LoopThread:
    """A :class:`LineServer` on its own event loop in a daemon thread.

    Enter to start it, exit to stop it; stopping runs the server's
    ``aclose`` (live connections and their tasks included) before the
    loop closes.
    """

    def __init__(self, server: Any, name: str, timeout_s: float) -> None:
        self._server = server
        self._name = name
        self._timeout_s = timeout_s
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def unix_path(self) -> Optional[str]:
        return self._server.unix_path

    @property
    def tcp_address(self) -> Optional[Tuple[str, int]]:
        return self._server.tcp_address

    @property
    def metrics_address(self) -> Optional[Tuple[str, int]]:
        return self._server.metrics_address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._server.start())
        except BaseException as exc:  # surface bind errors to the caller
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
            loop.run_until_complete(self._server.aclose())
        finally:
            loop.close()

    def start(self) -> Any:
        self._thread = threading.Thread(
            target=self._run, name=self._name, daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=self._timeout_s)
        if self._startup_error is not None:
            raise RuntimeError(
                f"{self._name} failed to start"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=self._timeout_s)
            self._loop = None
            self._thread = None

    def run_coroutine(self, coroutine: Any) -> Any:
        """Run ``coroutine`` on the server's loop (white-box tests)."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout=60.0)

    def __enter__(self) -> Any:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
