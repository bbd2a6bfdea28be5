"""In-memory span recording for the traced run, and its analysis.

:func:`install` wraps the public functions of each layer of the
daemon with a span recorder.  A span is (name, start, end, parent,
tag) on ``CLOCK_MONOTONIC``, which every process on the host shares, so
the router's spans and its workers' spans are comparable.  The parent
is tracked per asyncio task through a context variable, so the router's
interleaved requests keep separate span trees.  Spans stay in memory
and are dumped once when the process exits.

Functions are patched in every module that calls them: the server and
router import the codec names directly, so patching only
``repro.service.protocol`` would miss their calls.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

_CURRENT: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_span", default=-1
)

#: Request types, for tagging spans; index + 1 is the tag, 0 = none.
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
_TYPE_TAG = {name: i + 1 for i, name in enumerate(REQUEST_TYPES)}
ADMIN_TAGS = frozenset(
    _TYPE_TAG[name] for name in REQUEST_TYPES if name.startswith("admin_")
)
HELLO_TAG = _TYPE_TAG["hello"]
#: A router-to-worker call is tagged ``worker index * stride + type tag``.
WORKER_STRIDE = 64


class Recorder:
    """Flat arrays of spans; index order is span-open order."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.tag = array("i")

    def intern(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        tag: Optional[Callable[[tuple, Any], int]] = None,
    ) -> Callable[..., Any]:
        nid = self.intern(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, tags, clock = self.parent, self.tag, time.monotonic_ns

        def open_span() -> int:
            index = len(start)
            name_id.append(nid)
            parent.append(_CURRENT.get())
            tags.append(0)
            end.append(0)
            start.append(clock())
            return index

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                index = open_span()
                token = _CURRENT.set(index)
                try:
                    result = await fn(*args, **kwargs)
                    if tag is not None:
                        tags[index] = tag(args, result)
                    return result
                finally:
                    end[index] = clock()
                    _CURRENT.reset(token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_span()
            token = _CURRENT.set(index)
            try:
                result = fn(*args, **kwargs)
                if tag is not None:
                    tags[index] = tag(args, result)
                return result
            finally:
                end[index] = clock()
                _CURRENT.reset(token)

        return traced

    def dump(self, path: Path, header: Dict[str, Any]) -> None:
        header = dict(header, names=self.names, count=len(self.start))
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".bin"), "wb") as out:
            for column in (
                self.name_id, self.start, self.end, self.parent, self.tag
            ):
                column.tofile(out)


def _response_tag(args: tuple, response: Any) -> int:
    return _TYPE_TAG.get(response.get("type"), 0)


def _call_tag(args: tuple, response: Any) -> int:
    handle, payload = args[1], args[2]
    return handle.index * WORKER_STRIDE + _TYPE_TAG.get(payload.get("type"), 0)


def install(recorder: Recorder) -> None:
    """Wrap every traced function of the daemon, router and workers."""
    from repro.core.jouleguard import JouleGuardRuntime
    from repro.enforce.ladder import EnforcementLadder
    from repro.service import protocol, server, sessions, shard, state
    from repro.service.lease import LeaseLedger
    from repro.service.telemetry import ServiceTelemetry, SessionStepRecorder

    def patch_function(layer: str, name: str, modules: List[Any]) -> None:
        wrapped = recorder.wrap(f"{layer}:{name}", getattr(modules[0], name))
        for module in modules:
            if hasattr(module, name):
                setattr(module, name, wrapped)

    def patch_method(layer: str, cls: type, name: str, tag=None) -> None:
        setattr(
            cls,
            name,
            recorder.wrap(
                f"{layer}:{cls.__name__}.{name}", getattr(cls, name), tag
            ),
        )

    for name in (
        "decode_message",
        "encode_message",
        "parse_request",
        "measurement_from_payload",
        "batch_measurements_from_payload",
        "decision_payload",
    ):
        patch_function("protocol", name, [protocol, server, shard])
    for name in ("capture_state", "apply_state"):
        patch_function("state", name, [state, sessions])
    patch_function("sessions", "plan_rebalance", [sessions, shard])

    patch_method("server", server.ServiceServer, "handle_line", _response_tag)
    for name in (
        "step",
        "open_session",
        "close",
        "snapshot",
        "rebalance",
        "rebalance_inputs",
        "apply_rebalance",
    ):
        patch_method("sessions", sessions.SessionManager, name)
    patch_method("core", JouleGuardRuntime, "step")
    patch_method("enforce", EnforcementLadder, "observe")
    for name in sorted(vars(ServiceTelemetry)):
        if name.startswith("record_"):
            patch_method("telemetry", ServiceTelemetry, name)
    patch_method("telemetry", SessionStepRecorder, "record")
    for name in ("lease", "reclaim"):
        patch_method("lease", LeaseLedger, name)
    patch_method("shard", shard.ShardRouter, "handle_line")
    patch_method("shard", shard.ShardRouter, "_call_worker", _call_tag)
    patch_method("shard", shard.ShardRouter, "_rebalance")


# -- analysis (runs in the benchmark process) -------------------------------
class Trace:
    """One process's dumped spans, as numpy columns."""

    def __init__(self, json_path: Path) -> None:
        import numpy as np

        header = json.loads(json_path.read_text())
        self.role: str = header["role"]
        self.pid: int = header["pid"]
        self.worker: int = header.get("worker", -1)
        self.names: List[str] = header["names"]
        n = header["count"]
        raw = json_path.with_suffix(".bin").read_bytes()
        columns = []
        offset = 0
        for dtype in ("i4", "i8", "i8", "i4", "i4"):
            size = np.dtype(dtype).itemsize * n
            columns.append(np.frombuffer(raw, dtype=dtype, count=n, offset=offset))
            offset += size
        self.name_id, self.start, self.end, self.parent, self.tag = columns
        done = self.end > 0
        self.dur = np.where(done, self.end - self.start, 0)
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent],
            weights=self.dur[has_parent],
            minlength=n,
        )
        self.self_ns = self.dur - child
        self.in_window = np.zeros(n, dtype=bool)

    def set_window(self, start_ns: int, end_ns: int) -> None:
        self.in_window = (self.start >= start_ns) & (self.start <= end_ns) & (self.end > 0)

    def ids_of(self, name: str):
        """Spans named ``name``, or of every function of a layer
        when ``name`` is a layer prefix such as ``"protocol:"``."""
        import numpy as np

        ids = [
            i
            for i, full in enumerate(self.names)
            if full == name or (name.endswith(":") and full.startswith(name))
        ]
        return np.isin(self.name_id, ids)

    def mask(self, name: str):
        """Like :meth:`ids_of`, restricted to spans in the window."""
        return self.in_window & self.ids_of(name)


def load_traces(trace_dir: Path) -> List[Trace]:
    return [Trace(path) for path in sorted(trace_dir.glob("spans-*.json"))]


def router_self_ns(traces: List[Trace]) -> List[int]:
    """Per router request: its span minus its workers' ``handle_line``.

    Each worker serves the router's requests in order on one
    connection, so the k-th ``_call_worker`` to finish for worker w is
    the k-th request w handled; the request types are checked to
    confirm the pairing.
    """
    import numpy as np

    routers = [t for t in traces if t.role == "router"]
    if not routers:
        return []
    router = routers[0]
    worker_ns: Dict[int, int] = {}
    calls = np.flatnonzero(router.ids_of("shard:ShardRouter._call_worker") & (router.end > 0))
    for trace in traces:
        if trace.role != "worker":
            continue
        handled = np.flatnonzero(
            trace.ids_of("server:ServiceServer.handle_line")
            & (trace.end > 0)
            & (trace.tag != HELLO_TAG)
        )
        handled = handled[np.argsort(trace.start[handled], kind="stable")]
        mine = calls[router.tag[calls] // WORKER_STRIDE == trace.worker]
        mine = mine[np.argsort(router.end[mine], kind="stable")]
        if len(mine) != len(handled):
            raise RuntimeError(
                f"trace: worker {trace.worker} handled {len(handled)} "
                f"requests, the router sent {len(mine)}"
            )
        sent_types = router.tag[mine] % WORKER_STRIDE
        got_types = trace.tag[handled]
        if np.any((got_types != 0) & (got_types != sent_types)):
            raise RuntimeError("trace: router/worker request order differs")
        for call, span in zip(mine.tolist(), handled.tolist()):
            worker_ns[call] = int(trace.dur[span])
    requests = np.flatnonzero(router.mask("shard:ShardRouter.handle_line"))
    inner: Dict[int, int] = {int(r): 0 for r in requests}
    for call, spent in worker_ns.items():
        node = int(router.parent[call])
        while node >= 0 and node not in inner:
            node = int(router.parent[node])
        if node >= 0:
            inner[node] += spent
    return [int(router.dur[r]) - inner[int(r)] for r in requests]
