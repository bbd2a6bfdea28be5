"""One pipelined connection to the router is one serial daemon.

The router starts relayed lines (``step``, ``report``, ``snapshot``,
``close``) on arrival, while the lines ahead of them on the connection
are still in flight.  A seeded stream — four sessions, a runaway that
climbs the ladder to KILL, reports and snapshots, an ``open_session``
mid-stream that warm-starts from an earlier snapshot, a ``batch_step``
and well over 100 heartbeats across several rebalance boundaries — runs
through a two-worker router at pipeline depths 1, 4, 7 and 32, and
every reply must equal what a single daemon answered with the stream
sent one request at a time.

A second test watches the worker traffic itself: once a boundary step
is sent, nothing but the rebalance's admin verbs reaches a worker until
the rebalance is done.
"""

import pytest

from repro.service import (
    ServerThread,
    SessionManager,
    ShardRouter,
    ShardThread,
    SnapshotStore,
)

from .lockstep import PipeSlot, assert_traces_equal, run_pipeline

BUDGET_J = 1e4
PERIOD = 25

#: Slot 1 overspends, so every rebalance moves joules to it and a
#: heartbeat on the wrong side of a boundary changes later budgets.
SLOTS = [
    PipeSlot(app="x264", steps=40, seed=3),
    PipeSlot(app="bodytrack", steps=48, seed=5, burn=0.024),
    PipeSlot(app="x264", steps=40, seed=9, burn=0.15, warm_start=False),
    PipeSlot(app="x264", steps=25, seed=11, factor=1.2, burn=0.036),
]


def _stream():
    ops = [("open", 0, 0), ("open", 1, 0), ("open", 2, 0)]
    live = [0, 1, 2]
    for round_ in range(40):
        for slot in live:
            ops.append(("step", slot, 0))
        if round_ == 10:
            ops += [("report", 0, 0), ("snapshot", 0, 0)]
        if round_ == 14:
            ops.append(("open", 3, 0))
            live.append(3)
        if round_ == 20:
            ops.append(("batch", 1, 8))
        if round_ == 30:
            ops += [("snapshot", 1, 0), ("report", 3, 0)]
    ops += [("close", slot, 0) for slot in live]
    return ops


STREAM = _stream()


@pytest.fixture(scope="module")
def serial_trace(tmp_path_factory):
    store = SnapshotStore(directory=tmp_path_factory.mktemp("serial-store"))
    sock = str(tmp_path_factory.mktemp("serial") / "jg.sock")
    manager = SessionManager(
        global_budget_j=BUDGET_J, store=store, rebalance_period=PERIOD
    )
    with ServerThread(manager, unix_path=sock):
        return run_pipeline(sock, SLOTS, STREAM, depth=1)


def _router(tmp_path):
    return ShardRouter(
        n_shards=2,
        budget_j=BUDGET_J,
        unix_path=str(tmp_path / "router.sock"),
        state_dir=str(tmp_path / "store"),
        run_dir=str(tmp_path / "run"),
        rebalance_period=PERIOD,
    )


def _fields(reply):
    return {} if reply[0] == "error" else dict(reply)


def test_the_stream_reaches_every_interesting_event(serial_trace):
    replies = {(verb, slot): reply for verb, slot, reply in serial_trace}
    steps = [e for e in serial_trace if e[0] == "step"]
    errors = [e for e in steps if e[2][0] == "error"]
    assert len(steps) - len(errors) > 100
    assert {e[1] for e in errors} == {2}  # the killed runaway's tail
    killed = [e for e in serial_trace if _fields(e[2]).get("killed")]
    assert [e[1] for e in killed] == [2]
    assert _fields(replies[("open", 3)])["warm"] is True
    assert _fields(replies[("batch", 1)])["completed"] == 8
    assert all(
        reply[0] != "error"
        for verb, slot, reply in serial_trace
        if verb != "step" and slot != 2
    )


@pytest.mark.parametrize("depth", [1, 4, 7, 32])
def test_pipelined_router_equals_a_serial_daemon(
    serial_trace, tmp_path, depth
):
    router = _router(tmp_path)
    with ShardThread(router):
        trace = run_pipeline(router.unix_path, SLOTS, STREAM, depth)
        events = [event.as_dict() for event in router.events.since(0)]
    assert_traces_equal(serial_trace, trace)
    moved = [e["moved_j"] for e in events if e["kind"] == "rebalance"]
    assert len(moved) >= 4 and min(moved) > 0.0
    router.ledger.assert_balanced()
    assert router._steps_sent == 0


def test_no_relayed_line_passes_a_rebalance_boundary(tmp_path):
    router = _router(tmp_path)
    sent = []
    call_worker = router._call_worker
    rebalance = router._rebalance

    async def logged_call(handle, payload, line=None):
        sent.append(str(payload.get("type")))
        return await call_worker(handle, payload, line)

    async def logged_rebalance():
        sent.append("rebalance")
        try:
            return await rebalance()
        finally:
            sent.append("rebalanced")

    router._call_worker = logged_call
    router._rebalance = logged_rebalance
    slots = [
        PipeSlot(seed=seed, steps=200, burn=0.006 if seed else 0.004)
        for seed in range(4)
    ]
    ops = [("open", slot, 0) for slot in range(4)]
    for round_ in range(3 * PERIOD // 4 + 2):
        for slot in range(4):
            ops.append(("step", slot, 0))
        ops.append(("report", round_ % 4, 0))
    with ShardThread(router):
        trace = run_pipeline(router.unix_path, slots, ops, depth=8)
    assert all(reply[0] != "error" for _, _, reply in trace)
    assert sent.count("rebalanced") == 3
    assert sent.count("admin_rebalance_apply") >= 3
    steps = 0
    held = False
    for kind in sent:
        if kind == "rebalance":
            assert steps % PERIOD == 0 and held, sent
        elif kind == "rebalanced":
            held = False
        elif kind in ("step", "report", "snapshot", "close"):
            assert not held, f"{kind} sent past a boundary: {sent}"
            steps += kind == "step"
            held = steps % PERIOD == 0 and kind == "step"
