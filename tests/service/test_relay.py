"""The shard router's byte relay answers exactly what a daemon answers.

The router forwards ``step``/``report``/``snapshot``/``close`` requests
as the client's bytes, ``rid`` and all, and passes ok replies back as
the worker's bytes.
One seeded script runs over raw sockets against a single daemon and a
one-worker router, and every reply line must be byte-identical: ok and
error replies, each relayed verb with and without a rid, a killed step,
an unknown session and a replayed rid.  The daemon's session ids carry
the worker's ``w0e0-`` prefix so that even reports compare as bytes.

Requests are written with Python's default ``json.dumps`` layout
(spaces, insertion order), not the canonical one, so the bytes a
worker receives are the client's, not a re-encoding.
"""

import json
import socket

import pytest

from repro.service import (
    ServerThread,
    SessionManager,
    ShardRouter,
    ShardThread,
    SnapshotStore,
)

BUDGET_J = 1e4


class _Wire:
    """One raw connection: write a request line, read the reply line."""

    def __init__(self, path):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(60.0)
        self._sock.connect(path)
        self._file = self._sock.makefile("rwb")

    def send(self, request):
        line = request
        if isinstance(request, dict):
            line = json.dumps(request).encode() + b"\n"
        self._file.write(line)
        self._file.flush()
        reply = self._file.readline()
        assert reply.endswith(b"\n")
        return reply

    def close(self):
        self._file.close()
        self._sock.close()


def _open(wire, replies, seed, total_work=200.0, rid=None):
    request = {
        "type": "open_session",
        "machine": "tablet",
        "app": "x264",
        "factor": 1.5,
        "total_work": total_work,
        "seed": seed,
        "client": f"relay{seed}",
        "warm_start": False,
    }
    if rid is not None:
        request["rid"] = rid
    reply = wire.send(request)
    replies.append(reply)
    opened = json.loads(reply)
    return opened["session"], opened["granted_budget_j"]


def _step(session, energy_j, rid=None):
    request = {
        "type": "step",
        "session": session,
        "measurement": {
            "work": 1.0,
            "energy_j": energy_j,
            "rate": 10.0,
            "power_w": energy_j,
        },
    }
    if rid is not None:
        request["rid"] = rid
    return request


def _request(verb, session, rid=None):
    request = {"type": verb, "session": session}
    if rid is not None:
        request["rid"] = rid
    return request


# Rids a client may send: quotes, backslashes and non-ASCII are all
# escaped on the wire, and must come back escaped the same way.
RIDS = ['plain-1', 'quo"te', 'back\\slash', 'ünïcødé-€', 'x' * 128]


def run_script(wire):
    """Every reply line of the script, in order."""
    replies = []
    session, granted_j = _open(wire, replies, seed=3)
    for i in range(30):
        rid = f"{RIDS[i % len(RIDS)]}-{i}"[-128:] if i % 3 == 0 else None
        replies.append(wire.send(_step(session, 0.002 * granted_j, rid)))
    for verb in ("report", "snapshot"):
        replies.append(wire.send(_request(verb, session)))
        replies.append(wire.send(_request(verb, session, RIDS[1] + verb)))
    # A resent rid replays the first answer.
    resent = json.dumps(_step(session, 0.002 * granted_j, "again")) + "\n"
    replies.append(wire.send(resent.encode()))
    replies.append(wire.send(resent.encode()))
    # Unknown sessions: the worker's prefix, no such session.
    replies.append(wire.send(_step("w0e0-s999999", 1.0)))
    replies.append(wire.send(_step("w0e0-s999999", 1.0, "unknown")))
    replies.append(wire.send(_request("report", "w0e0-s999999")))
    # Runaways: each heartbeat burns 15 % of the grant until the
    # ladder kills the session; one without rids, one with.
    for seed, rid_prefix in ((7, None), (8, RIDS[3])):
        runaway, runaway_j = _open(wire, replies, seed, total_work=100.0)
        for i in range(40):
            rid = None if rid_prefix is None else f"{rid_prefix}{i}"
            reply = wire.send(_step(runaway, 0.15 * runaway_j, rid))
            replies.append(reply)
            if json.loads(reply).get("killed"):
                break
        else:
            raise AssertionError("the runaway was never killed")
    replies.append(wire.send(_request("close", session)))
    # A second session, closed with a rid (and the close replayed).
    other, other_j = _open(wire, replies, seed=4, rid=RIDS[2])
    for i in range(5):
        replies.append(wire.send(_step(other, 0.002 * other_j)))
    replies.append(wire.send(_request("close", other, RIDS[4])))
    replies.append(wire.send(_request("close", other, RIDS[4])))
    replies.append(wire.send(_request("close", other)))
    return replies


@pytest.fixture(scope="module")
def daemon_replies(tmp_path_factory):
    store = SnapshotStore(directory=tmp_path_factory.mktemp("d-store"))
    sock = str(tmp_path_factory.mktemp("daemon") / "jg.sock")
    manager = SessionManager(
        global_budget_j=BUDGET_J, store=store, session_prefix="w0e0-"
    )
    with ServerThread(manager, unix_path=sock):
        wire = _Wire(sock)
        try:
            yield run_script(wire)
        finally:
            wire.close()


@pytest.fixture(scope="module")
def router(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("relay-run")
    router = ShardRouter(
        n_shards=1,
        budget_j=BUDGET_J,
        unix_path=str(run_dir / "router.sock"),
        state_dir=str(tmp_path_factory.mktemp("r-store")),
        run_dir=str(run_dir),
    )
    with ShardThread(router):
        wire = _Wire(router.unix_path)
        try:
            yield router, wire, run_script(wire)
        finally:
            wire.close()


def _steps_total(router):
    return router.m_steps.samples()[0].value


def test_replies_are_byte_identical(daemon_replies, router):
    _, _, router_replies = router
    assert len(router_replies) == len(daemon_replies)
    for index, (got, want) in enumerate(
        zip(router_replies, daemon_replies)
    ):
        assert got == want, f"reply {index} differs"
    # The script covered what it claims to.
    decoded = [json.loads(line) for line in daemon_replies]
    assert any(r.get("killed") and "rid" in r for r in decoded)
    assert any(r.get("killed") and "rid" not in r for r in decoded)
    errors = [r["error"]["code"] for r in decoded if not r["ok"]]
    assert errors.count("unknown_session") >= 4
    for verb in ("step", "report", "snapshot", "close"):
        ok = [r for r in decoded if r.get("type") == verb and r["ok"]]
        assert any("rid" in r for r in ok), verb
        assert any("rid" not in r for r in ok), verb


def test_a_resent_rid_replays_without_stepping(router):
    router, wire, _ = router
    replies = []
    session, granted_j = _open(wire, replies, seed=21)
    line = json.dumps(_step(session, 0.002 * granted_j, 'r"é')) + "\n"
    first = wire.send(line.encode())
    steps = _steps_total(router)
    assert wire.send(line.encode()) == first
    assert _steps_total(router) == steps
    assert json.loads(first)["rid"] == 'r"é'
    wire.send(json.dumps(_request("close", session)).encode() + b"\n")


def test_unavailable_after_a_worker_crash_is_never_cached(router):
    router, wire, _ = router
    replies = []
    session, granted_j = _open(wire, replies, seed=22)
    victim = router._workers[0]
    victim.process.kill()
    victim.process.wait()
    line = json.dumps(_step(session, 0.002 * granted_j, "crash")) + "\n"
    first = json.loads(wire.send(line.encode()))
    assert first["error"]["code"] == "unavailable"
    assert "crash" not in router.rids.replies
    # The retry is not replayed: it reaches the restarted worker's
    # epoch check and finds the session gone.
    second = json.loads(wire.send(line.encode()))
    assert second["error"]["code"] == "unknown_session"
    assert "crash" not in router.rids.replies


def test_an_abandoned_rid_steps_its_session_once(router):
    # A client writes a rid'd step and hangs up at once; the router may
    # drop the rid's reservation before the worker answers.  The retry
    # reaches the same worker with the rid in the line, and the worker
    # answers it from its own cache if the original got there first.
    router, wire, _ = router
    replies = []
    session, granted_j = _open(wire, replies, seed=23)
    for trial in range(10):
        line = json.dumps(_step(session, 0.002 * granted_j, f"gone-{trial}"))
        gone = _Wire(router.unix_path)
        gone._file.write(line.encode() + b"\n")
        gone._file.flush()
        gone.close()
        retried = json.loads(wire.send(line.encode() + b"\n"))
        assert retried["ok"] and retried["rid"] == f"gone-{trial}"
    report = json.loads(wire.send(
        json.dumps(_request("report", session)).encode() + b"\n"
    ))
    assert report["report"]["steps"] == 10
    wire.send(json.dumps(_request("close", session)).encode() + b"\n")


def _too_long_open(live, granted_j):
    return {
        "type": "open_session",
        "machine": "tablet",
        "app": "x264",
        "factor": 1.5,
        "total_work": 200.0,
        "seed": 25,
        "client": "é" * 300_000,
        "warm_start": False,
    }


def _too_long_batch(live, granted_j):
    # The worker ignores a measurement's unknown fields, but the router
    # forwards them, so they count against the worker's line limit.
    measurement = _step(live, 0.002 * granted_j)["measurement"]
    return {
        "type": "batch_step",
        "session": live,
        "measurements": [measurement, {**measurement, "note": "é" * 300_000}],
    }


@pytest.mark.parametrize("make", [_too_long_open, _too_long_batch])
def test_a_request_too_long_for_its_worker_is_refused_unsent(router, make):
    # The router re-encodes open_session and batch_step for its worker
    # with every non-ASCII character escaped, so a client line under
    # the limit can come out over it.  The router must refuse it
    # itself: a worker that received it would answer bad_request and
    # hang up, and the router would take that for a crash (restart,
    # forfeit).
    router, wire, _ = router
    replies = []
    live, granted_j = _open(wire, replies, seed=24)
    handle = router._workers[0]
    forfeited_uj = router.ledger.forfeited_uj
    steps = _steps_total(router)
    if make is _too_long_batch:
        # One step before the next rebalance: the router splits the
        # batch after its first entry, so only a check of the whole
        # batch up front keeps that entry from being applied.
        router._steps_since_rebalance = router.rebalance_period - 1
    line = json.dumps(make(live, granted_j), ensure_ascii=False).encode()
    assert 500_000 < len(line) < 1_000_000
    refused = json.loads(wire.send(line + b"\n"))
    assert refused["ok"] is False
    assert refused["error"]["code"] == "bad_request"
    assert router._workers[0] is handle and handle.alive()
    assert router.ledger.forfeited_uj == forfeited_uj
    for _ in range(3):
        stepped = json.loads(wire.send(
            json.dumps(_step(live, 0.002 * granted_j)).encode() + b"\n"
        ))
        assert stepped["ok"], stepped
    # Nothing of the refused request was applied.
    assert _steps_total(router) == steps + 3
    router.ledger.assert_balanced()
    wire.send(json.dumps(_request("close", live)).encode() + b"\n")
