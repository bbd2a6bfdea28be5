"""The router accounts every request it has sent, even if the client left.

A client that hangs up cancels the lines its connection has started.
Once a line is on a worker's channel the worker runs it, so the router
must finish it too: count a step toward ``jg_shard_steps_total`` and
the rebalance cadence, end a closed session and reclaim its grant,
track an admitted session, count a batch's applied sub-batches, and
keep a rid reserved until the reply is cached.  Only the reply to the
client is dropped.

The white-box tests start a line on the router's loop the way its
connection does, cancel its task the moment its request is on the
worker channel (what a hang-up does), and wait for the router to
finish it.
The socket test is the plain repro: 20 clients pipeline 8 steps each
for one session and hang up.
"""

import asyncio
import json
import socket
import time

import pytest

from repro.service import ShardRouter, ShardThread

BUDGET_J = 1e4


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("hangup-run")
    router = ShardRouter(
        n_shards=1,
        budget_j=BUDGET_J,
        unix_path=str(run_dir / "router.sock"),
        state_dir=str(tmp_path_factory.mktemp("hangup-store")),
        run_dir=str(run_dir),
    )
    with ShardThread(router) as thread:
        yield router, thread


def _line(request):
    return json.dumps(request).encode() + b"\n"


def _open_request(seed, rid=None):
    request = {
        "type": "open_session",
        "machine": "tablet",
        "app": "x264",
        "factor": 1.5,
        "total_work": 200.0,
        "seed": seed,
        "client": f"hangup{seed}",
        "warm_start": False,
    }
    if rid is not None:
        request["rid"] = rid
    return request


def _measurement(energy_j):
    return {"work": 1.0, "energy_j": energy_j, "rate": 10.0,
            "power_w": energy_j}


def _step(session, energy_j, rid=None):
    request = {
        "type": "step",
        "session": session,
        "measurement": _measurement(energy_j),
    }
    if rid is not None:
        request["rid"] = rid
    return request


async def _answer(router, request):
    """Serve one request line on the router's loop, as a connection would."""
    reply = await router._serve_line(_line(request))
    return reply if isinstance(reply, dict) else json.loads(reply)


async def _start_until_sent(router, request):
    """Start ``request`` as a connection would; return its task once sent."""
    channel = router._workers[0].channel
    sent = len(channel._waiters)
    task = router._serve_line(_line(request))
    for _ in range(5000):
        if len(channel._waiters) > sent:
            return task
        await asyncio.sleep(0)
    raise AssertionError("the request never reached the worker")


async def _hang_up_once_sent(router, request):
    """Cancel ``request``'s task once it is sent, as a hang-up does.

    Waits for the router to finish the line; returns the router's
    ``_steps_sent`` right after the cancel.
    """
    task = await _start_until_sent(router, request)
    task.cancel()
    in_flight = router._steps_sent
    await asyncio.wait([task], timeout=10.0)
    assert task.done() and not task.cancelled()
    return in_flight


def _total(counter):
    samples = counter.samples()
    return samples[0].value if samples else 0.0


def _steps_total(router):
    return _total(router.m_steps)


async def _open(router, seed):
    opened = await _answer(router, _open_request(seed))
    assert opened["ok"], opened
    return opened["session"], opened["granted_budget_j"]


async def _report_steps(router, session):
    reply = await _answer(router, {"type": "report", "session": session})
    return reply["report"]["steps"]


def test_a_step_whose_client_left_is_counted(live):
    router, thread = live

    async def scenario():
        session, granted_j = await _open(router, seed=1)
        steps = _steps_total(router)
        in_flight = await _hang_up_once_sent(
            router, _step(session, 0.002 * granted_j)
        )
        # Still sent after the cancel: the step is on the worker and
        # not yet counted.
        assert in_flight == 1
        assert router._steps_sent == 0
        assert _steps_total(router) == steps + 1
        assert await _report_steps(router, session) == 1
        await _answer(router, {"type": "close", "session": session})
        router.ledger.assert_balanced()

    thread.run_coroutine(scenario())


def test_a_retry_parks_on_the_abandoned_step(live):
    router, thread = live

    async def scenario():
        session, granted_j = await _open(router, seed=2)
        steps = _steps_total(router)
        request = _step(session, 0.002 * granted_j, rid="left-1")
        original = await _start_until_sent(router, request)
        original.cancel()
        # The rid stays reserved for the abandoned original: the retry
        # waits for it rather than reaching the worker again.
        assert "left-1" in router.rids.inflight
        replayed = router.rids.replayed
        retried = await _answer(router, request)
        assert retried["ok"] and retried["rid"] == "left-1"
        assert router.rids.replayed == replayed + 1
        await asyncio.wait([original], timeout=10.0)
        assert router.rids.inflight == {}
        assert _steps_total(router) == steps + 1
        assert await _report_steps(router, session) == 1
        # Later retries are answered from the router's cache.
        assert await _answer(router, request) == retried
        await _answer(router, {"type": "close", "session": session})

    thread.run_coroutine(scenario())


def test_a_close_whose_client_left_reclaims_its_grant(live):
    router, thread = live

    async def scenario():
        session, granted_j = await _open(router, seed=3)
        await _answer(router, _step(session, 0.002 * granted_j))
        available_j = router.ledger.available_j
        await _hang_up_once_sent(
            router, {"type": "close", "session": session}
        )
        assert session not in router._open_order
        # The grant, less the one step spent, is back in the pool.
        assert router.ledger.available_j > available_j + 0.9 * granted_j
        router.ledger.assert_balanced()

    thread.run_coroutine(scenario())


def test_an_open_whose_client_left_is_tracked(live):
    router, thread = live

    async def scenario():
        opens = len(router._open_order)
        await _hang_up_once_sent(router, _open_request(seed=4, rid="o-1"))
        assert len(router._open_order) == opens + 1
        session = next(reversed(router._open_order))
        # The retry gets the first admission, not a second one.
        retried = await _answer(router, _open_request(seed=4, rid="o-1"))
        assert retried["session"] == session
        assert len(router._open_order) == opens + 1
        router.ledger.assert_balanced()
        await _answer(router, {"type": "close", "session": session})
        router.ledger.assert_balanced()

    thread.run_coroutine(scenario())


def test_a_batch_whose_client_left_counts_every_applied_entry(live):
    router, thread = live

    async def scenario():
        session, granted_j = await _open(router, seed=5)
        steps = _steps_total(router)
        # One step before a boundary: the batch goes as a sub-batch of
        # one, a rebalance, then the rest.
        router._steps_since_rebalance = router.rebalance_period - 1
        rebalances = _total(router.m_rebalances)
        measurement = _measurement(0.002 * granted_j)
        await _hang_up_once_sent(
            router,
            {
                "type": "batch_step",
                "session": session,
                "measurements": [measurement] * 6,
            },
        )
        assert await _report_steps(router, session) == 6
        assert _steps_total(router) == steps + 6
        assert _total(router.m_rebalances) == rebalances + 1
        await _answer(router, {"type": "close", "session": session})
        router.ledger.assert_balanced()

    thread.run_coroutine(scenario())


def test_pipelined_steps_of_clients_that_hang_up_are_all_counted(live):
    router, thread = live
    wire = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    wire.settimeout(60.0)
    wire.connect(router.unix_path)
    reader = wire.makefile("rb")

    def ask(request):
        wire.sendall(_line(request))
        return json.loads(reader.readline())

    try:
        opened = ask(_open_request(seed=6))
        session, granted_j = opened["session"], opened["granted_budget_j"]
        steps = _steps_total(router)
        accepted = router.connections + 20
        clients = []
        for _ in range(20):
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(router.unix_path)
            clients.append(client)
        burst = b"".join(
            _line(_step(session, 0.001 * granted_j)) for _ in range(8)
        )
        for client in clients:
            client.sendall(burst)
        for client in clients:
            client.close()

        async def settled():
            for _ in range(5000):
                if router.connections == accepted and len(router._live) == 1:
                    break
                await asyncio.sleep(0.001)
            else:
                raise AssertionError("the clients never all hung up")
            for _ in range(5000):
                if router._steps_sent == 0:
                    break
                await asyncio.sleep(0.001)

        thread.run_coroutine(settled())
        ran = ask({"type": "report", "session": session})["report"]["steps"]
        assert ran > 0
        assert _steps_total(router) == steps + ran
        assert router._steps_sent == 0
        router.ledger.assert_balanced()
        ask({"type": "close", "session": session})
        deadline = time.monotonic() + 10.0
        while session in router._open_order and time.monotonic() < deadline:
            time.sleep(0.01)
        router.ledger.assert_balanced()
    finally:
        reader.close()
        wire.close()
