"""Property-based tests (hypothesis) on the shared rid contract.

:class:`~repro.service.server.RidCache` is the one implementation of
"a request carrying a rid executes once" for both the daemon and the
shard router.  These tests drive it in-process — no sockets, no
workers — through generated interleavings of an original request, its
duplicates, cancellations of any caller, and completions of whichever
execution is running, and check after each interleaving that:

* the handler starts again only once every earlier start was
  cancelled;
* at most one execution completes;
* every caller that was not cancelled gets the same reply;
* no reservation is left behind.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.server import RidCache

RID = "r-1"

operations = st.lists(
    st.one_of(
        st.tuples(st.just("call")),
        st.tuples(st.just("cancel"), st.integers(0, 15)),
        st.tuples(st.just("finish")),
    ),
    min_size=1,
    max_size=24,
)


async def _settle():
    for _ in range(8):
        await asyncio.sleep(0)


async def _interleave(ops):
    cache = RidCache()
    # Per execution: its release gate and how it ended.
    gates = []
    outcomes = []

    async def execute():
        index = len(gates)
        # Every earlier start must have been cancelled.
        assert all(outcome == "cancelled" for outcome in outcomes)
        gates.append(asyncio.Event())
        outcomes.append("running")
        try:
            await gates[index].wait()
        except asyncio.CancelledError:
            outcomes[index] = "cancelled"
            raise
        outcomes[index] = "completed"
        return {"ok": True, "type": "step", "execution": index}

    callers = []
    for op in ops:
        if op[0] == "call":
            callers.append(asyncio.ensure_future(cache.run(RID, execute)))
        elif op[0] == "cancel" and callers:
            callers[op[1] % len(callers)].cancel()
        elif op[0] == "finish" and gates:
            gates[-1].set()
        await _settle()
    # Let whatever is still running finish.
    for _ in range(len(ops) + 2):
        for gate in gates:
            gate.set()
        await _settle()
    # A caller parked on a reservation nobody will resolve fails the
    # example instead of hanging it.
    results = await asyncio.wait_for(
        asyncio.gather(*callers, return_exceptions=True), timeout=10.0
    )
    return cache, outcomes, callers, results


@settings(max_examples=300, deadline=None)
@given(operations)
def test_each_rid_executes_exactly_once(ops):
    cache, outcomes, callers, results = asyncio.run(_interleave(ops))
    assert outcomes.count("completed") <= 1
    assert "running" not in outcomes
    replies = [
        result
        for caller, result in zip(callers, results)
        if not caller.cancelled()
    ]
    assert all(isinstance(reply, dict) for reply in replies)
    if replies:
        assert outcomes.count("completed") == 1
        assert all(reply == replies[0] for reply in replies)
        assert replies[0]["rid"] == RID
        assert cache.replies[RID] == replies[0]
    assert cache.inflight == {}


def test_duplicates_park_on_the_original_and_replay_after_it():
    async def scenario():
        cache = RidCache()
        release = asyncio.Event()
        starts = []

        async def execute():
            starts.append(1)
            await release.wait()
            return {"ok": True}

        first = asyncio.ensure_future(cache.run(RID, execute))
        await _settle()
        second = asyncio.ensure_future(cache.run(RID, execute))
        await _settle()
        assert RID in cache.inflight
        release.set()
        replies = await asyncio.gather(first, second)
        late = await cache.run(RID, execute)
        return cache, starts, replies, late

    cache, starts, replies, late = asyncio.run(scenario())
    assert starts == [1]
    assert replies[0] == replies[1] == late == {"ok": True, "rid": RID}
    assert cache.replayed == 2
    assert cache.inflight == {}


def test_errors_and_bytes_follow_the_cache_rules():
    cache = RidCache()
    error = {"ok": False, "error": {"code": "internal", "message": "x"}}
    assert cache.store("e", error) is error
    assert cache.replay("e") is None
    relayed = b'{"ok":true,"rid":"b","type":"close"}\n'
    assert cache.store("b", relayed) is relayed
    assert cache.replay("b") is relayed
    assert cache.replayed == 1
