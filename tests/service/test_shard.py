"""White-box tests for the shard layer's pure parts.

The process-spawning integration paths are covered by the lockstep rig
(:mod:`tests.service.test_lockstep`) and the chaos suite; these tests
pin down the deterministic plumbing — placement, prefix routing, and
the worker command line — that the equivalence argument leans on.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.shard import (
    LEASE_FLOOR_J,
    SESSION_PREFIX_RE,
    HashRing,
    ShardRouter,
)


class TestHashRing:
    def test_routing_is_deterministic(self):
        ring = HashRing([0, 1, 2])
        again = HashRing([0, 1, 2])
        keys = [f"client{i}:0:{i}" for i in range(200)]
        assert [ring.route(k) for k in keys] == [
            again.route(k) for k in keys
        ]

    def test_every_worker_gets_a_share(self):
        ring = HashRing([0, 1, 2, 3])
        owners = {ring.route(f"key-{i}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_growing_the_pool_remaps_a_minority(self):
        # The "consistent" in consistent hashing: adding one worker to
        # four moves roughly 1/5 of the key space, not most of it.
        before = HashRing([0, 1, 2, 3])
        after = HashRing([0, 1, 2, 3, 4])
        keys = [f"key-{i}" for i in range(1000)]
        moved = sum(
            1 for k in keys if before.route(k) != after.route(k)
        )
        assert 0 < moved < len(keys) // 2

    def test_empty_ring_refused(self):
        with pytest.raises(ValueError):
            HashRing([])


class TestSessionPrefix:
    @pytest.mark.parametrize(
        "session_id, index, epoch",
        [
            ("w0e0-s000001", 0, 0),
            ("w7e12-s000420", 7, 12),
            ("w10e3-whatever", 10, 3),
        ],
    )
    def test_round_trips_worker_and_epoch(self, session_id, index, epoch):
        match = SESSION_PREFIX_RE.match(session_id)
        assert match is not None
        assert (int(match.group(1)), int(match.group(2))) == (
            index,
            epoch,
        )

    @pytest.mark.parametrize(
        "session_id",
        ["s000001", "w0-s1", "we0-s1", "W0e0-s1", "", "w0e-s1"],
    )
    def test_foreign_ids_do_not_match(self, session_id):
        assert SESSION_PREFIX_RE.match(session_id) is None


class TestRouterConstruction:
    def test_validates_its_parameters(self):
        with pytest.raises(ValueError):
            ShardRouter(n_shards=0, budget_j=1.0, unix_path="/tmp/x")
        with pytest.raises(ValueError):
            ShardRouter(n_shards=1, budget_j=1.0)  # no listener
        with pytest.raises(ValueError):
            ShardRouter(
                n_shards=1, budget_j=1.0, unix_path="/tmp/x",
                rebalance_period=0,
            )
        with pytest.raises(ValueError):
            ShardRouter(
                n_shards=1, budget_j=1.0, unix_path="/tmp/x",
                transfer_fraction=1.5,
            )

    def test_worker_command_pins_the_shard_contract(self, tmp_path):
        # The worker must boot at the microjoule floor with external
        # rebalance and the admin listener — the three flags the whole
        # lease scheme assumes.
        router = ShardRouter(
            n_shards=2,
            budget_j=100.0,
            unix_path=str(tmp_path / "r.sock"),
            state_dir=str(tmp_path / "store"),
        )
        command = router._worker_command(
            str(tmp_path / "w0e0.sock"), "w0e0-"
        )
        assert "--external-rebalance" in command
        assert "--admin" in command
        assert repr(LEASE_FLOOR_J) in command
        assert "--session-prefix" in command
        assert command[command.index("--session-prefix") + 1] == "w0e0-"
        assert "--state-dir" in command

    def test_ledger_starts_with_the_full_budget_unleased(self):
        router = ShardRouter(
            n_shards=4, budget_j=250.0, unix_path="/tmp/unused.sock"
        )
        assert router.ledger.available_j == 250.0
        assert router.ledger.leased_uj == {}  # shards join on start()


class TestConcurrentAdmission:
    """Regression: racing opens must not fake budget exhaustion.

    The lease-on-demand admission path (open → budget_exhausted →
    lease shortfall → retry) used to interleave across concurrent
    opens on the same worker, so one open could consume the lease
    another had just taken and surface ``budget_exhausted`` while the
    unleased pool held gigajoules.  The per-worker admission lock
    makes the sequence atomic; this drives a 16-thread open storm at a
    deep budget and requires zero rejections.
    """

    def test_open_storm_never_fakes_exhaustion(self, tmp_path):
        import threading

        from repro.service import ServiceClient, ShardThread

        router = ShardRouter(
            n_shards=2,
            budget_j=1e9,
            unix_path=str(tmp_path / "router.sock"),
            run_dir=str(tmp_path / "run"),
        )
        failures = []

        def one(index):
            try:
                with ServiceClient(
                    unix_path=router.unix_path
                ) as client:
                    opened = client.open_session(
                        machine="tablet",
                        app="x264",
                        factor=1.5,
                        total_work=500.0,
                        seed=index,
                        client_name=f"storm{index}",
                    )
                    client.close(opened.session)
            except Exception as exc:  # collected, asserted below
                failures.append((index, repr(exc)))

        with ShardThread(router):
            threads = [
                threading.Thread(target=one, args=(i,))
                for i in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            router.ledger.assert_balanced()
        assert failures == []


class TestRidInflightCoalescing:
    """A duplicate rid arriving mid-execution must not re-execute.

    The router's dispatch suspends at the worker round-trip, so the
    response cache alone cannot make retries idempotent: a client that
    times out and reconnects can resend a rid while the original
    request is still in flight.  ``handle_line`` reserves the rid
    before its first await; the duplicate parks on the reservation and
    receives the original execution's response.
    """

    def _router(self):
        return ShardRouter(
            n_shards=1, budget_j=100.0, unix_path="/tmp/unused.sock"
        )

    def test_concurrent_duplicate_rid_executes_once(self):
        import asyncio
        import json

        router = self._router()
        calls = []
        release = None

        async def slow_step(message, line):
            calls.append(message)
            await release.wait()
            return {"ok": True, "type": "step", "decision": 7}

        async def scenario():
            nonlocal release
            release = asyncio.Event()
            router._handle_step = slow_step
            line = json.dumps(
                {"type": "step", "rid": "retry-1", "session": "s"}
            ).encode() + b"\n"
            first = asyncio.ensure_future(router.handle_line(line))
            await asyncio.sleep(0)  # first reserves the rid, parks
            second = asyncio.ensure_future(router.handle_line(line))
            await asyncio.sleep(0)
            release.set()
            return await asyncio.gather(first, second)

        first, second = asyncio.run(scenario())
        assert len(calls) == 1
        assert first["decision"] == second["decision"] == 7
        assert first["rid"] == second["rid"] == "retry-1"
        assert router.rids.replayed == 1

    def test_cached_response_still_replays_after_completion(self):
        import asyncio
        import json

        router = self._router()
        calls = []

        async def step(message, line):
            calls.append(message)
            return {"ok": True, "type": "step", "decision": 3}

        async def scenario():
            router._handle_step = step
            line = json.dumps(
                {"type": "step", "rid": "retry-2", "session": "s"}
            ).encode() + b"\n"
            first = await router.handle_line(line)
            second = await router.handle_line(line)
            return first, second

        first, second = asyncio.run(scenario())
        assert len(calls) == 1
        assert first == second
        assert router.rids.replayed == 1
        assert router.rids.inflight == {}

    def test_error_responses_are_not_coalesced_into_the_cache(self):
        import asyncio
        import json

        router = self._router()
        attempts = []

        async def flaky_step(message, line):
            attempts.append(message)
            if len(attempts) == 1:
                raise ConnectionError("worker went away")
            return {"ok": True, "type": "step", "decision": 1}

        async def scenario():
            router._handle_step = flaky_step
            line = json.dumps(
                {"type": "step", "rid": "retry-3", "session": "s"}
            ).encode() + b"\n"
            first = await router.handle_line(line)
            second = await router.handle_line(line)
            return first, second

        first, second = asyncio.run(scenario())
        assert first["ok"] is False
        assert second["ok"] is True
        assert len(attempts) == 2  # the error was never cached
        assert router.rids.inflight == {}

    def test_cancelled_execution_reexecutes_duplicate_waiters(self):
        # When the original execution is abandoned (its connection
        # died and expired the reservation), a parked retry is the
        # only interested party left: it must run fresh rather than
        # die with the original's CancelledError.
        import asyncio
        import json

        router = self._router()
        calls = []

        async def hung_step(message, line):
            calls.append(message)
            await asyncio.Event().wait()  # never returns

        async def scenario():
            router._handle_step = hung_step
            line = json.dumps(
                {"type": "step", "rid": "retry-4", "session": "s"}
            ).encode() + b"\n"
            first = asyncio.ensure_future(router.handle_line(line))
            await asyncio.sleep(0)
            second = asyncio.ensure_future(router.handle_line(line))
            await asyncio.sleep(0)
            first.cancel()
            with pytest.raises(asyncio.CancelledError):
                await first
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert len(calls) == 2  # the retry re-executed
            assert "retry-4" in router.rids.inflight
            second.cancel()
            with pytest.raises(asyncio.CancelledError):
                await second
            assert router.rids.inflight == {}

        asyncio.run(scenario())


class TestRidExpiryOnConnectionClose:
    """A client gone mid-request must not leak its rid reservation.

    Reserved in-flight rids used to live until the worker round-trip
    returned — forever, for a wedged worker — because the connection
    loop could not see the close while awaiting the dispatch.  The
    line transport sees the close immediately, cancels the dispatch,
    and the unwind expires the reservation.  Relayed lines a client
    pipelines start on arrival, so they reach their worker as a single
    daemon would execute every line it has read; lines held behind a
    barrier verb die with the connection unexecuted.
    """

    def _router(self):
        return ShardRouter(
            n_shards=1, budget_j=100.0, unix_path="/tmp/unused.sock"
        )

    def test_close_expires_the_inflight_reservation(self, tmp_path):
        import asyncio
        import json

        router = self._router()
        started = None
        unwound = []

        async def hung_step(message, line):
            started.set()
            try:
                await asyncio.Event().wait()
            except asyncio.CancelledError:
                unwound.append(message)
                raise

        async def scenario():
            nonlocal started
            started = asyncio.Event()
            router._handle_step = hung_step
            path = str(tmp_path / "router.sock")
            server = await asyncio.get_running_loop().create_unix_server(
                router._new_connection, path=path
            )
            try:
                _, writer = await asyncio.open_unix_connection(path)
                writer.write(
                    json.dumps(
                        {"type": "step", "rid": "gone-1", "session": "s"}
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                await asyncio.wait_for(started.wait(), timeout=5.0)
                assert "gone-1" in router.rids.inflight
                writer.close()
                await writer.wait_closed()
                for _ in range(500):
                    if "gone-1" not in router.rids.inflight:
                        break
                    await asyncio.sleep(0.01)
                assert "gone-1" not in router.rids.inflight
                assert unwound, "dispatch was not cancelled"
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_pipelined_backlog_is_dropped_with_its_client(
        self, tmp_path
    ):
        import asyncio
        import json

        router = self._router()
        started = None
        calls = []
        barriers = []

        async def hung_step(message, line):
            calls.append(message["rid"])
            if len(calls) == 2:
                started.set()
            await asyncio.Event().wait()

        async def metrics(message):
            barriers.append(message)
            return {"ok": True, "type": "metrics", "samples": []}

        def step(i):
            payload = {"type": "step", "rid": f"pipe-{i}", "session": "s"}
            return json.dumps(payload).encode() + b"\n"

        async def scenario():
            nonlocal started
            started = asyncio.Event()
            router._handle_step = hung_step
            router._handle_metrics = metrics
            path = str(tmp_path / "router.sock")
            server = await asyncio.get_running_loop().create_unix_server(
                router._new_connection, path=path
            )
            try:
                _, writer = await asyncio.open_unix_connection(path)
                writer.write(step(0) + step(1))
                writer.write(b'{"type": "metrics"}\n' + step(3))
                await writer.drain()
                await asyncio.wait_for(started.wait(), timeout=5.0)
                assert set(router.rids.inflight) == {"pipe-0", "pipe-1"}
                writer.close()
                await writer.wait_closed()
                for _ in range(500):
                    if not router.rids.inflight:
                        break
                    await asyncio.sleep(0.01)
                assert router.rids.inflight == {}
                await asyncio.sleep(0.05)
                # Both relayed steps reached dispatch on arrival; the
                # barrier waited for them, and it and the step behind
                # it died with the connection.
                assert calls == ["pipe-0", "pipe-1"]
                assert barriers == []
                assert router._steps_sent == 0
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_pipelined_responses_stay_ordered_while_connected(
        self, tmp_path
    ):
        import asyncio
        import json

        router = self._router()

        async def echo_step(message, line):
            # Finish out of submission order on purpose.
            await asyncio.sleep(
                0.02 if message["session"] == "s0" else 0.0
            )
            return {
                "ok": True,
                "type": "step",
                "decision": message["session"],
            }

        async def scenario():
            router._handle_step = echo_step
            path = str(tmp_path / "router.sock")
            server = await asyncio.get_running_loop().create_unix_server(
                router._new_connection, path=path
            )
            try:
                reader, writer = await asyncio.open_unix_connection(
                    path
                )
                for i in range(3):
                    writer.write(
                        json.dumps(
                            {
                                "type": "step",
                                "rid": f"ord-{i}",
                                "session": f"s{i}",
                            }
                        ).encode()
                        + b"\n"
                    )
                await writer.drain()
                answers = []
                for _ in range(3):
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=5.0
                    )
                    answers.append(json.loads(line)["decision"])
                writer.close()
                await writer.wait_closed()
                return answers
            finally:
                server.close()
                await server.wait_closed()

        assert asyncio.run(scenario()) == ["s0", "s1", "s2"]


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="needs /proc to enumerate cmdlines"
)
class TestServeShardedShutdown:
    """SIGTERM must reap the worker pool, not orphan it.

    ``asyncio.run`` unwinds ``aclose()`` on KeyboardInterrupt, but the
    default SIGTERM disposition kills the router outright — exactly
    what ``kill <pid>`` in a CI teardown or a process supervisor sends.
    ``_serve_router`` converts SIGTERM into the same graceful path.
    """

    @staticmethod
    def _procs_mentioning(needle, exclude=()):
        pids = []
        skip = {os.getpid(), *exclude}
        for entry in os.listdir("/proc"):
            if not entry.isdigit() or int(entry) in skip:
                continue
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as f:
                    if needle.encode() in f.read():
                        pids.append(int(entry))
            except OSError:
                continue
        return pids

    def test_sigterm_reaps_the_worker_pool(self, tmp_path):
        sock = tmp_path / "router.sock"
        state = str(tmp_path / "state")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--unix", str(sock), "--budget-j", "1e6",
                "--shards", "2", "--state-dir", state,
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not sock.exists():
                assert proc.poll() is None, "serve died during startup"
                assert time.monotonic() < deadline, "socket never bound"
                time.sleep(0.1)
            # Workers carry --state-dir on their command line, so the
            # unique tmp path identifies the pool.
            workers = self._procs_mentioning(state, exclude=(proc.pid,))
            assert len(workers) == 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            deadline = time.monotonic() + 30
            while self._procs_mentioning(state, exclude=(proc.pid,)):
                assert (
                    time.monotonic() < deadline
                ), "workers survived SIGTERM"
                time.sleep(0.2)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
