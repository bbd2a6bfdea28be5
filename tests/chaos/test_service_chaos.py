"""Service-level chaos: lossy transport, retries, idempotent replay."""

import socket
import threading

import pytest

from repro.faults import run_service_chaos
from repro.faults.models import FaultPlan, NetworkFaults, shipped_plans
from repro.service.client import (
    RetryPolicy,
    ServiceClient,
    drive_synthetic_session,
)
from repro.service.protocol import PROTOCOL_VERSION, encode_message
from repro.service.server import RID_CACHE_MAX, ServerThread, ServiceServer
from repro.service.sessions import SessionManager


def lossy_plan(drop=0.10, seed=0):
    return FaultPlan(
        name="lossy",
        seed=seed,
        network=NetworkFaults(drop_request_prob=drop),
    )


class TestRetryUnderChaos:
    def test_shipped_network_plan_passes(self):
        report = run_service_chaos(
            shipped_plans()["network-drop"], n_sessions=3, steps=20
        )
        assert report["passed"], report
        assert report["sessions"] == 3
        dropped = (
            report["chaos"]["dropped_requests"]
            + report["chaos"]["dropped_responses"]
        )
        assert dropped > 0  # chaos actually fired
        assert report["retries"] >= dropped  # every drop was retried

    def test_acceptance_retrying_client_survives_ten_pct_drops(self):
        # The PR's acceptance bar: a 3-session workload against 10%
        # request drops completes with retries where the fail-fast
        # client raises (see test below).
        report = run_service_chaos(
            lossy_plan(drop=0.10), n_sessions=3, steps=25
        )
        assert report["passed"], report
        assert report["retries"] > 0
        assert report["reconnects"] > 0

    def test_fail_fast_client_raises_under_same_chaos(self, tmp_path):
        sock = str(tmp_path / "lossy.sock")
        manager = SessionManager(global_budget_j=1e7)
        chaos = lossy_plan(drop=0.10).request_chaos()
        with ServerThread(manager, unix_path=sock, chaos=chaos):
            with pytest.raises((ConnectionError, OSError)):
                for index in range(3):
                    with ServiceClient(unix_path=sock) as client:
                        drive_synthetic_session(
                            client,
                            machine="tablet",
                            app="x264",
                            factor=1.5,
                            steps=25,
                            seed=index,
                            warm_start=False,
                        )

    def test_chaos_counters_surface_on_server(self, tmp_path):
        sock = str(tmp_path / "counted.sock")
        manager = SessionManager(global_budget_j=1e7)
        chaos = lossy_plan(drop=0.15).request_chaos()
        with ServerThread(manager, unix_path=sock, chaos=chaos) as thread:
            client = ServiceClient(
                unix_path=sock,
                retry=RetryPolicy(max_attempts=8, base_delay_s=0.01),
            )
            drive_synthetic_session(
                client,
                machine="tablet",
                app="x264",
                factor=1.5,
                steps=20,
                seed=0,
                warm_start=False,
            )
            client.close_connection()
            server = thread.server
            assert (
                server.chaos_dropped_requests
                == chaos.dropped_requests
            )
            assert server.chaos_dropped_requests > 0


class TestRidIdempotency:
    def server(self):
        return ServiceServer(
            SessionManager(global_budget_j=1e6), unix_path="/unused"
        )

    def open_line(self, rid="rid-1"):
        return encode_message(
            {
                "type": "open_session",
                "rid": rid,
                "machine": "tablet",
                "app": "x264",
                "factor": 1.5,
                "total_work": 50.0,
                "seed": 0,
                "warm_start": False,
            }
        )

    def test_retried_rid_replays_without_reexecuting(self):
        server = self.server()
        first = server.handle_line(self.open_line())
        replay = server.handle_line(self.open_line())
        assert replay == first
        assert replay["rid"] == "rid-1"
        assert server.rids.replayed == 1
        # Only one session was actually opened.
        assert server.manager.stats()["sessions_opened"] == 1

    def test_distinct_rids_execute_independently(self):
        server = self.server()
        first = server.handle_line(self.open_line("rid-a"))
        second = server.handle_line(self.open_line("rid-b"))
        assert first["session"] != second["session"]
        assert server.rids.replayed == 0

    def test_error_envelopes_are_not_cached(self):
        server = self.server()
        bad = encode_message(
            {"type": "step", "rid": "rid-err", "session": "nope",
             "measurement": {"work": 1, "energy_j": 1, "rate": 1,
                             "power_w": 1}}
        )
        first = server.handle_line(bad)
        second = server.handle_line(bad)
        assert not first["ok"] and not second["ok"]
        assert server.rids.replayed == 0

    def test_invalid_rid_is_rejected(self):
        server = self.server()
        response = server.handle_line(
            encode_message(
                {
                    "type": "hello",
                    "version": PROTOCOL_VERSION,
                    "rid": "",
                }
            )
        )
        assert not response["ok"]
        assert response["error"]["code"] == "bad_request"

    def test_cache_is_bounded(self):
        server = self.server()
        for index in range(RID_CACHE_MAX + 10):
            server.handle_line(
                encode_message(
                    {
                        "type": "hello",
                        "version": PROTOCOL_VERSION,
                        "rid": f"r{index}",
                    }
                )
            )
        assert len(server.rids.replies) == RID_CACHE_MAX
        # The oldest entries were evicted, the newest survive.
        assert "r0" not in server.rids.replies
        assert f"r{RID_CACHE_MAX + 9}" in server.rids.replies


class TestSensorOkPlumbing:
    def test_step_carries_sensor_ok_to_the_manager(self):
        manager = SessionManager(global_budget_j=1e6, degrade_after=2)
        server = ServiceServer(manager, unix_path="/unused")
        opened = server.handle_line(
            encode_message(
                {
                    "type": "open_session",
                    "machine": "tablet",
                    "app": "x264",
                    "factor": 1.5,
                    "total_work": 50.0,
                    "warm_start": False,
                }
            )
        )
        step = {
            "type": "step",
            "session": opened["session"],
            "measurement": {
                "work": 1.0,
                "energy_j": 0.6,
                "rate": 30.0,
                "power_w": 18.0,
                "sensor_ok": False,
            },
        }
        server.handle_line(encode_message(step))
        response = server.handle_line(encode_message(step))
        assert response["ok"]
        report = manager.report(opened["session"])
        assert report["sensor_failures"] == 2
        assert report["degraded"]
        assert manager.stats()["sessions_degraded"] == 1


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        import random

        policy = RetryPolicy(
            base_delay_s=0.1, max_delay_s=0.5, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.delay_s(n, rng) for n in range(5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_only_shrinks(self):
        import random

        policy = RetryPolicy(
            base_delay_s=0.1, max_delay_s=1.0, jitter=0.5
        )
        rng = random.Random(1)
        for attempt in range(20):
            delay = policy.delay_s(attempt % 4, rng)
            ceiling = min(1.0, 0.1 * 2 ** (attempt % 4))
            assert 0.5 * ceiling <= delay <= ceiling

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestDuplicateRidInFlight:
    """Two connections send one rid'd step while both are suspended.

    A chaos plan that delays every request parks both copies in the
    daemon at once; the first to wake executes and caches, the second
    must replay that answer instead of stepping the session again.
    """

    def test_concurrent_duplicate_rid_executes_once(self, tmp_path):
        sock = str(tmp_path / "dup.sock")
        manager = SessionManager(global_budget_j=1e6)
        session = manager.open_session(
            machine_name="tablet",
            app_name="x264",
            factor=1.5,
            total_work=1e4,
            warm_start=False,
        )
        chaos = FaultPlan(
            name="slow",
            seed=0,
            network=NetworkFaults(delay_prob=1.0, delay_s=0.3),
        ).request_chaos()
        line = encode_message(
            {
                "type": "step",
                "rid": "dup-1",
                "session": session.session_id,
                "measurement": {
                    "work": 1.0,
                    "energy_j": 0.5,
                    "rate": 10.0,
                    "power_w": 5.0,
                },
            }
        )
        replies = [b"", b""]

        def send(index, connection):
            with connection, connection.makefile("rwb") as stream:
                stream.write(line)
                stream.flush()
                replies[index] = stream.readline()

        with ServerThread(manager, unix_path=sock, chaos=chaos) as thread:
            connections = []
            for _ in range(2):
                connection = socket.socket(socket.AF_UNIX)
                connection.settimeout(30.0)
                connection.connect(sock)
                connections.append(connection)
            senders = [
                threading.Thread(target=send, args=(index, connection))
                for index, connection in enumerate(connections)
            ]
            for sender in senders:
                sender.start()
            for sender in senders:
                sender.join(30.0)
                assert not sender.is_alive()
            server = thread.server
            assert chaos.delays == 2  # both copies were suspended
            assert server.rids.replayed == 1
        assert replies[0].endswith(b"\n")
        assert replies[0] == replies[1]
        assert b'"rid":"dup-1"' in replies[0]
        assert session.steps == 1  # the duplicate never re-stepped
