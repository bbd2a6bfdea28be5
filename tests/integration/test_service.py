"""End-to-end daemon tests: the acceptance gauntlet for repro.service.

Runs the real asyncio daemon in-process (ServerThread on a Unix
socket) and drives it with the real blocking client: concurrent
sessions under one global budget, admission control, warm starts, and
seeded replication.
"""

import threading

import pytest

from repro.apps import build_application
from repro.hw import get_machine
from repro.runtime.oracle import max_feasible_factor
from repro.service import (
    PROTOCOL_VERSION,
    ServerThread,
    ServiceClient,
    ServiceError,
    SessionManager,
    SnapshotStore,
    drive_synthetic_session,
)

STEPS = 30
FACTOR = 1.5


@pytest.fixture()
def daemon(tmp_path):
    manager = SessionManager(
        global_budget_j=1e7,
        store=SnapshotStore(),
        rebalance_period=10,
    )
    sock = str(tmp_path / "jg.sock")
    with ServerThread(manager, unix_path=sock) as handle:
        yield manager, sock, handle


def client_for(sock):
    return ServiceClient(unix_path=sock, timeout_s=30.0)


class TestConcurrentSessionsShareOneBudget:
    def test_three_clients_budget_invariant(self, daemon):
        manager, sock, _ = daemon
        runs = [None] * 3
        errors = []

        def _drive(index):
            try:
                with client_for(sock) as client:
                    runs[index] = drive_synthetic_session(
                        client,
                        machine="tablet",
                        app="x264",
                        factor=FACTOR,
                        steps=STEPS,
                        seed=10 + index,
                        close=False,  # keep the session live
                        client_name=f"it-{index}",
                    )
            except Exception as exc:  # surface failures in the test
                errors.append(exc)

        threads = [
            threading.Thread(target=_drive, args=(index,))
            for index in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert errors == []
        assert all(run is not None for run in runs)

        # All three sessions are live and share the one global pool:
        # conservative rebalances moved joules *between* them, so the
        # sum of effective budgets equals the sum of grants exactly
        # (the core.multi invariant, extended to a dynamic fleet).
        # Fetch the reports together, after every thread has joined: a
        # per-thread report races the other threads' steps, and a
        # rebalance between two snapshots makes their sum inconsistent.
        assert len(manager.live_sessions) == 3
        with client_for(sock) as client:
            reports = [client.report(run.session) for run in runs]
        granted = sum(
            report["granted_budget_j"] for report in reports
        )
        effective = sum(
            report["effective_budget_j"] for report in reports
        )
        assert effective == pytest.approx(granted, rel=1e-9)
        assert manager.committed_budget_j == pytest.approx(
            granted, rel=1e-9
        )
        # Rebalances actually ran (3 sessions x 30 steps, period 10).
        rounds = manager.rebalances
        assert rounds >= 1
        # One more round, driven directly while no request is in
        # flight: its plan is zero-sum and the count moves by one.
        plan = manager.rebalance()
        assert set(plan) == {run.session for run in runs}
        assert sum(plan.values()) == pytest.approx(0.0, abs=1e-9)
        assert manager.rebalances == rounds + 1
        assert manager.committed_budget_j == pytest.approx(
            granted, rel=1e-9
        )

        # Closing returns unspent grants to the pool.
        with client_for(sock) as client:
            for run in runs:
                client.close(run.session)
        assert manager.live_sessions == []
        assert manager.available_budget_j <= 1e7
        assert manager.available_budget_j > 0


class TestAdmissionControl:
    def test_infeasible_goal_rejected_at_open(self, daemon):
        manager, sock, _ = daemon
        limit = max_feasible_factor(
            get_machine("tablet"), build_application("x264")
        )
        with client_for(sock) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.open_session(
                    machine="tablet",
                    app="x264",
                    factor=limit * 2,
                    total_work=float(STEPS),
                )
            assert excinfo.value.code == "infeasible_goal"
        assert manager.sessions_rejected == 1
        assert manager.live_sessions == []

    def test_unknown_names_have_stable_codes(self, daemon):
        _, sock, _ = daemon
        with client_for(sock) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.open_session("toaster", "x264", 1.5, 10.0)
            assert excinfo.value.code == "unknown_machine"
            with pytest.raises(ServiceError) as excinfo:
                client.open_session("tablet", "doom", 1.5, 10.0)
            assert excinfo.value.code == "unknown_application"


class TestWarmStart:
    def test_snapshot_restore_converges_strictly_faster(self, daemon):
        _, sock, _ = daemon
        with client_for(sock) as client:
            cold = drive_synthetic_session(
                client,
                machine="tablet",
                app="x264",
                factor=FACTOR,
                steps=STEPS,
                seed=1,
                warm_start=False,
                take_snapshot=True,
            )
            warm = drive_synthetic_session(
                client,
                machine="tablet",
                app="x264",
                factor=FACTOR,
                steps=STEPS,
                seed=2,
                warm_start=True,
            )
        assert cold.warm is False
        assert warm.warm is True
        # The restored session starts from the learned tables, so it
        # must settle in strictly fewer iterations than the cold one.
        assert warm.convergence_step() < cold.convergence_step()


class TestSeededReplication:
    def test_same_seed_replays_the_same_decisions(self, daemon):
        _, sock, _ = daemon
        traces = []
        for _ in range(2):
            with client_for(sock) as client:
                run = drive_synthetic_session(
                    client,
                    machine="tablet",
                    app="x264",
                    factor=FACTOR,
                    steps=STEPS,
                    seed=42,
                    warm_start=False,  # identical starting state
                )
            traces.append(
                [
                    (d["system_index"], d["app_index"])
                    for d in run.decisions
                ]
            )
        assert traces[0] == traces[1]


class TestProtocolOverTheWire:
    def test_hello_reports_daemon_stats(self, daemon):
        _, sock, _ = daemon
        with client_for(sock) as client:
            stats = client.server_stats
        assert stats["version"] == PROTOCOL_VERSION
        assert stats["sessions"] == 0
        assert "available_budget_j" in stats

    def test_step_on_closed_session_fails_cleanly(self, daemon):
        _, sock, _ = daemon
        with client_for(sock) as client:
            run = drive_synthetic_session(
                client,
                machine="tablet",
                app="x264",
                factor=FACTOR,
                steps=3,
                seed=5,
            )
            with pytest.raises(ServiceError) as excinfo:
                client.report(run.session)
            assert excinfo.value.code == "unknown_session"

    def test_malformed_line_gets_a_structured_error(self, daemon):
        _, sock, _ = daemon
        with client_for(sock) as client:
            client._file.write(b"this is not json\n")
            client._file.flush()
            with pytest.raises(ServiceError) as excinfo:
                client.request(
                    {"type": "hello", "version": PROTOCOL_VERSION}
                )
            assert excinfo.value.code == "bad_request"
