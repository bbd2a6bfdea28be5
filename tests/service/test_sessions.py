"""Session manager: admission, budget pool, rebalance, reaping."""

import pytest

from repro.apps import build_application
from repro.core.types import Measurement
from repro.hw import get_machine
from repro.runtime import prior_shapes
from repro.runtime.oracle import (
    default_energy_per_work,
    max_feasible_factor,
)
from repro.service.sessions import SessionError, SessionManager
from repro.service.state import SnapshotStore


MEASUREMENT = Measurement(
    work=1.0, energy_j=0.6, rate=30.0, power_w=18.0
)


def manager(budget_j=1e6, **kwargs):
    return SessionManager(global_budget_j=budget_j, **kwargs)


def open_default(mgr, total_work=50.0, factor=1.5, seed=0, **kwargs):
    return mgr.open_session(
        "tablet", "x264", factor=factor, total_work=total_work,
        seed=seed, **kwargs,
    )


class TestAdmission:
    def test_grant_formula(self):
        mgr = manager()
        session = open_default(mgr, total_work=50.0, factor=2.0)
        epw = default_energy_per_work(
            get_machine("tablet"), build_application("x264")
        )
        assert session.granted_budget_j == pytest.approx(
            50.0 * epw / 2.0
        )
        assert mgr.committed_budget_j == pytest.approx(
            session.granted_budget_j
        )

    def test_unknown_machine(self):
        with pytest.raises(SessionError) as excinfo:
            manager().open_session("toaster", "x264", 1.5, 10.0)
        assert excinfo.value.code == "unknown_machine"

    def test_unknown_application(self):
        with pytest.raises(SessionError) as excinfo:
            manager().open_session("tablet", "doom", 1.5, 10.0)
        assert excinfo.value.code == "unknown_application"

    def test_platform_gating(self):
        # swish is a server-only application in Table 2.
        with pytest.raises(SessionError) as excinfo:
            manager().open_session("mobile", "swish", 1.5, 10.0)
        assert excinfo.value.code == "bad_request"

    def test_factor_below_one(self):
        with pytest.raises(SessionError) as excinfo:
            open_default(manager(), factor=0.5)
        assert excinfo.value.code == "bad_request"

    def test_infeasible_factor(self):
        mgr = manager()
        limit = max_feasible_factor(
            get_machine("tablet"), build_application("x264")
        )
        with pytest.raises(SessionError) as excinfo:
            open_default(mgr, factor=limit * 2)
        assert excinfo.value.code == "infeasible_goal"
        assert mgr.sessions_rejected == 1

    def test_feasibility_margin_tightens_the_limit(self):
        limit = max_feasible_factor(
            get_machine("tablet"), build_application("x264")
        )
        strict = manager(feasibility_margin=0.5)
        with pytest.raises(SessionError) as excinfo:
            open_default(strict, factor=limit * 0.9)
        assert excinfo.value.code == "infeasible_goal"

    def test_budget_exhausted(self):
        mgr = manager(budget_j=1.0)
        with pytest.raises(SessionError) as excinfo:
            open_default(mgr, total_work=1e6)
        assert excinfo.value.code == "budget_exhausted"

    def test_admission_never_overcommits(self):
        grant = open_default(manager(), total_work=50.0).granted_budget_j
        budget = 2.5 * grant  # room for two sessions, not three
        mgr = manager(budget_j=budget)
        opened = 0
        while True:
            try:
                open_default(mgr, total_work=50.0)
            except SessionError as exc:
                assert exc.code == "budget_exhausted"
                break
            opened += 1
            assert opened < 100  # must terminate
        assert opened == 2
        assert mgr.committed_budget_j <= budget + 1e-9


class TestLifecycle:
    def test_step_advances_the_decision(self):
        mgr = manager()
        session = open_default(mgr)
        decision = mgr.step(session.session_id, MEASUREMENT)
        assert decision is session.runtime.current_decision
        assert session.steps == 1

    def test_unknown_session(self):
        with pytest.raises(SessionError) as excinfo:
            manager().step("s999999", MEASUREMENT)
        assert excinfo.value.code == "unknown_session"

    def test_report_keys(self):
        mgr = manager()
        session = open_default(mgr)
        mgr.step(session.session_id, MEASUREMENT)
        report = mgr.report(session.session_id)
        for key in (
            "session", "machine", "app", "factor", "steps",
            "granted_budget_j", "effective_budget_j",
            "energy_used_j", "work_done", "epsilon",
        ):
            assert key in report
        assert report["steps"] == 1

    def test_close_returns_unspent_budget_to_the_pool(self):
        mgr = manager(budget_j=100.0)
        session = open_default(mgr, total_work=50.0)
        granted = session.granted_budget_j
        mgr.step(session.session_id, MEASUREMENT)
        final = mgr.close(session.session_id)
        assert final["closed"] is True
        # Only the spent joules are retired for good.
        spent = final["energy_used_j"]
        assert mgr.available_budget_j == pytest.approx(100.0 - spent)
        assert granted > spent  # one step cannot burn the whole grant

    def test_close_all(self):
        mgr = manager()
        open_default(mgr, seed=1)
        open_default(mgr, seed=2)
        assert mgr.close_all() == 2
        assert mgr.live_sessions == []

    def test_reap_idle_uses_the_injected_clock(self):
        now = [0.0]
        mgr = manager(idle_timeout_s=10.0, clock=lambda: now[0])
        session = open_default(mgr)
        now[0] = 5.0
        assert mgr.reap_idle() == []
        now[0] = 20.0
        assert mgr.reap_idle() == [session.session_id]
        assert mgr.live_sessions == []


class TestBudgetInvariant:
    def test_rebalance_conserves_the_sum_of_effective_budgets(self):
        mgr = manager(rebalance_period=5)
        sessions = [open_default(mgr, seed=seed) for seed in range(3)]
        total_before = mgr.committed_budget_j
        # Session 0 spends 30 % over its per-work share, so it needs
        # joules the other two can spare.
        hot = Measurement(
            work=1.0,
            energy_j=1.3 * sessions[0].granted_budget_j / 50.0,
            rate=30.0,
            power_w=18.0,
        )
        plans = []
        for _ in range(10):
            for session in sessions:
                heartbeat = hot if session is sessions[0] else MEASUREMENT
                mgr.step(session.session_id, heartbeat)
            plans.append(mgr.rebalance())
        # Ten explicit rounds on top of the in-line cadence's.
        assert mgr.rebalances >= len(plans) + 1
        assert mgr.stats()["rebalances"] == mgr.rebalances
        assert mgr.committed_budget_j == pytest.approx(
            total_before, rel=1e-9
        )
        # Every transfer round is itself zero-sum.
        assert any(any(plan.values()) for plan in plans)
        for plan in plans:
            assert sum(plan.values()) == pytest.approx(0.0, abs=1e-9)

    def test_rebalance_skips_underwater_needers(self):
        mgr = manager(rebalance_period=10_000)
        donor = open_default(mgr, seed=1, total_work=100.0)
        needer = open_default(mgr, seed=2, total_work=100.0)
        # Drown the needer: burn several times its whole grant, so any
        # conservative grant would be smaller than its overdraft (the
        # accountant rejects grants that leave spend above budget).
        splurge = Measurement(
            work=1.0,
            energy_j=needer.granted_budget_j,
            rate=30.0,
            power_w=18.0,
        )
        for _ in range(3):
            mgr.step(needer.session_id, splurge)
        mgr.step(
            donor.session_id,
            Measurement(
                work=1.0, energy_j=0.01, rate=30.0, power_w=18.0
            ),
        )
        total = mgr.committed_budget_j
        deltas = mgr.rebalance()  # must not raise ContractError
        assert deltas[needer.session_id] == 0.0
        assert mgr.committed_budget_j == pytest.approx(total)

    @pytest.mark.parametrize("energy_share", [0.5, 3.0])
    def test_a_lone_session_rebalances_without_planning(
        self, monkeypatch, energy_share
    ):
        # One account cannot be both donor and needer, so the plan is
        # all zeros: the round is counted, nothing is gathered, and the
        # plan equals the one the full path computes.
        from repro.service import sessions as sessions_module

        mgr = manager(rebalance_period=10_000)
        assert mgr.rebalance() == {}
        session = open_default(mgr, seed=4, total_work=100.0)
        heartbeat = Measurement(
            work=1.0,
            energy_j=energy_share * session.granted_budget_j / 100.0,
            rate=30.0,
            power_w=18.0,
        )
        for _ in range(5):
            mgr.step(session.session_id, heartbeat)
        surpluses, overdrafts = mgr.rebalance_inputs()
        planned = sessions_module.plan_rebalance(
            surpluses, overdrafts, mgr.transfer_fraction
        )
        gathered = []
        monkeypatch.setattr(
            mgr, "rebalance_inputs", lambda: gathered.append(1)
        )
        committed_j = mgr.committed_budget_j
        rounds = mgr.rebalances
        assert mgr.rebalance() == planned == {session.session_id: 0.0}
        assert gathered == []
        assert mgr.rebalances == rounds + 1
        assert mgr.stats()["rebalances"] == rounds + 1
        assert mgr.committed_budget_j == committed_j


class TestWarmStart:
    def test_second_session_restores_from_the_store(self):
        store = SnapshotStore()
        mgr = manager(store=store)
        first = open_default(mgr, seed=1)
        for _ in range(20):
            mgr.step(first.session_id, MEASUREMENT)
        mgr.snapshot(first.session_id)
        mgr.close(first.session_id)

        second = open_default(mgr, seed=2)
        assert second.warm_started is True
        assert second.runtime.seo.epsilon < 1.0

    def test_warm_start_can_be_declined(self):
        store = SnapshotStore()
        mgr = manager(store=store)
        first = open_default(mgr, seed=1)
        mgr.step(first.session_id, MEASUREMENT)
        mgr.snapshot(first.session_id)
        mgr.close(first.session_id)

        cold = open_default(mgr, seed=2, warm_start=False)
        assert cold.warm_started is False
        assert cold.runtime.seo.epsilon == 1.0

    def test_stale_snapshot_falls_back_to_cold(self):
        store = SnapshotStore()
        mgr = manager(store=store)
        first = open_default(mgr, seed=1)
        mgr.snapshot(first.session_id)
        mgr.close(first.session_id)
        state = store.get("tablet", "x264")
        state["learned"] = {"seo": {}}  # corrupt it in place

        second = open_default(mgr, seed=2)
        assert second.warm_started is False


class TestStats:
    def test_stats_shape(self):
        mgr = manager()
        session = open_default(mgr)
        stats = mgr.stats()
        assert stats["sessions"] == 1
        assert stats["sessions_opened"] == 1
        assert stats["committed_budget_j"] == pytest.approx(
            session.granted_budget_j
        )
        assert stats["available_budget_j"] < stats["global_budget_j"]


class TestSensorLossDegradation:
    def warm_epw(self, mgr, session, n=3):
        for _ in range(n):
            mgr.step(session.session_id, MEASUREMENT)

    def test_degrades_after_consecutive_sensor_failures(self):
        mgr = manager(degrade_after=3)
        session = open_default(mgr)
        self.warm_epw(mgr, session)
        for _ in range(2):
            mgr.step(
                session.session_id, MEASUREMENT, sensor_ok=False
            )
        assert not session.degraded
        mgr.step(session.session_id, MEASUREMENT, sensor_ok=False)
        assert session.degraded
        assert mgr.sessions_degraded == 1

    def test_degraded_decision_is_known_safe_fallback(self):
        mgr = manager(degrade_after=1)
        session = open_default(mgr)
        self.warm_epw(mgr, session)
        decision = mgr.step(
            session.session_id, MEASUREMENT, sensor_ok=False
        )
        table = session.runtime.table
        assert decision.speedup_setpoint == table.max_speedup
        assert not decision.explored

    def test_healthy_heartbeat_clears_the_streak(self):
        mgr = manager(degrade_after=2)
        session = open_default(mgr)
        self.warm_epw(mgr, session)
        mgr.step(session.session_id, MEASUREMENT, sensor_ok=False)
        mgr.step(session.session_id, MEASUREMENT)  # sensor recovered
        mgr.step(session.session_id, MEASUREMENT, sensor_ok=False)
        assert not session.degraded
        assert session.sensor_failures == 1

    def test_degradation_reclaims_forecast_surplus(self):
        # A cheap workload (low measured epw) leaves a forecast
        # surplus; degrading must return it to the pool.
        mgr = manager(degrade_after=1)
        session = open_default(mgr, total_work=200.0, factor=1.2)
        cheap = Measurement(
            work=1.0, energy_j=0.05, rate=30.0, power_w=18.0
        )
        for _ in range(3):
            mgr.step(session.session_id, cheap)
        mgr.step(session.session_id, cheap, sensor_ok=False)
        assert session.degraded
        assert session.reclaimed_j > 0.0
        report = mgr.report(session.session_id)
        assert report["degraded"]
        assert report["reclaimed_j"] == pytest.approx(
            session.reclaimed_j
        )

    def test_blind_accounting_is_conservative(self):
        # Held-over heartbeats are charged at least the session's own
        # smoothed energy-per-work estimate, never the client's
        # (possibly optimistic) held-over number.
        mgr = manager(degrade_after=10)
        session = open_default(mgr)
        expensive = Measurement(
            work=1.0, energy_j=2.0, rate=30.0, power_w=18.0
        )
        for _ in range(3):
            mgr.step(session.session_id, expensive)
        accountant = session.runtime.accountant
        before = accountant.energy_used_j
        optimistic = Measurement(
            work=1.0, energy_j=0.01, rate=30.0, power_w=18.0
        )
        mgr.step(session.session_id, optimistic, sensor_ok=False)
        charged = accountant.energy_used_j - before
        assert charged >= session.recent_epw * 0.99

    def test_invalid_degrade_after_rejected(self):
        with pytest.raises(ValueError):
            manager(degrade_after=0)


class TestGlobalBudgetRevision:
    def test_pool_can_grow(self):
        mgr = manager(budget_j=1e6)
        applied = mgr.revise_global_budget(2e6)
        assert applied == 2e6
        assert mgr.global_budget_j == 2e6
        assert mgr.stats()["budget_revisions"] == 1

    def test_cut_clamped_to_commitments(self):
        mgr = manager(budget_j=1e6)
        session = open_default(mgr)
        applied = mgr.revise_global_budget(1.0)
        assert applied == pytest.approx(session.granted_budget_j)
        assert mgr.available_budget_j >= 0.0

    def test_revision_is_recorded(self):
        mgr = manager(budget_j=1e6)
        mgr.revise_global_budget(5e5)
        record = [
            event.as_dict()
            for event in mgr.telemetry.events.since(0)
            if event.kind == "budget_revision"
        ][-1]
        assert record["requested_j"] == 5e5
        assert record["applied_j"] == 5e5
        assert record["previous_j"] == 1e6
        assert mgr.budget_revisions == 1

    def test_nonpositive_budget_rejected(self):
        mgr = manager()
        with pytest.raises(ValueError):
            mgr.revise_global_budget(0.0)


class TestPriorShapesCache:
    def test_two_opens_on_one_machine_share_the_shapes(self, monkeypatch):
        from repro.service import sessions as sessions_module

        computed = []

        def counting(machine):
            computed.append(machine.name)
            return prior_shapes(machine)

        monkeypatch.setattr(sessions_module, "prior_shapes", counting)
        mgr = manager()
        first = open_default(mgr, seed=1)
        second = mgr.open_session(
            "tablet", "bodytrack", factor=1.5, total_work=50.0, seed=2
        )
        assert computed == ["tablet"]
        rates, powers = mgr._prior_shapes(get_machine("tablet"))
        assert not rates.flags.writeable and not powers.flags.writeable
        for session in (first, second):
            seo = session.runtime.seo
            assert seo._rate_shape.tobytes() == rates.tobytes()
            assert seo._power_shape.tobytes() == powers.tobytes()
        mgr.open_session(
            "server", "x264", factor=1.5, total_work=50.0, seed=3
        )
        assert computed == ["tablet", "server"]
