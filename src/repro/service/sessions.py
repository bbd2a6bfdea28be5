"""Session management for the JouleGuard daemon.

One :class:`SessionManager` hosts many concurrent controller sessions —
one :class:`~repro.core.jouleguard.JouleGuardRuntime` each — under a
single *global* energy budget, extending :mod:`repro.core.multi` from a
fixed fleet to a dynamic one:

* **admission control** — a session is rejected up front when its goal
  is infeasible (``factor`` beyond
  :func:`repro.runtime.oracle.max_feasible_factor`, Sec. 3.4.3) or when
  the remaining global budget cannot cover its requested share, so the
  daemon never promises joules it does not have;
* **budget accounts** — each admitted session is granted
  ``total_work × default_epw / factor`` joules; periodic rebalances
  move forecast surplus from under-spenders to strainers exactly as
  :class:`~repro.core.multi.MultiAppCoordinator` does, conserving the
  sum of effective budgets; closing a session returns its unspent
  grant to the pool;
* **warm starts** — on open, a known ``(machine, app)`` pair restores
  learned state from the :class:`~repro.service.state.SnapshotStore`
  (reseeded from the session's RNG seed, keeping replication exact);
* **idle reaping** — sessions silent longer than ``idle_timeout_s``
  are closed and their budget reclaimed.

The manager is synchronous and single-threaded by design: the asyncio
server serializes access on its event loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NoReturn,
    Optional,
    Tuple,
)

import numpy as np

from ..apps import build_application
from ..apps.base import ApproximateApplication
from ..core import floats
from ..core.bandit import SystemEnergyOptimizer
from ..core.budget import EnergyGoal
from ..core.jouleguard import Decision, JouleGuardRuntime
from ..core.multi import apply_rebalance_plan, plan_rebalance
from ..core.types import Measurement
from ..enforce.ladder import (
    DEFAULT_LADDER,
    EnforcementLadder,
    LadderPolicy,
    Tier,
    overdraft_signal,
)
from ..hw import get_machine
from ..hw.machine import Machine
from ..runtime.harness import prior_shapes
from ..runtime.oracle import default_energy_per_work, max_feasible_factor
from .state import SnapshotError, SnapshotStore, apply_state, capture_state
from .telemetry import ServiceTelemetry, SessionStepRecorder

__all__ = [
    "Session",
    "SessionError",
    "SessionKilled",
    "SessionManager",
    "plan_rebalance",
]


class SessionError(RuntimeError):
    """A session operation the manager refuses, with a protocol code.

    ``data`` carries optional machine-readable context for the error
    envelope (protocol v3): a ``budget_exhausted`` rejection includes
    ``needed_j``/``available_j`` so the shard router can size a lease
    top-up instead of parsing the message.
    """

    def __init__(
        self,
        code: str,
        message: str,
        data: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.data = data or {}


class SessionKilled(SessionError):
    """The enforcement ladder terminated this session (hard bound).

    Carries the session's final report — the budget is already retired
    (the session is closed) by the time this is raised, so the caller's
    only job is to relay the outcome.
    """

    def __init__(self, message: str, report: Dict[str, Any]) -> None:
        super().__init__("session_killed", message)
        self.report = report


@dataclass
class Session:
    """One live controller session."""

    session_id: str
    client: str
    machine_name: str
    app_name: str
    factor: float
    seed: int
    granted_budget_j: float
    runtime: JouleGuardRuntime
    warm_started: bool
    created_s: float
    last_active_s: float
    steps: int = 0
    recent_epw: Optional[float] = None
    closed: bool = False
    close_reason: str = ""
    degraded: bool = False
    sensor_failures: int = 0
    reclaimed_j: float = 0.0
    ladder: Optional[EnforcementLadder] = None
    recent_step_energy_j: Optional[float] = None
    throttle_s: float = 0.0
    step_metrics: Optional[SessionStepRecorder] = None

    @property
    def decision(self) -> Decision:
        return self.runtime.current_decision

    @property
    def tier(self) -> Tier:
        return self.ladder.tier if self.ladder is not None else Tier.NOMINAL


class SessionManager:
    """Hosts concurrent JouleGuard sessions under one global budget.

    Parameters
    ----------
    global_budget_j:
        Joules the daemon may promise across all sessions, ever.
    store:
        Warm-start snapshot store (fresh in-memory store by default).
    idle_timeout_s:
        Sessions silent this long are reaped (see :meth:`reap_idle`).
    feasibility_margin:
        Fraction of the oracle's maximum feasible factor admitted;
        below 1.0 keeps a safety margin against model noise.
    rebalance_period:
        Total manager steps between budget rebalances (as in
        :class:`~repro.core.multi.MultiAppCoordinator`).
    transfer_fraction / smoothing:
        Rebalance conservatism knobs, matching :mod:`repro.core.multi`.
    degrade_after:
        Consecutive sensor-loss heartbeats a session may send before
        the manager degrades it (pins its most conservative known-safe
        configuration and reclaims its forecast surplus) instead of
        letting it keep steering on untrustworthy feedback.
    enforcement:
        :class:`~repro.enforce.ladder.LadderPolicy` driving each
        session's enforcement ladder (``ADVISE -> DEGRADE -> THROTTLE
        -> KILL``); ``None`` disables enforcement entirely (the
        pre-ladder behaviour, kept for A/B benchmarks).
    telemetry:
        :class:`~repro.service.telemetry.ServiceTelemetry` sink; a
        fresh enabled one is created by default.  Pass
        ``ServiceTelemetry.disabled()`` to measure instrumentation
        overhead.
    clock:
        Monotonic time source, injectable for tests.
    session_prefix:
        Prepended to every session id (``w0-s000001``).  A shard
        worker gets a prefix unique to its (worker, restart-epoch)
        pair so the router can route any session id to its worker by
        prefix and a restarted worker can never collide with ids its
        predecessor handed out.
    external_rebalance:
        When True, :meth:`step` never triggers the local rebalance
        cadence — an external coordinator (the shard router) gathers
        :meth:`rebalance_inputs` across workers and pushes one global
        plan back through :meth:`apply_rebalance` instead.
    """

    def __init__(
        self,
        global_budget_j: float,
        store: Optional[SnapshotStore] = None,
        idle_timeout_s: float = 300.0,
        feasibility_margin: float = 1.0,
        rebalance_period: int = 25,
        transfer_fraction: float = 0.5,
        smoothing: float = 0.25,
        degrade_after: int = 3,
        enforcement: Optional[LadderPolicy] = DEFAULT_LADDER,
        telemetry: Optional[ServiceTelemetry] = None,
        clock: Callable[[], float] = time.monotonic,
        session_prefix: str = "",
        external_rebalance: bool = False,
    ) -> None:
        if global_budget_j <= 0:
            raise ValueError("global budget must be positive")
        if idle_timeout_s <= 0:
            raise ValueError("idle timeout must be positive")
        if not 0.0 < feasibility_margin <= 1.0:
            raise ValueError("feasibility margin must be in (0, 1]")
        if rebalance_period < 1:
            raise ValueError("rebalance period must be >= 1")
        if not 0.0 < transfer_fraction <= 1.0:
            raise ValueError("transfer_fraction must be in (0, 1]")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if degrade_after < 1:
            raise ValueError("degrade_after must be >= 1")
        self.degrade_after = degrade_after
        self.enforcement = enforcement
        self.telemetry = (
            telemetry if telemetry is not None else ServiceTelemetry()
        )
        self.global_budget_j = global_budget_j
        self.store = store if store is not None else SnapshotStore()
        self.idle_timeout_s = idle_timeout_s
        self.feasibility_margin = feasibility_margin
        self.rebalance_period = rebalance_period
        self.transfer_fraction = transfer_fraction
        self.smoothing = smoothing
        self.clock = clock
        self.session_prefix = session_prefix
        self.external_rebalance = external_rebalance
        self._sessions: Dict[str, Session] = {}
        self._next_serial = 1
        self._spent_closed_j = 0.0
        self._steps_since_rebalance = 0
        #: Rebalance plans applied, ever (served as ``"rebalances"``).
        self.rebalances = 0
        self.sessions_opened = 0
        self.sessions_rejected = 0
        self.sessions_degraded = 0
        self.sessions_killed = 0
        self.warm_start_failures = 0
        #: Global budget revisions applied, ever (each also logs a
        #: ``budget_revision`` event).
        self.budget_revisions = 0
        self._admission_cache: Dict[
            Tuple[str, str], Tuple[float, float]
        ] = {}
        self._machines: Dict[str, Machine] = {}
        self._priors: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._apps: Dict[str, ApproximateApplication] = {}
        self._record_pool()

    # -- budget pool -----------------------------------------------------------
    @property
    def live_sessions(self) -> List[Session]:
        return list(self._sessions.values())

    @property
    def committed_budget_j(self) -> float:
        """Joules currently promised to live sessions."""
        return sum(
            session.runtime.accountant.effective_budget_j
            for session in self._sessions.values()
        )

    @property
    def available_budget_j(self) -> float:
        """Joules the pool can still grant to new sessions."""
        return (
            self.global_budget_j
            - self._spent_closed_j
            - self.committed_budget_j
        )

    def _record_pool(self) -> None:
        self.telemetry.record_pool(
            self.global_budget_j,
            self.committed_budget_j,
            self.available_budget_j,
        )

    # -- model caches ----------------------------------------------------------
    def _machine(self, name: str) -> Machine:
        if name not in self._machines:
            try:
                self._machines[name] = get_machine(name)
            except (KeyError, ValueError) as exc:
                raise SessionError(
                    "unknown_machine", f"unknown machine {name!r}"
                ) from exc
        return self._machines[name]

    def _prior_shapes(
        self, machine: Machine
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`prior_shapes`, computed once per machine (read-only)."""
        if machine.name not in self._priors:
            shapes = prior_shapes(machine)
            for shape in shapes:
                shape.setflags(write=False)
            self._priors[machine.name] = shapes
        return self._priors[machine.name]

    def _app(self, name: str) -> ApproximateApplication:
        if name not in self._apps:
            try:
                self._apps[name] = build_application(name)
            except (KeyError, ValueError) as exc:
                raise SessionError(
                    "unknown_application", f"unknown application {name!r}"
                ) from exc
        return self._apps[name]

    def _admission_limits(
        self, machine: Machine, app: ApproximateApplication
    ) -> Tuple[float, float]:
        """(default_epw, admitted factor limit), cached per pair."""
        key = (machine.name, app.name)
        if key not in self._admission_cache:
            self._admission_cache[key] = (
                default_energy_per_work(machine, app),
                max_feasible_factor(machine, app)
                * self.feasibility_margin,
            )
        return self._admission_cache[key]

    # -- lifecycle -------------------------------------------------------------
    def open_session(
        self,
        machine_name: str,
        app_name: str,
        factor: float,
        total_work: float,
        seed: int = 0,
        warm_start: bool = True,
        client: str = "",
    ) -> Session:
        """Admit one session, or raise :class:`SessionError`.

        The RNG ``seed`` flows end-to-end: the SEO is built with
        ``seed + 1`` exactly as :func:`repro.runtime.harness.run_jouleguard`
        does, so a daemon-hosted session replicates a harness run that
        used the same seed (``runtime.repeat``-style replication works
        against the service).
        """
        machine = self._machine(machine_name)
        app = self._app(app_name)
        if not app.runs_on(machine.name):
            self._reject(
                "bad_request",
                f"{app_name} does not run on {machine_name}",
            )
        if factor < 1.0:
            self._reject(
                "bad_request", "factor must be >= 1 (1 = default energy)"
            )
        if total_work <= 0:
            self._reject("bad_request", "total_work must be positive")
        default_epw, factor_limit = self._admission_limits(machine, app)
        if factor > factor_limit:
            self._reject(
                "infeasible_goal",
                f"factor {factor:g} exceeds the feasible limit "
                f"{factor_limit:.2f} for {app_name} on {machine_name} "
                "(Sec. 3.4.3)",
            )
        needed_j = total_work * default_epw / factor
        if needed_j > self.available_budget_j + 1e-9:
            self._reject(
                "budget_exhausted",
                f"session needs {needed_j:.3f} J but only "
                f"{max(self.available_budget_j, 0.0):.3f} J of the "
                "global budget remains unallocated",
                data={
                    "needed_j": needed_j,
                    "available_j": max(self.available_budget_j, 0.0),
                },
            )

        rate_shape, power_shape = self._prior_shapes(machine)
        seo = SystemEnergyOptimizer(
            rate_shape, power_shape, seed=seed + 1
        )
        goal = EnergyGoal(total_work=total_work, budget_j=needed_j)
        runtime = JouleGuardRuntime(seo=seo, table=app.table, goal=goal)

        warm = False
        if warm_start:
            snapshot = self.store.get(machine.name, app.name)
            if snapshot is not None:
                try:
                    apply_state(
                        runtime,
                        snapshot,
                        machine=machine.name,
                        app=app.name,
                        seed=seed + 1,
                    )
                    warm = True
                except SnapshotError:
                    # Stale store entry: record it, fall back to cold.
                    self.warm_start_failures += 1
                    warm = False

        now_s = self.clock()
        session = Session(
            session_id=f"{self.session_prefix}s{self._next_serial:06d}",
            client=client,
            machine_name=machine.name,
            app_name=app.name,
            factor=factor,
            seed=seed,
            granted_budget_j=needed_j,
            runtime=runtime,
            warm_started=warm,
            created_s=now_s,
            last_active_s=now_s,
        )
        self._next_serial += 1
        if self.enforcement is not None:
            session.ladder = EnforcementLadder(policy=self.enforcement)
        self._sessions[session.session_id] = session
        self.sessions_opened += 1
        session.step_metrics = self.telemetry.step_recorder(
            session.session_id
        )
        self.telemetry.record_open(
            session.session_id, len(self._sessions)
        )
        self._record_pool()
        return session

    def _reject(
        self,
        code: str,
        message: str,
        data: Optional[Dict[str, float]] = None,
    ) -> NoReturn:
        self.sessions_rejected += 1
        self.telemetry.record_reject(code)
        raise SessionError(code, message, data=data)

    def _get(self, session_id: str) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(
                "unknown_session",
                f"no live session {session_id!r} "
                "(closed, reaped, or never opened)",
            )
        return session

    def step(
        self,
        session_id: str,
        measurement: Measurement,
        sensor_ok: bool = True,
    ) -> Decision:
        """Feed one heartbeat; rebalance budgets on schedule.

        ``sensor_ok=False`` marks the heartbeat's energy/power values
        as untrustworthy (the client's sensor is lost and holding
        over).  The manager keeps accounting such heartbeats — using
        its own smoothed energy-per-work estimate where it has one, the
        conservative choice — but stops feeding them to the learner;
        after :attr:`degrade_after` consecutive failures the session is
        degraded (see :meth:`_degrade`) rather than killed.  A healthy
        heartbeat clears the failure streak and resumes normal control.

        After the controller runs, the heartbeat feeds the session's
        enforcement ladder: tier transitions may pin the safe fallback,
        set a duty-cycle sleep (:attr:`Session.throttle_s`), or — if
        the hard bound is about to be breached — close the session and
        raise :class:`SessionKilled` carrying the final report.
        """
        session = self._get(session_id)
        session.steps += 1
        session.last_active_s = self.clock()
        if not sensor_ok:
            decision, energy_j = self._step_without_sensor(
                session, measurement
            )
        else:
            session.sensor_failures = 0
            if session.tier < Tier.DEGRADE:
                # A ladder-degraded session stays degraded until the
                # ladder itself de-escalates; a healthy sensor only
                # clears sensor-loss degradation.
                session.degraded = False
            epw = measurement.energy_j / measurement.work
            if session.recent_epw is None:
                session.recent_epw = epw
            else:
                session.recent_epw += self.smoothing * (
                    epw - session.recent_epw
                )
            energy_j = measurement.energy_j
            decision = session.runtime.step(measurement)
        if session.recent_step_energy_j is None:
            session.recent_step_energy_j = energy_j
        else:
            session.recent_step_energy_j += self.smoothing * (
                energy_j - session.recent_step_energy_j
            )
        decision = self._enforce(session, decision, energy_j)
        if not self.external_rebalance:
            self._steps_since_rebalance += 1
            if self._steps_since_rebalance >= self.rebalance_period:
                self.rebalance()
                self._steps_since_rebalance = 0
        return decision

    def _step_without_sensor(
        self, session: Session, measurement: Measurement
    ) -> Tuple[Decision, float]:
        """One heartbeat with no trustworthy sensor behind it."""
        session.sensor_failures += 1
        accountant = session.runtime.accountant
        # Account the work conservatively: trust our own smoothed
        # estimate of this session's energy per work over the client's
        # held-over numbers, and never below what the client reported.
        energy_j = measurement.energy_j
        if session.recent_epw is not None:
            energy_j = max(
                energy_j, session.recent_epw * measurement.work
            )
        accountant.record(measurement.work, energy_j)
        if (
            not session.degraded
            and session.sensor_failures >= self.degrade_after
        ):
            self._degrade(session)
        return session.runtime.current_decision, energy_j

    # -- enforcement ---------------------------------------------------
    def _enforce(
        self, session: Session, decision: Decision, energy_j: float
    ) -> Decision:
        """Run one ladder observation; apply the resulting tier.

        DEGRADE pins the safe fallback; THROTTLE additionally sets the
        duty-cycle sleep the server injects into the step loop; KILL
        closes the session with its budget retired exactly and raises
        :class:`SessionKilled`.  Unlike sensor-loss degradation
        (:meth:`_degrade`), ladder degradation reclaims nothing: the
        session still reports honest measurements, its forecast surplus
        stays its own, and the pool's zero-sum rebalance invariant
        (``sum(effective) == sum(granted)`` absent closes) survives
        enforcement untouched.
        """
        ladder = session.ladder
        if ladder is None:
            self._record_step_metrics(session, energy_j)
            return decision
        signal = overdraft_signal(
            session.runtime.accountant,
            session.recent_epw,
            session.recent_step_energy_j,
        )
        previous = ladder.tier
        tier = ladder.observe(signal, session.steps)
        if tier is not previous:
            self.telemetry.record_transition(
                session.session_id, ladder.transitions[-1]
            )
        if Tier.DEGRADE <= tier < Tier.KILL:
            if not session.degraded:
                session.degraded = True
                self.sessions_degraded += 1
                self.telemetry.record_event(
                    "session_degraded",
                    session=session.session_id,
                    step=session.steps,
                    reclaimed_j=0.0,
                )
            # Re-assert the pin every enforced step: runtime.step()
            # above resumed normal control (the pin is per-decision).
            session.runtime.pin_safe_fallback()
            decision = session.runtime.current_decision
        session.throttle_s = ladder.throttle_s()
        self._record_step_metrics(session, energy_j)
        if tier is Tier.KILL:
            self._kill(session, signal)
        return decision

    def _kill(self, session: Session, signal: Any) -> NoReturn:
        """Terminate a session at the top of the ladder.

        Closing retires the full spend and returns the unspent grant to
        the pool (zero-sum, same path as a client close), so the hard
        guarantee costs the pool nothing beyond what was burned.
        """
        self.sessions_killed += 1
        self.telemetry.record_event(
            "session_killed",
            session=session.session_id,
            step=session.steps,
            burn_fraction=round(signal.burn_fraction, 6),
        )
        report = self.close(session.session_id, reason="killed")
        raise SessionKilled(
            f"session {session.session_id} killed by the enforcement "
            f"ladder at step {session.steps} "
            f"(burn {signal.burn_fraction:.3f} of hard budget)",
            report,
        )

    def _record_step_metrics(
        self, session: Session, energy_j: float
    ) -> None:
        recorder = session.step_metrics
        if recorder is None:
            return
        accountant = session.runtime.accountant
        burn = accountant.energy_used_j / floats.maximum(
            accountant.effective_budget_j, 1e-12
        )
        recorder.record(
            energy_j,
            session.decision.pole,
            session.runtime.seo.epsilon,
            burn,
            session.tier,
            floats.maximum(
                0.0,
                accountant.energy_used_j
                - accountant.effective_budget_j,
            ),
        )

    def _degrade(self, session: Session) -> None:
        """Fall back to known-safe operation instead of dying.

        The session's runtime pins its most conservative known-safe
        configuration (minimum-energy operation, Sec. 3.4.3), and the
        budget accountant reclaims the session's forecast surplus for
        the pool — a blind session must not sit on joules that healthy
        sessions could use.
        """
        session.degraded = True
        self.sessions_degraded += 1
        session.runtime.pin_safe_fallback()
        surplus = self._forecast_surplus(session)
        accountant = session.runtime.accountant
        # Never reclaim below what is already spent (the accountant
        # would reject it) and never "reclaim" a deficit.
        reclaimable = min(
            max(0.0, surplus),
            max(
                0.0,
                accountant.effective_budget_j
                - accountant.energy_used_j,
            ),
        )
        if reclaimable > 0.0:
            accountant.adjust_budget(-reclaimable)
            session.reclaimed_j += reclaimable
        self.telemetry.record_event(
            "session_degraded",
            session=session.session_id,
            step=session.steps,
            reclaimed_j=round(reclaimable, 6),
        )
        self._record_pool()

    def revise_global_budget(self, new_budget_j: float) -> float:
        """Revise the global pool mid-run; return the applied budget.

        Models an operator or battery revising the energy available to
        the daemon.  The pool can grow freely, but it can never shrink
        below what is already spent or promised — burned joules are
        gone and grants are contracts — so a cut is clamped to
        ``spent + committed``.  Each revision is counted in
        :attr:`budget_revisions` and logged as a ``budget_revision``
        event.
        """
        if new_budget_j <= 0:
            raise ValueError("global budget must be positive")
        floor_j = self._spent_closed_j + self.committed_budget_j
        applied_j = max(new_budget_j, floor_j)
        previous_j = self.global_budget_j
        self.budget_revisions += 1
        # Baselined JGF301: a deliberate absolute revision (operator /
        # battery event); the clamp above plus the budget_revision
        # event is the audit trail standing in for a zero-sum proof.
        self.global_budget_j = applied_j
        self.telemetry.record_event(
            "budget_revision",
            requested_j=new_budget_j,
            applied_j=applied_j,
            previous_j=previous_j,
        )
        self._record_pool()
        return applied_j

    def report(self, session_id: str) -> Dict[str, Any]:
        """Accounting and controller snapshot for one session."""
        session = self._get(session_id)
        accountant = session.runtime.accountant
        return {
            "session": session.session_id,
            "client": session.client,
            "machine": session.machine_name,
            "app": session.app_name,
            "factor": session.factor,
            "seed": session.seed,
            "steps": session.steps,
            "warm_started": session.warm_started,
            "granted_budget_j": session.granted_budget_j,
            "effective_budget_j": accountant.effective_budget_j,
            "energy_used_j": accountant.energy_used_j,
            "work_done": accountant.work_done,
            "remaining_work": accountant.remaining_work,
            "epsilon": session.runtime.seo.epsilon,
            "visited_configs": session.runtime.seo.visited_count,
            "infeasible": session.runtime.goal_reported_infeasible,
            "degraded": session.degraded,
            "sensor_failures": session.sensor_failures,
            "reclaimed_j": session.reclaimed_j,
            "tier": session.tier.label,
            "throttle_s": session.throttle_s,
            "hard_overdraft_j": accountant.overdraft_j,
            "enforcement": (
                session.ladder.as_dict()
                if session.ladder is not None
                else None
            ),
        }

    def enforcement_of(self, session_id: str) -> Dict[str, Any]:
        """The enforcement summary a ``step`` response carries."""
        session = self._get(session_id)
        return {
            "tier": session.tier.label,
            "throttle_s": session.throttle_s,
        }

    def snapshot(self, session_id: str) -> Dict[str, Any]:
        """Capture a session's learned state into the warm-start store."""
        session = self._get(session_id)
        state = capture_state(
            session.runtime, session.machine_name, session.app_name
        )
        self.store.put(state)
        return state

    def close(self, session_id: str, reason: str = "client") -> Dict[str, Any]:
        """Close a session; return its final report.

        The unspent part of the grant flows back to the pool; the spent
        part is retired for good (burned joules cannot be re-promised).
        An overdrawn session retires its *full* spend, not just its
        grant: clamping the retirement to the effective budget would
        leak the overdraft back into the available pool as joules the
        hardware already burned (caught by jgflow JGF301).
        """
        session = self._get(session_id)
        final = self.report(session_id)
        accountant = session.runtime.accountant
        self._spent_closed_j += accountant.energy_used_j
        session.closed = True
        session.close_reason = reason
        del self._sessions[session.session_id]
        final["closed"] = True
        final["close_reason"] = reason
        self.telemetry.record_close(
            session.session_id, reason, len(self._sessions)
        )
        self._record_pool()
        return final

    def reap_idle(self) -> List[str]:
        """Close sessions idle beyond the timeout; return their ids."""
        now_s = self.clock()
        stale = [
            session.session_id
            for session in self._sessions.values()
            if now_s - session.last_active_s > self.idle_timeout_s
        ]
        for session_id in stale:
            self.close(session_id, reason="idle")
        return stale

    def close_all(self, reason: str = "shutdown") -> int:
        """Close every live session (daemon shutdown)."""
        ids = list(self._sessions)
        for session_id in ids:
            self.close(session_id, reason=reason)
        return len(ids)

    # -- budget transfers ------------------------------------------------------
    def _forecast_surplus(self, session: Session) -> float:
        """Remaining budget minus forecast remaining spend (can be < 0)."""
        accountant = session.runtime.accountant
        if accountant.complete or session.recent_epw is None:
            return accountant.remaining_energy_j
        projected = session.recent_epw * accountant.remaining_work
        return accountant.remaining_energy_j - projected

    def rebalance_inputs(
        self,
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(surpluses, overdrafts)`` per live session, in open order.

        The inputs :func:`plan_rebalance` needs — exposed so the shard
        router can gather them from every worker, merge them in global
        open order, and compute one daemon-wide plan with the exact
        arithmetic a single-process manager would have used.
        """
        surpluses = {
            session_id: self._forecast_surplus(session)
            for session_id, session in self._sessions.items()
        }
        overdrafts = {
            session_id: session.runtime.accountant.overdraft_j
            for session_id, session in self._sessions.items()
        }
        return surpluses, overdrafts

    def apply_rebalance(
        self, deltas: Dict[str, float]
    ) -> Dict[str, float]:
        """Apply a transfer plan all-or-nothing; return what was applied.

        The shared :func:`~repro.core.multi.apply_rebalance_plan`:
        donations before grants, rolled back whole if the accountant's
        contract rejects a transfer.  Sessions unknown to this manager
        are ignored (the router sends each worker its slice of the
        daemon-wide plan, which may name a session closed since).
        """
        recorded = apply_rebalance_plan(
            {
                session_id: session.runtime.accountant
                for session_id, session in self._sessions.items()
            },
            deltas,
        )
        self.rebalances += 1
        return recorded

    def rebalance(self) -> Dict[str, float]:
        """Move surplus joules between live sessions (conservative).

        The same plan-then-apply as
        :meth:`repro.core.multi.MultiAppCoordinator.rebalance`: the sum
        of effective budgets is invariant, so the daemon-wide guarantee
        survives any schedule of transfers.  The plan is the pure
        :func:`~repro.core.multi.plan_rebalance`; application is the
        all-or-nothing :meth:`apply_rebalance`.

        With fewer than two live sessions the plan is all zeros (one
        account cannot be both donor and needer), so the round is
        counted without gathering inputs or applying anything.
        """
        if len(self._sessions) < 2:
            self.rebalances += 1
            return dict.fromkeys(self._sessions, 0.0)
        surpluses, overdrafts = self.rebalance_inputs()
        deltas = plan_rebalance(
            surpluses, overdrafts, self.transfer_fraction
        )
        self.apply_rebalance(deltas)
        return deltas

    # -- daemon-wide stats -----------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """One-line daemon health summary (served by ``hello``)."""
        return {
            "sessions": len(self._sessions),
            "sessions_opened": self.sessions_opened,
            "sessions_rejected": self.sessions_rejected,
            "sessions_degraded": self.sessions_degraded,
            "sessions_killed": self.sessions_killed,
            "warm_start_failures": self.warm_start_failures,
            "budget_revisions": self.budget_revisions,
            "global_budget_j": self.global_budget_j,
            "committed_budget_j": self.committed_budget_j,
            "available_budget_j": self.available_budget_j,
            "rebalances": self.rebalances,
            "snapshots_stored": len(self.store),
        }
