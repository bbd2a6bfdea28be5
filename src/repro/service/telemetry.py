"""Daemon telemetry: one registry + one event log per daemon.

:class:`ServiceTelemetry` is the glue between the service layer and
:mod:`repro.obs`: it owns the :class:`~repro.obs.registry.MetricsRegistry`
scraped at ``GET /metrics`` (and served by the ``metrics`` verb) and
the :class:`~repro.obs.events.EventLog` behind the ``events`` verb,
and exposes the narrow recording surface the session manager and
server call on their hot paths.

Every recorder is a no-op when the telemetry is disabled
(:meth:`ServiceTelemetry.disabled`) — the throughput benchmark uses
that to measure instrumentation overhead as a clean A/B.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core import floats
from ..enforce.ladder import Tier, TierTransition
from ..obs.events import EventLog
from ..obs.registry import MetricsRegistry

__all__ = ["ServiceTelemetry", "SessionStepRecorder"]


class SessionStepRecorder:
    """Pre-bound metric children for one session's step hot path.

    ``record_step`` resolves five labelled gauges and two counters per
    heartbeat; at 10k+ steps/s those dict lookups are measurable.  A
    recorder binds the children once at session open so the per-step
    cost is seven attribute loads and float stores.
    """

    __slots__ = (
        "_steps",
        "_energy",
        "_pole",
        "_epsilon",
        "_burn",
        "_tier",
        "_overdraft",
    )

    def __init__(self, telemetry: "ServiceTelemetry", session_id: str) -> None:
        self._steps = telemetry.steps.labels()
        self._energy = telemetry.energy_spent.labels()
        self._pole = telemetry.session_pole.labels(session_id)
        self._epsilon = telemetry.session_epsilon.labels(session_id)
        self._burn = telemetry.session_burn.labels(session_id)
        self._tier = telemetry.session_tier.labels(session_id)
        self._overdraft = telemetry.session_overdraft.labels(session_id)

    def record(
        self,
        energy_j: float,
        pole: float,
        epsilon: float,
        burn_fraction: float,
        tier: Tier,
        overdraft_j: float,
    ) -> None:
        self._steps.inc()
        self._energy.inc(floats.maximum(0.0, energy_j))
        self._pole.set(pole)
        self._epsilon.set(epsilon)
        self._burn.set(burn_fraction)
        self._tier.set(float(int(tier)))
        self._overdraft.set(overdraft_j)


class ServiceTelemetry:
    """Metric families + event log for one daemon."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.events = EventLog()
        if not enabled:
            return
        reg = self.registry
        self.sessions_open = reg.gauge(
            "jg_sessions_open", "Live sessions hosted by the daemon."
        )
        self.sessions_opened = reg.counter(
            "jg_sessions_opened_total", "Sessions admitted, ever."
        )
        self.sessions_rejected = reg.counter(
            "jg_sessions_rejected_total",
            "Sessions refused at admission, ever.",
        )
        self.sessions_closed = reg.counter(
            "jg_sessions_closed_total",
            "Sessions closed, by close reason.",
            ("reason",),
        )
        self.steps = reg.counter(
            "jg_steps_total", "Heartbeats processed across all sessions."
        )
        self.energy_spent = reg.counter(
            "jg_energy_spent_joules_total",
            "Joules accounted across all sessions, ever.",
        )
        self.budget_global = reg.gauge(
            "jg_budget_global_joules", "Global energy budget of the pool."
        )
        self.budget_committed = reg.gauge(
            "jg_budget_committed_joules",
            "Joules currently promised to live sessions.",
        )
        self.budget_available = reg.gauge(
            "jg_budget_available_joules",
            "Joules the pool can still grant.",
        )
        self.enforcement_transitions = reg.counter(
            "jg_enforcement_transitions_total",
            "Enforcement ladder transitions, by edge.",
            ("from_tier", "to_tier"),
        )
        self.session_pole = reg.gauge(
            "jg_session_pole",
            "Current controller pole per session.",
            ("session",),
        )
        self.session_epsilon = reg.gauge(
            "jg_session_epsilon",
            "Current SEO exploration rate per session.",
            ("session",),
        )
        self.session_burn = reg.gauge(
            "jg_session_budget_burn_ratio",
            "Spent joules over effective budget per session.",
            ("session",),
        )
        self.session_tier = reg.gauge(
            "jg_session_tier",
            "Enforcement tier per session (0=nominal .. 4=kill).",
            ("session",),
        )
        self.session_overdraft = reg.gauge(
            "jg_session_overdraft_joules",
            "Hard-budget overdraft per session (0 unless breached).",
            ("session",),
        )
        self.requests = reg.counter(
            "jg_requests_total",
            "Protocol requests handled, by type and outcome.",
            ("type", "ok"),
        )
        self.request_seconds = reg.histogram(
            "jg_request_seconds",
            "Wall-clock seconds spent handling one request.",
        )

    @classmethod
    def disabled(cls) -> "ServiceTelemetry":
        """A telemetry sink whose recorders are all no-ops."""
        return cls(enabled=False)

    def step_recorder(
        self, session_id: str
    ) -> Optional[SessionStepRecorder]:
        """Pre-bound per-step recorder for one session (None if disabled)."""
        if not self.enabled:
            return None
        return SessionStepRecorder(self, session_id)

    # -- recorders (no-ops when disabled) --------------------------------------
    def record_open(self, session_id: str, open_count: int) -> None:
        if not self.enabled:
            return
        self.sessions_opened.inc()
        self.sessions_open.set(open_count)
        self.events.append("session_opened", session=session_id)

    def record_reject(self, code: str) -> None:
        if not self.enabled:
            return
        self.sessions_rejected.inc()
        self.events.append("session_rejected", code=code)

    def record_close(
        self, session_id: str, reason: str, open_count: int
    ) -> None:
        if not self.enabled:
            return
        self.sessions_closed.labels(reason).inc()
        self.sessions_open.set(open_count)
        for gauge in (
            self.session_pole,
            self.session_epsilon,
            self.session_burn,
            self.session_tier,
            self.session_overdraft,
        ):
            gauge.remove(session_id)
        self.events.append(
            "session_closed", session=session_id, reason=reason
        )

    def record_step(
        self,
        session_id: str,
        energy_j: float,
        pole: float,
        epsilon: float,
        burn_fraction: float,
        tier: Tier,
        overdraft_j: float,
    ) -> None:
        if not self.enabled:
            return
        self.steps.inc()
        self.energy_spent.inc(max(0.0, energy_j))
        self.session_pole.labels(session_id).set(pole)
        self.session_epsilon.labels(session_id).set(epsilon)
        self.session_burn.labels(session_id).set(burn_fraction)
        self.session_tier.labels(session_id).set(float(int(tier)))
        self.session_overdraft.labels(session_id).set(overdraft_j)

    def record_pool(
        self, global_j: float, committed_j: float, available_j: float
    ) -> None:
        if not self.enabled:
            return
        self.budget_global.set(global_j)
        self.budget_committed.set(committed_j)
        self.budget_available.set(available_j)

    def record_transition(
        self, session_id: str, transition: TierTransition
    ) -> None:
        if not self.enabled:
            return
        self.enforcement_transitions.labels(
            transition.from_tier.label, transition.to_tier.label
        ).inc()
        fields = transition.as_dict()
        self.events.append(
            "tier_transition",
            session=session_id,
            step=fields["step"],
            edge=f"{fields['from']}->{fields['to']}",
            projected_overrun=round(fields["projected_overrun"], 6),
        )

    def record_event(self, kind: str, **fields: Any) -> None:
        if not self.enabled:
            return
        self.events.append(kind, **fields)

    def record_request(
        self, request_type: str, ok: bool, seconds: float
    ) -> None:
        if not self.enabled:
            return
        self.requests.labels(
            request_type, "true" if ok else "false"
        ).inc()
        self.request_seconds.observe(max(0.0, seconds))
