"""The enforcement ladder: a contract-checked tier state machine.

Severity is summarized by an :class:`OverdraftSignal` and mapped to a
desired :class:`Tier` by a :class:`LadderPolicy`; the
:class:`EnforcementLadder` then moves the *actual* tier toward the
desired one under two rules the contracts make unbreakable:

* **monotone escalation** — the ladder climbs at most one rung per
  observation, so every hard tier is preceded by every softer one
  (in particular, a KILL can never fire before a DEGRADE has been
  attempted);
* **hysteresis** — de-escalation needs ``hold_steps`` consecutive
  observations wanting a lower tier, drops one rung at a time, and
  never leaves KILL (termination is terminal).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core import floats
from ..core.contracts import check

__all__ = [
    "DEFAULT_LADDER",
    "EnforcementLadder",
    "KilledSessionError",
    "LadderPolicy",
    "OverdraftSignal",
    "Tier",
    "TierTransition",
    "monotone_transitions",
    "overdraft_signal",
    "rung_step",
    "signal_terms",
    "throttle_sleep",
    "wanted_tier",
]


class Tier(enum.IntEnum):
    """Enforcement tiers, ordered by severity of intervention."""

    NOMINAL = 0
    ADVISE = 1
    DEGRADE = 2
    THROTTLE = 3
    KILL = 4

    @property
    def label(self) -> str:
        """Lower-case wire/metric name of the tier."""
        return self.name.lower()


#: Tier members by value: the shared rules compute plain ints (one per
#: row in the fleet pool); the scalar objects wrap them back.
_TIERS = tuple(Tier)
_NOMINAL, _ADVISE, _DEGRADE, _THROTTLE, _KILL = (int(t) for t in _TIERS)


class KilledSessionError(RuntimeError):
    """An operation was attempted on a session the ladder killed."""


@dataclass(frozen=True)
class OverdraftSignal:
    """How badly a session is outrunning its energy grant.

    Parameters
    ----------
    projected_overrun:
        Fraction by which the *projected* total spend (spent so far
        plus forecast remaining spend) exceeds the effective budget;
        0.0 when the forecast lands inside the budget.
    burn_fraction:
        Spent joules over the effective budget (1.0 = hard bound hit).
    headroom_steps:
        Remaining joules divided by the recent per-step energy — how
        many more typical steps fit under the hard bound.  ``inf``
        when no per-step estimate exists yet.
    """

    projected_overrun: float
    burn_fraction: float
    headroom_steps: float

    def __post_init__(self) -> None:
        check(
            self.projected_overrun >= 0.0,
            "projected overrun is a fraction >= 0",
        )
        check(self.burn_fraction >= 0.0, "burn fraction cannot be negative")
        check(self.headroom_steps >= 0.0, "headroom cannot be negative")


def overdraft_signal(
    accountant: Any,
    recent_epw: Optional[float],
    recent_step_energy_j: Optional[float],
) -> OverdraftSignal:
    """Build the ladder's input from a budget accountant's state.

    ``accountant`` is any object with the
    :class:`~repro.core.budget.BudgetAccountant` surface
    (``effective_budget_j``, ``energy_used_j``, ``remaining_work``,
    ``remaining_energy_j``).  ``recent_epw`` is the session's smoothed
    energy-per-work estimate (``None`` before the first measurement);
    ``recent_step_energy_j`` the smoothed per-step energy.
    """
    projected_overrun, burn_fraction, headroom_steps = signal_terms(
        floats, accountant.effective_budget_j, accountant.energy_used_j,
        accountant.remaining_work, accountant.remaining_energy_j,
        0.0 if recent_epw is None else recent_epw, recent_epw is not None,
        0.0 if recent_step_energy_j is None else recent_step_energy_j,
        recent_step_energy_j is not None,
    )
    return OverdraftSignal(
        projected_overrun=projected_overrun,
        burn_fraction=burn_fraction,
        headroom_steps=headroom_steps,
    )


def signal_terms(
    xp: Any,
    effective_budget_j: Any,
    energy_used_j: Any,
    remaining_work: Any,
    remaining_energy_j: Any,
    recent_epw: Any,
    has_epw: Any,
    recent_step_energy_j: Any,
    has_step: Any,
) -> Tuple[Any, Any, Any]:
    """``(projected_overrun, burn_fraction, headroom_steps)``.

    The one definition of the :class:`OverdraftSignal` terms, over the
    namespace ``xp`` (:mod:`repro.core.floats`):
    :func:`overdraft_signal` passes one accountant, the fleet pool one
    row per session.  ``has_epw`` / ``has_step`` flag whether the
    smoothed estimates exist yet.  Without an energy-per-work estimate
    the overrun is 0; without a positive step-energy estimate the
    headroom is infinite.  ``remaining_energy_j`` is a remainder
    (:func:`repro.core.budget.remaining`, never negative), so the
    headroom needs no clamp.
    """
    budget_j = xp.maximum(effective_budget_j, 1e-12)
    burn_fraction = energy_used_j / budget_j
    projected_j = energy_used_j + recent_epw * remaining_work
    projected_overrun = xp.where(
        has_epw, xp.maximum(0.0, projected_j / budget_j - 1.0), 0.0
    )
    has_step = has_step & (recent_step_energy_j > 0.0)
    headroom_steps = xp.where(
        has_step,
        remaining_energy_j / xp.where(has_step, recent_step_energy_j, 1.0),
        math.inf,
    )
    return projected_overrun, burn_fraction, headroom_steps


@dataclass(frozen=True)
class LadderPolicy:
    """Thresholds mapping an :class:`OverdraftSignal` to a desired tier.

    Two facts about healthy JouleGuard sessions shape the defaults.
    First, a cold controller *always* forecasts an overrun during early
    exploration (it starts at default energy and converges down), so
    severity above ADVISE is gated on burn fraction: a forecast only
    justifies intervention once a real share of the budget is gone and
    the forecast *still* says overrun.  Second, an on-goal session
    spends its budget exactly, so burn approaches 1 and headroom
    approaches 0 at the natural end of *every* healthy run — low
    headroom alone is therefore never a trigger; hard tiers require a
    large surviving overrun forecast as well.  Measured healthy
    sessions show transient overruns up to ~0.55 below 25 % burn and
    ~0.35 past 50 % burn; the thresholds sit well above those with
    margin, while a genuine runaway (forecast overrun of 1.0+ that
    never decays) crosses them rung by rung long before the hard bound
    — early enough that the one-rung-per-observation climb reaches
    KILL with several typical steps of budget remaining.

    That makes the KILL predictive, and a killed session ends with
    zero overdraft, under two assumptions the ladder does not enforce:
    one step's energy stays small relative to the smoothed per-step
    estimate (the headroom is counted in *smoothed* steps, so a
    runaway whose real steps outgrow the estimate can overrun before
    the KILL lands), and a session that reached THROTTLE does not
    de-escalate (hysteresis lets one whose forecast falls back below
    the hard thresholds drop to DEGRADE or ADVISE and finish over
    budget without a KILL).  Generated fleet traffic breaks both:
    ``repro fleet --preset smoke --seed 5`` ends 1 of 122 hard-tier
    sessions over budget, ``--preset city --seed 0`` 52 of 1760 (the
    ROADMAP item on the hard-tier overdraft hole).

    Parameters
    ----------
    advise_overrun / degrade_overrun / throttle_overrun / kill_overrun:
        Projected-overrun fractions: above ``advise_overrun`` the tier
        is at least ADVISE (ungated); above ``degrade_overrun`` with
        ``burn >= degrade_burn_gate`` it is DEGRADE; above
        ``throttle_overrun`` with ``burn >= hard_burn_gate`` it is
        THROTTLE; above ``kill_overrun`` the headroom conditions below
        apply.
    degrade_burn_gate / hard_burn_gate:
        Burn fractions below which DEGRADE (resp. THROTTLE/KILL) is
        never desired — the controller's grace period to converge.
    throttle_headroom_steps / kill_headroom_steps:
        With ``overrun > kill_overrun`` past the hard burn gate, desire
        THROTTLE when fewer than ``throttle_headroom_steps`` typical
        steps of budget remain, and KILL below ``kill_headroom_steps``.
    hold_steps:
        Consecutive calmer observations required before de-escalating
        one rung (hysteresis).
    throttle_unit_s / throttle_max_s:
        Duty-cycle sleep injected per step while throttled: the unit,
        scaled up with overrun severity, capped at the max.
    """

    advise_overrun: float = 0.02
    degrade_overrun: float = 0.40
    throttle_overrun: float = 0.75
    kill_overrun: float = 0.50
    degrade_burn_gate: float = 0.25
    hard_burn_gate: float = 0.50
    throttle_headroom_steps: float = 20.0
    kill_headroom_steps: float = 8.0
    hold_steps: int = 5
    throttle_unit_s: float = 0.002
    throttle_max_s: float = 0.02

    def __post_init__(self) -> None:
        check(
            0.0 <= self.advise_overrun
            < self.degrade_overrun
            < self.throttle_overrun,
            "overrun thresholds must ascend with tier severity",
        )
        check(
            self.advise_overrun < self.kill_overrun,
            "kill overrun must exceed the advisory threshold",
        )
        check(
            0.0 <= self.degrade_burn_gate <= self.hard_burn_gate < 1.0,
            "burn gates must satisfy 0 <= degrade <= hard < 1",
        )
        check(
            0.0 < self.kill_headroom_steps < self.throttle_headroom_steps,
            "kill headroom must be tighter than throttle headroom",
        )
        check(self.hold_steps >= 1, "hysteresis needs at least one step")
        check(
            0.0 < self.throttle_unit_s <= self.throttle_max_s,
            "throttle sleeps must satisfy 0 < unit <= max",
        )

    def desired_tier(self, signal: OverdraftSignal) -> Tier:
        """The tier this signal's severity calls for (no hysteresis)."""
        return _TIERS[wanted_tier(
            floats, self, signal.projected_overrun, signal.burn_fraction,
            signal.headroom_steps,
        )]

    def throttle_s(self, signal: OverdraftSignal) -> float:
        """Duty-cycle sleep for one throttled step, scaled by severity."""
        sleep_s: float = throttle_sleep(
            floats, self, Tier.THROTTLE, signal.projected_overrun
        )
        return sleep_s


def wanted_tier(
    xp: Any,
    policy: LadderPolicy,
    projected_overrun: Any,
    burn_fraction: Any,
    headroom_steps: Any,
) -> Any:
    """The desired tier's value (no hysteresis), over the namespace ``xp``.

    The one definition of :meth:`LadderPolicy.desired_tier`, which wraps
    the value in a :class:`Tier`; the fleet pool passes one row per
    session and keeps the ``int64`` values.
    """
    hard = burn_fraction >= policy.hard_burn_gate
    runaway = projected_overrun > policy.kill_overrun
    kill = hard & runaway & (headroom_steps < policy.kill_headroom_steps)
    throttle = hard & (
        (projected_overrun > policy.throttle_overrun)
        | (runaway & (headroom_steps < policy.throttle_headroom_steps))
    )
    degrade = (burn_fraction >= policy.degrade_burn_gate) & (
        projected_overrun > policy.degrade_overrun
    )
    advise = projected_overrun > policy.advise_overrun
    tier = xp.where(advise, _ADVISE, _NOMINAL)
    tier = xp.where(degrade, _DEGRADE, tier)
    tier = xp.where(throttle, _THROTTLE, tier)
    return xp.where(kill, _KILL, tier)


def rung_step(
    hold_steps: int, tier: Any, calm_streak: Any, desired: Any
) -> Tuple[Any, Any]:
    """One ladder observation: ``(new tier value, new calm streak)``.

    The one definition of the transition rule of
    :meth:`EnforcementLadder.observe`, for one session's ints or the
    fleet pool's ``int64`` rows alike: it is integer arithmetic on
    predicates, which count as 0 / 1, so it needs no namespace.
    Escalation moves exactly one rung and resets the calm streak;
    de-escalation moves one rung after ``hold_steps`` consecutive
    calmer observations; an equal desire resets the streak.  Callers
    must not pass a killed session (KILL is terminal).
    """
    calmer = desired < tier
    calm = (calm_streak + 1) * calmer
    drop = calmer & (calm >= hold_steps)
    # Escalating and dropping exclude each other; a drop restarts the
    # streak.
    return tier + (desired > tier) - drop, calm * (calm < hold_steps)


def throttle_sleep(
    xp: Any, policy: LadderPolicy, tier: Any, projected_overrun: Any
) -> Any:
    """Duty-cycle sleep of one step at ``tier``: 0 unless THROTTLE.

    The one definition of the throttle sleep, over the namespace
    ``xp``: the unit, scaled up with overrun severity, capped at the
    max.
    """
    scale = 1.0 + 4.0 * xp.minimum(projected_overrun, 1.0)
    sleep_s = xp.minimum(policy.throttle_max_s, policy.throttle_unit_s * scale)
    return xp.where(tier == _THROTTLE, sleep_s, 0.0)


#: The shipped default policy (used by the service daemon).
DEFAULT_LADDER = LadderPolicy()


@dataclass(frozen=True)
class TierTransition:
    """One recorded tier change, for the event log and reports."""

    step: int
    from_tier: Tier
    to_tier: Tier
    projected_overrun: float
    burn_fraction: float
    headroom_steps: float

    def as_dict(self) -> Dict[str, Any]:
        headroom = self.headroom_steps
        return {
            "step": self.step,
            "from": self.from_tier.label,
            "to": self.to_tier.label,
            "projected_overrun": self.projected_overrun,
            "burn_fraction": self.burn_fraction,
            "headroom_steps": headroom if math.isfinite(headroom) else None,
        }


@dataclass
class EnforcementLadder:
    """Per-session enforcement state machine.

    Feed one :class:`OverdraftSignal` per step to :meth:`observe`; read
    :attr:`tier`, :meth:`throttle_s`, and :attr:`transitions` back.
    """

    policy: LadderPolicy = DEFAULT_LADDER
    tier: Tier = Tier.NOMINAL
    degrade_attempted: bool = False
    transitions: List[TierTransition] = field(default_factory=list)
    _calm_streak: int = 0
    _last_signal: Optional[OverdraftSignal] = None

    @property
    def killed(self) -> bool:
        return self.tier is Tier.KILL

    def observe(self, signal: OverdraftSignal, step: int) -> Tier:
        """Fold one step's severity into the ladder; return the tier.

        Escalates at most one rung, de-escalates one rung only after
        ``policy.hold_steps`` consecutive calmer observations, and
        never leaves KILL.  The contracts at the bottom re-state those
        rules as runtime-checked invariants.
        """
        check(step >= 0, "step index cannot be negative")
        previous = self.tier
        if previous is Tier.KILL:
            raise KilledSessionError(
                "ladder is in KILL: the session is terminated"
            )
        self._last_signal = signal
        policy = self.policy
        desired = wanted_tier(
            floats, policy, signal.projected_overrun,
            signal.burn_fraction, signal.headroom_steps,
        )
        value, self._calm_streak = rung_step(
            policy.hold_steps, previous, self._calm_streak, desired
        )
        new_tier = _TIERS[value]

        # Monotone escalation + hysteresis, as runtime contracts: the
        # ladder moves one rung at a time, and a KILL presupposes a
        # DEGRADE attempt (it climbed through DEGRADE to get there).
        check(
            abs(new_tier - previous) <= 1,
            "ladder may move at most one tier per observation",
        )
        check(
            new_tier is not Tier.KILL or self.degrade_attempted,
            "KILL cannot fire before a DEGRADE has been attempted",
        )
        if new_tier is not previous:
            self.transitions.append(
                TierTransition(
                    step=step,
                    from_tier=previous,
                    to_tier=new_tier,
                    projected_overrun=signal.projected_overrun,
                    burn_fraction=signal.burn_fraction,
                    headroom_steps=signal.headroom_steps,
                )
            )
        self.tier = new_tier
        if new_tier >= Tier.DEGRADE:
            self.degrade_attempted = True
        return new_tier

    def throttle_s(self) -> float:
        """The duty-cycle sleep for the current step (0 unless throttled)."""
        if self.tier is not Tier.THROTTLE or self._last_signal is None:
            return 0.0
        return self.policy.throttle_s(self._last_signal)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary for reports and the event log."""
        return {
            "tier": self.tier.label,
            "degrade_attempted": self.degrade_attempted,
            "transitions": [t.as_dict() for t in self.transitions],
        }


def monotone_transitions(
    transitions: List[Dict[str, Any]],
) -> Tuple[bool, str]:
    """Validate a wire-form transition list against the ladder rules.

    Used by the chaos harness on *reports* (the daemon may be remote):
    every escalation moves exactly one rung up, every de-escalation one
    rung down, nothing follows ``kill``, and any ``kill`` is preceded
    by a transition into ``degrade``.  Returns ``(ok, reason)``.
    """
    order = {tier.label: int(tier) for tier in Tier}
    degrade_seen = False
    previous_to: Optional[str] = None
    for transition in transitions:
        from_tier = str(transition.get("from", ""))
        to_tier = str(transition.get("to", ""))
        if from_tier not in order or to_tier not in order:
            return False, f"unknown tier in transition {transition!r}"
        if previous_to is not None and from_tier != previous_to:
            return False, (
                f"discontinuous ladder: {previous_to} -> {from_tier}"
            )
        if previous_to == Tier.KILL.label:
            return False, "transition recorded after kill"
        if abs(order[to_tier] - order[from_tier]) != 1:
            return False, (
                f"ladder jumped {from_tier} -> {to_tier} (not one rung)"
            )
        if order[to_tier] >= int(Tier.DEGRADE):
            degrade_seen = degrade_seen or to_tier != Tier.KILL.label
        if to_tier == Tier.KILL.label and not degrade_seen:
            return False, "kill fired before a degrade was attempted"
        previous_to = to_tier
    return True, ""
