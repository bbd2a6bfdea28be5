"""repro.enforce: hard energy guarantees before convergence.

JouleGuard *converges* to its energy budget (Eqns. 7-9), but
convergence is an asymptotic property: early in a run — or under
faults — a session can be burning joules faster than its grant allows.
This package turns "the controller will get there" into a *hard*
guarantee by wrapping every session in an **enforcement ladder**, a
small contract-checked state machine::

    NOMINAL -> ADVISE -> DEGRADE -> THROTTLE -> KILL

* **ADVISE** — the session's projected spend overruns its budget;
  nothing changes yet, but the tier is visible in reports, metrics,
  and the event log.
* **DEGRADE** — the overrun is material; the session is pinned to its
  most conservative known-safe configuration (the existing
  :meth:`~repro.core.jouleguard.JouleGuardRuntime.pin_safe_fallback`
  path) and its forecast surplus is reclaimed for the pool.
* **THROTTLE** — spend is approaching the *hard* budget; duty-cycle
  sleeps are injected into the session's step loop so wall-clock burn
  rate drops while the degraded configuration catches up.
* **KILL** — the hard bound is about to be breached; the session is
  terminated and its budget retired exactly (spent joules retired,
  unspent joules returned to the pool — zero-sum, JGF301-clean).

Runtime contracts (:mod:`repro.core.contracts`) enforce **monotone
escalation** — the ladder climbs one rung per observation, so a KILL
can never fire before a DEGRADE has been attempted — and **hysteresis**
on the way down: de-escalation requires a sustained calm streak, and
KILL is terminal.

The tier is chosen from an :class:`OverdraftSignal` (projected
overrun, burn fraction, and headroom measured in steps), computed the
same way for daemon sessions (:mod:`repro.service.sessions`),
library coordinators (:class:`repro.core.multi.MultiAppCoordinator`)
and fleet pools (:class:`repro.fleet.SessionPool`): each rule of the
ladder is one function of an array namespace, which the pool runs over
``numpy`` arrays (:mod:`repro.core.floats`).
"""

from .ladder import (
    DEFAULT_LADDER,
    EnforcementLadder,
    KilledSessionError,
    LadderPolicy,
    OverdraftSignal,
    Tier,
    TierTransition,
    monotone_transitions,
    overdraft_signal,
)

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
]
