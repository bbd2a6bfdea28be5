"""Multi-application energy coordination (an extension beyond the paper).

The paper manages one application against one budget.  A device usually
runs several approximate applications against one battery; this module
coordinates N independent :class:`~repro.core.jouleguard.JouleGuardRuntime`
instances sharing a *global* budget:

* the global budget is split into per-application budgets up front
  (proportional to each application's forecast default energy need,
  scaled by optional user priorities);
* every ``rebalance_period`` iterations, the coordinator forecasts each
  application's remaining spend from its recent energy-per-work and
  *transfers* surplus joules from applications running under budget to
  those straining (most usefully: ones whose goals have become
  infeasible on their own share).

Transfers are conservative — the sum of effective budgets always equals
the global budget — so the whole-device guarantee is preserved while
accuracy is re-maximized across applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..enforce.ladder import (
    EnforcementLadder,
    LadderPolicy,
    Tier,
    overdraft_signal,
)
from .budget import BudgetAccountant
from .contracts import ContractError
from .jouleguard import Decision, JouleGuardRuntime
from .types import Measurement


class ApplicationKilled(RuntimeError):
    """The enforcement ladder terminated one coordinated application.

    The application's unspent share stays in its accountant and drains
    to strainers through subsequent rebalances (killed applications are
    pure donors), so the coordinator-wide budget sum stays invariant.
    """

    def __init__(self, name: str, summary: Dict[str, float]) -> None:
        super().__init__(
            f"application {name!r} killed by the enforcement ladder"
        )
        self.name = name
        self.summary = summary


@dataclass
class _AppState:
    runtime: JouleGuardRuntime
    recent_epw: Optional[float] = None
    steps: int = 0
    ladder: Optional[EnforcementLadder] = None
    recent_step_energy_j: Optional[float] = None
    killed: bool = False

    @property
    def tier(self) -> Tier:
        return self.ladder.tier if self.ladder is not None else Tier.NOMINAL


def split_budget(
    total_j: float,
    default_energy_needs: Mapping[str, float],
    priorities: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Initial per-application budgets.

    ``default_energy_needs`` maps each application to the joules its
    whole workload would cost in the default configuration; priorities
    (default 1.0) scale each share before normalization.
    """
    if total_j <= 0:
        raise ValueError("total budget must be positive")
    if not default_energy_needs:
        raise ValueError("no applications")
    weights = {}
    for name, need in default_energy_needs.items():
        if need <= 0:
            raise ValueError(f"{name}: energy need must be positive")
        priority = 1.0 if priorities is None else priorities.get(name, 1.0)
        if priority <= 0:
            raise ValueError(f"{name}: priority must be positive")
        weights[name] = need * priority
    scale = total_j / sum(weights.values())
    return {name: weight * scale for name, weight in weights.items()}


def plan_rebalance(
    surpluses: Mapping[str, float],
    overdrafts: Mapping[str, float],
    transfer_fraction: float,
) -> Dict[str, float]:
    """Pure transfer plan: per-account budget deltas, summing to zero.

    ``surpluses`` maps each account (an application, a service
    session) to its forecast surplus (negative = deficit);
    ``overdrafts`` maps it to how far its spend already exceeds its
    budget (0 when healthy).  A ``transfer_fraction`` share of the
    donors' total surplus, capped at the needers' total deficit, moves
    pro rata from donors to needers.  The iteration order of
    ``surpluses`` is the order of the plan, so equal inputs in equal
    order give bit-identical deltas — which is what lets the shard
    router plan for every worker at once exactly as one process would.
    """
    donors = {s: v for s, v in surpluses.items() if v > 0}
    needers = {s: -v for s, v in surpluses.items() if v < 0}
    deltas = {account: 0.0 for account in surpluses}
    while donors and needers:
        available = sum(donors.values()) * transfer_fraction
        needed = sum(needers.values())
        moved = min(available, needed)
        if moved <= 0:
            break
        # A grant below an account's overdraft cannot lift it back
        # above water and the accountant rejects it (an effective
        # budget may never end up under what is already spent), so
        # drop such needers and re-split among the rest.
        undersized = [
            account
            for account, deficit in needers.items()
            if moved * deficit / needed
            < overdrafts.get(account, 0.0) - 1e-9
        ]
        if undersized:
            for account in undersized:
                del needers[account]
            continue
        donor_total = sum(donors.values())
        for account, surplus in donors.items():
            deltas[account] -= moved * surplus / donor_total
        for account, deficit in needers.items():
            deltas[account] += moved * deficit / needed
        break
    return deltas


def apply_rebalance_plan(
    accountants: Mapping[str, BudgetAccountant],
    deltas: Mapping[str, float],
) -> Dict[str, float]:
    """Apply a transfer plan all-or-nothing; return what was applied.

    Donations are applied before grants, each in plan order.  Exact-zero
    deltas and accounts missing from ``accountants`` are skipped (a
    shard worker is handed only its slice, but may be handed ids it
    has already closed).  If the accountant's contract rejects a
    transfer mid-plan, the transfers already applied are compensated
    before re-raising, so the sum of effective budgets stays invariant
    on the exception edge too (jgflow JGF301's sanctioned rollback
    idiom).
    """
    applied: List[Tuple[BudgetAccountant, float]] = []
    recorded = {
        account: 0.0 for account in deltas if account in accountants
    }
    try:
        for phase in (0, 1):  # 0: donations out, 1: grants in
            for account, delta_j in deltas.items():
                if account not in accountants:
                    continue
                if delta_j == 0.0:  # jglint: disable=JG004
                    # Exact zero means "no transfer", never a rounding
                    # artifact: plans carry literal 0.0.
                    continue
                if (delta_j > 0.0) != bool(phase):
                    continue
                accountant = accountants[account]
                accountant.adjust_budget(delta_j)
                applied.append((accountant, delta_j))
                recorded[account] += delta_j
    except ContractError:
        for accountant, applied_j in reversed(applied):
            accountant.adjust_budget(-applied_j)
        raise
    return recorded


class MultiAppCoordinator:
    """Coordinates several runtimes against one global energy budget.

    Parameters
    ----------
    runtimes:
        Name → runtime.  Each runtime's own goal carries its initial
        share (see :func:`split_budget`).
    rebalance_period:
        Coordinator iterations between budget transfers.
    transfer_fraction:
        Share of a donor's forecast surplus moved per rebalance (moving
        everything at once overreacts to noisy forecasts).
    smoothing:
        EWMA weight for each application's recent energy-per-work.
    enforcement:
        Optional :class:`~repro.enforce.ladder.LadderPolicy`; when set,
        each application gets its own enforcement ladder.  DEGRADE pins
        the safe fallback, THROTTLE is surfaced via :meth:`throttle_s`
        (the caller owns the loop, so it owns the sleep), and KILL
        freezes the application and raises :class:`ApplicationKilled`.
        ``None`` (the default) preserves the pre-ladder behaviour.
    """

    def __init__(
        self,
        runtimes: Mapping[str, JouleGuardRuntime],
        rebalance_period: int = 25,
        transfer_fraction: float = 0.5,
        smoothing: float = 0.25,
        enforcement: Optional[LadderPolicy] = None,
    ) -> None:
        if not runtimes:
            raise ValueError("no runtimes to coordinate")
        if rebalance_period < 1:
            raise ValueError("rebalance period must be >= 1")
        if not 0.0 < transfer_fraction <= 1.0:
            raise ValueError("transfer_fraction must be in (0, 1]")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self._apps = {
            name: _AppState(
                runtime=runtime,
                ladder=(
                    EnforcementLadder(policy=enforcement)
                    if enforcement is not None
                    else None
                ),
            )
            for name, runtime in runtimes.items()
        }
        self.rebalance_period = rebalance_period
        self.transfer_fraction = transfer_fraction
        self.smoothing = smoothing
        self._steps_since_rebalance = 0
        self.rebalances = 0

    # -- delegation -------------------------------------------------------------
    def current_decision(self, name: str) -> Decision:
        return self._apps[name].runtime.current_decision

    def step(self, name: str, measurement: Measurement) -> Decision:
        """Feed one application's measurement; rebalance on schedule.

        With enforcement configured, the heartbeat also feeds this
        application's ladder: DEGRADE pins its safe fallback, and KILL
        freezes it (further steps raise) and raises
        :class:`ApplicationKilled`.
        """
        state = self._apps[name]
        if state.killed:
            raise ApplicationKilled(name, self._app_summary(state))
        epw = measurement.energy_j / measurement.work
        if state.recent_epw is None:
            state.recent_epw = epw
        else:
            state.recent_epw += self.smoothing * (epw - state.recent_epw)
        state.steps += 1
        decision = state.runtime.step(measurement)
        if state.recent_step_energy_j is None:
            state.recent_step_energy_j = measurement.energy_j
        else:
            state.recent_step_energy_j += self.smoothing * (
                measurement.energy_j - state.recent_step_energy_j
            )
        if state.ladder is not None:
            decision = self._enforce(name, state, decision)
        self._steps_since_rebalance += 1
        if self._steps_since_rebalance >= self.rebalance_period:
            self.rebalance()
            self._steps_since_rebalance = 0
        return decision

    def _enforce(
        self, name: str, state: _AppState, decision: Decision
    ) -> Decision:
        """One ladder observation for one application."""
        assert state.ladder is not None
        signal = overdraft_signal(
            state.runtime.accountant,
            state.recent_epw,
            state.recent_step_energy_j,
        )
        tier = state.ladder.observe(signal, state.steps)
        if Tier.DEGRADE <= tier < Tier.KILL:
            # Re-pin every enforced step; the pin is per-decision.
            state.runtime.pin_safe_fallback()
            decision = state.runtime.current_decision
        if tier is Tier.KILL:
            state.killed = True
            raise ApplicationKilled(name, self._app_summary(state))
        return decision

    def tier_of(self, name: str) -> Tier:
        """This application's current enforcement tier."""
        return self._apps[name].tier

    def throttle_s(self, name: str) -> float:
        """Duty-cycle sleep the caller should inject for this app."""
        ladder = self._apps[name].ladder
        return ladder.throttle_s() if ladder is not None else 0.0

    # -- budget transfers ----------------------------------------------------------
    def _forecast_surplus(self, state: _AppState) -> float:
        """Remaining budget minus forecast remaining spend (can be < 0).

        A killed application will never spend again, so its whole
        remaining budget is surplus: rebalances drain it to strainers
        instead of deleting it, keeping the budget sum invariant.
        """
        accountant = state.runtime.accountant
        if (
            state.killed
            or accountant.complete
            or state.recent_epw is None
        ):
            return accountant.remaining_energy_j
        projected = state.recent_epw * accountant.remaining_work
        return accountant.remaining_energy_j - projected

    def rebalance(self) -> Dict[str, float]:
        """Move surplus joules from under-spenders to strainers.

        Returns the per-application deltas applied (sum ≈ 0).  A
        transfer happens only when at least one application forecasts a
        deficit and another a surplus.
        """
        surpluses = {
            name: self._forecast_surplus(state)
            for name, state in self._apps.items()
        }
        accountants = {
            name: state.runtime.accountant
            for name, state in self._apps.items()
        }
        overdrafts = {
            name: accountant.overdraft_j
            for name, accountant in accountants.items()
        }
        deltas = plan_rebalance(
            surpluses, overdrafts, self.transfer_fraction
        )
        apply_rebalance_plan(accountants, deltas)
        self.rebalances += 1
        return deltas

    # -- accounting invariants ---------------------------------------------------------
    @property
    def total_effective_budget_j(self) -> float:
        """Sum of effective budgets — conserved across rebalances."""
        return sum(
            state.runtime.accountant.effective_budget_j
            for state in self._apps.values()
        )

    @property
    def total_energy_used_j(self) -> float:
        return sum(
            state.runtime.accountant.energy_used_j
            for state in self._apps.values()
        )

    def _app_summary(self, state: _AppState) -> Dict[str, float]:
        accountant = state.runtime.accountant
        return {
            "budget_j": accountant.goal.budget_j,
            "effective_budget_j": accountant.effective_budget_j,
            "energy_used_j": accountant.energy_used_j,
            "work_done": accountant.work_done,
            "infeasible": state.runtime.goal_reported_infeasible,
            "tier": state.tier.label,
            "killed": state.killed,
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-application accounting snapshot."""
        return {
            name: self._app_summary(state)
            for name, state in self._apps.items()
        }
