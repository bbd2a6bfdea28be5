"""Energy goals and budget bookkeeping.

The paper expresses goals as a factor ``f`` by which to decrease energy
relative to the application's default configuration (Sec. 5.2 sweeps
f ∈ {1.1 … 3.0}).  :class:`EnergyGoal` converts a factor into an absolute
budget, and :class:`BudgetAccountant` tracks work/energy so the runtime
can recompute the *remaining* joules-per-work-unit target each iteration
(Algorithm 1: "compute remaining energy and work").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from . import floats
from .contracts import check, invariant, non_negative, positive, require

#: The paper's sweep of energy-reduction factors (Sec. 5.2).
PAPER_FACTORS = (1.1, 1.2, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0)


@dataclass(frozen=True)
class EnergyGoal:
    """An energy budget for a fixed amount of work.

    Parameters
    ----------
    total_work:
        Work units the run must complete (frames, queries, …).
    budget_j:
        Total joules allowed for that work.
    """

    total_work: float
    budget_j: float

    def __post_init__(self) -> None:
        check(
            self.total_work > 0 and self.budget_j > 0,
            "work and budget must be positive",
        )

    @classmethod
    def from_factor(
        cls, factor: float, total_work: float, default_energy_per_work: float
    ) -> "EnergyGoal":
        """Budget for reducing default energy consumption by ``factor``."""
        check(
            factor >= 1.0, "factor must be >= 1 (1 = default energy)"
        )
        check(
            positive(default_energy_per_work),
            "default energy per work must be positive",
        )
        return cls(
            total_work=total_work,
            budget_j=total_work * default_energy_per_work / factor,
        )

    @property
    def energy_per_work(self) -> float:
        """The average joules-per-work-unit the budget allows."""
        return self.budget_j / self.total_work


@invariant(
    lambda self: self.work_done >= 0.0 and self.energy_used_j >= 0.0,
    "work/energy tallies can never go negative",
)
@dataclass
class BudgetAccountant:
    """Running work/energy tally against an :class:`EnergyGoal`.

    ``adjustment_j`` supports budget *transfers*: a multi-application
    coordinator (:mod:`repro.core.multi`) may grant one application's
    surplus joules to another; the goal itself stays immutable.
    """

    goal: EnergyGoal
    work_done: float = 0.0
    energy_used_j: float = 0.0
    adjustment_j: float = 0.0

    @require("work", non_negative, "work and energy must be non-negative")
    @require("energy_j", non_negative, "work and energy must be non-negative")
    def record(self, work: float, energy_j: float) -> None:
        """Account one iteration's work and energy."""
        self.work_done += work
        self.energy_used_j += energy_j

    def adjust_budget(self, delta_j: float) -> None:
        """Grant (positive) or reclaim (negative) budget.

        Reclaiming below what has already been spent is rejected — a
        coordinator can only take joules that still exist.
        """
        check(
            self.effective_budget_j + delta_j
            >= self.energy_used_j - 1e-9,
            "cannot reclaim already-spent budget",
        )
        self.adjustment_j += delta_j

    @property
    def effective_budget_j(self) -> float:
        """The goal budget plus any coordinator adjustments."""
        return self.goal.budget_j + self.adjustment_j

    @property
    def overdraft_j(self) -> float:
        """How far the spend already exceeds the effective budget."""
        return floats.maximum(
            0.0, self.energy_used_j - self.effective_budget_j
        )

    @property
    def remaining_work(self) -> float:
        work: float = remaining(floats, self.goal.total_work, self.work_done)
        return work

    @property
    def remaining_energy_j(self) -> float:
        energy_j: float = remaining(
            floats, self.effective_budget_j, self.energy_used_j
        )
        return energy_j

    @property
    def exhausted(self) -> bool:
        """Budget used up with work still to do."""
        return self.remaining_energy_j <= 0.0 and self.remaining_work > 0.0

    @property
    def complete(self) -> bool:
        return self.remaining_work <= 0.0

    def target_energy_per_work(self) -> Optional[float]:
        """Joules per work unit allowed for the remainder of the run.

        ``None`` when the run is complete; 0.0 when the budget is already
        exhausted (the runtime must then minimize energy outright).
        """
        target: float
        target, complete, _ = energy_target(
            floats, self.remaining_work, self.remaining_energy_j
        )
        return None if complete else target

    @property
    def overall_energy_per_work(self) -> float:
        if self.work_done <= 0:
            raise ValueError("no work recorded yet")
        return self.energy_used_j / self.work_done


def remaining(xp: Any, total: Any, used: Any) -> Any:
    """What is left of a work or joule allowance: ``max(0, total - used)``.

    The one definition of the remainder, over the namespace ``xp``
    (:mod:`repro.core.floats`): :class:`BudgetAccountant` passes one
    ledger's tallies, the fleet pool one row per session.
    """
    return xp.maximum(0.0, total - used)


def energy_target(
    xp: Any, remaining_work: Any, remaining_energy_j: Any
) -> Tuple[Any, Any, Any]:
    """Algorithm 1's joules-per-work target for the rest of the run.

    Returns ``(target, complete, exhausted)`` over the namespace ``xp``.
    ``complete`` (no work left) is the accountant's ``None``: its
    target reads 0.0 and must be ignored.  ``exhausted`` (work left, no
    joules) has target 0.0: the runtime must minimize energy outright.
    """
    complete = remaining_work <= 0.0
    exhausted = (remaining_work > 0.0) & (remaining_energy_j <= 0.0)
    target = xp.where(
        complete | exhausted,
        0.0,
        remaining_energy_j / xp.where(complete, 1.0, remaining_work),
    )
    return target, complete, exhausted
