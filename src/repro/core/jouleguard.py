"""The JouleGuard runtime: Algorithm 1.

Each loop iteration the runtime

1. folds the last iteration's measurement into the learner's rate/power
   estimates (Eqn. 1) and the exploration threshold ε (Eqn. 2) — the
   measured rate is first normalized by the *known* speedup of the
   application configuration that produced it, which is precisely the
   coordination the uncoordinated composition of Sec. 2.3 lacks;
2. selects the next system configuration: random with probability ε,
   otherwise the estimated-efficiency argmax (Eqn. 3);
3. recomputes the controller's pole from the learner's prediction error
   (Eqns. 10–11);
4. recomputes the remaining-budget energy target and the rate required
   to hit it (Eqn. 4), then updates the speedup control signal (Eqn. 5);
5. selects the most accurate application configuration delivering the
   speedup (Eqn. 6).

Impossible goals (Sec. 3.4.3) are detected when the required rate
exceeds what the best known system configuration can deliver even at the
application's maximum speedup; the runtime flags the goal infeasible and
pins the system to minimum-energy operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from .bandit import SystemEnergyOptimizer
from .budget import BudgetAccountant, EnergyGoal
from .controller import SpeedupController, required_rate
from .pole import AdaptivePole
from .types import AccuracyOrderedTable, Measurement


@dataclass(frozen=True)
class Decision:
    """The runtime's output for the next iteration."""

    system_index: int
    app_config: Any
    speedup_setpoint: float
    pole: float
    epsilon: float
    explored: bool
    feasible: bool


class JouleGuardRuntime:
    """Coordinated SEO + AAO runtime (Algorithm 1).

    Parameters
    ----------
    seo:
        The system energy optimizer (bandit over system configurations).
    table:
        The application's accuracy-ordered configuration table.
    goal:
        The energy budget.
    pole_adapter:
        Adaptive pole state (Eqns. 10–11); default is the paper's rule.
    feasibility_slack:
        Tolerance multiplier when testing whether the required rate is
        reachable (estimates are noisy; 1.05 avoids spurious flags).
    """

    def __init__(
        self,
        seo: SystemEnergyOptimizer,
        table: AccuracyOrderedTable,
        goal: EnergyGoal,
        pole_adapter: Optional[AdaptivePole] = None,
        feasibility_slack: float = 1.05,
    ) -> None:
        if feasibility_slack < 1.0:
            raise ValueError("feasibility_slack must be >= 1")
        self.seo = seo
        self.table = table
        self.accountant = BudgetAccountant(goal)
        self.pole_adapter = (
            pole_adapter if pole_adapter is not None else AdaptivePole()
        )
        frontier = table.pareto_frontier
        if not frontier:
            raise ValueError("application has no configurations")
        self.controller = SpeedupController(
            min_speedup=frontier[0].speedup,
            max_speedup=table.max_speedup,
            initial_speedup=frontier[0].speedup,
        )
        self.feasibility_slack = feasibility_slack
        self.goal_reported_infeasible = False
        self._decision = Decision(
            system_index=self.seo.best_index,
            app_config=table.best_accuracy_for_speedup(0.0),
            speedup_setpoint=self.controller.speedup,
            pole=self.pole_adapter.pole,
            epsilon=self.seo.epsilon,
            explored=False,
            feasible=True,
        )

    # -- inspection -----------------------------------------------------------
    @property
    def current_decision(self) -> Decision:
        """The decision the application should currently be running."""
        return self._decision

    # -- Algorithm 1 ------------------------------------------------------------
    def step(self, measurement: Measurement) -> Decision:
        """Process one iteration's feedback; return the next decision."""
        previous = self._decision

        # 1. Update models.  Normalize the measured application rate by
        # the known speedup of the configuration that produced it so the
        # learner sees *system* performance (the coordination step).
        applied_speedup = previous.app_config.speedup
        system_rate = measurement.rate / applied_speedup
        self.seo.update(
            previous.system_index, system_rate, measurement.power_w
        )
        # 3. (Eqns. 10–11) — the learner's prediction error sets the pole.
        pole = self.pole_adapter.update_from_delta(self.seo.last_rate_delta)

        # Bookkeeping.
        self.accountant.record(measurement.work, measurement.energy_j)

        # 2. Select the system configuration.
        selection = self.seo.select()
        est_rate = self.seo.rate_estimate(selection.index)
        est_power = self.seo.power_estimate(selection.index)

        # 4. Remaining-budget target → required rate → control signal.
        target = self.accountant.target_energy_per_work()
        if target is None:
            # All work done: freeze the previous operating point.
            decision = Decision(
                system_index=selection.index,
                app_config=previous.app_config,
                speedup_setpoint=self.controller.speedup,
                pole=pole,
                epsilon=selection.epsilon,
                explored=selection.explored,
                feasible=previous.feasible,
            )
            self._commit(decision)
            return decision

        feasible = True
        if target <= 0.0:
            # Budget already exhausted: minimize energy outright.
            feasible = False
            speedup = self.table.max_speedup
        else:
            needed = required_rate(target, est_power)
            reachable = (
                est_rate * self.table.max_speedup * self.feasibility_slack
            )
            if needed > reachable:
                # Saturate rather than reset: the integral state survives
                # transient infeasibility (e.g. debt after exploration).
                feasible = False
                speedup = self.table.max_speedup
                self.controller.speedup = speedup
            else:
                speedup = self.controller.step(
                    required=needed,
                    measured_rate=measurement.rate,
                    est_system_rate=est_rate,
                    pole=pole,
                )
        if not feasible:
            self.goal_reported_infeasible = True

        # 5. Eqn. 6: most accurate configuration delivering the speedup.
        app_config = self.table.best_accuracy_for_speedup(speedup)

        decision = Decision(
            system_index=selection.index,
            app_config=app_config,
            speedup_setpoint=speedup,
            pole=pole,
            epsilon=selection.epsilon,
            explored=selection.explored,
            feasible=feasible,
        )
        self._commit(decision)
        return decision

    def pin_safe_fallback(self) -> Decision:
        """Pin minimum-energy operation without fresh feedback.

        The degradation path for sensor loss: with no trustworthy
        measurements the runtime cannot run Algorithm 1, so it falls
        back to its most conservative known-safe configuration — the
        best-efficiency system configuration it has learned so far and
        the application's maximum speedup (lowest energy per work, as
        in the impossible-goals path of Sec. 3.4.3).  No estimator is
        updated; when feedback returns, :meth:`step` resumes from the
        learned state unchanged.
        """
        speedup = self.table.max_speedup
        self.controller.speedup = speedup
        decision = Decision(
            system_index=self.seo.best_index,
            app_config=self.table.best_accuracy_for_speedup(speedup),
            speedup_setpoint=speedup,
            pole=self.pole_adapter.pole,
            epsilon=self.seo.epsilon,
            explored=False,
            feasible=self._decision.feasible,
        )
        self._commit(decision)
        return decision

    def _commit(self, decision: Decision) -> None:
        self._decision = decision

    # -- persistence ----------------------------------------------------------
    def snapshot_learned(self) -> Dict[str, Any]:
        """JSON-serializable *learned* state of this runtime.

        Covers the SEO's bandit tables, the adaptive pole, and the
        controller's integral state — the pieces that are expensive to
        re-learn.  Budget accounting and the pending decision are
        deliberately excluded: they belong to one run, not to the
        (application, platform) pair.  Wrapped with identity and a
        format version by :mod:`repro.service.state`.
        """
        return {
            "seo": self.seo.snapshot(),
            "pole": self.pole_adapter.snapshot(),
            "controller": self.controller.snapshot(),
        }

    def restore_learned(
        self,
        snapshot: Mapping[str, Any],
        seed: Optional[int] = None,
    ) -> None:
        """Warm-start this runtime from :meth:`snapshot_learned` output.

        The runtime keeps its own goal, accountant, and configuration
        table; only the learner, pole, and integrator are replaced.
        ``seed`` reseeds SEO exploration (see
        :meth:`SystemEnergyOptimizer.restore`).  The pending decision is
        refreshed so the very first iteration already runs the learned
        efficiency argmax instead of the cold-start default.
        """
        seo = SystemEnergyOptimizer.restore(snapshot["seo"], seed=seed)
        if seo.n_configs != self.seo.n_configs:
            raise ValueError(
                "snapshot covers a different system configuration space "
                f"({seo.n_configs} configs vs {self.seo.n_configs})"
            )
        self.seo = seo
        self.pole_adapter = AdaptivePole.restore(snapshot["pole"])
        self.controller.reset(float(snapshot["controller"]["speedup"]))
        decision = Decision(
            system_index=self.seo.best_index,
            app_config=self.table.best_accuracy_for_speedup(
                self.controller.speedup
            ),
            speedup_setpoint=self.controller.speedup,
            pole=self.pole_adapter.pole,
            epsilon=self.seo.epsilon,
            explored=False,
            feasible=True,
        )
        self._commit(decision)


def build_runtime(
    prior_rate_shape,
    prior_power_shape,
    table: AccuracyOrderedTable,
    goal: EnergyGoal,
    seed: int = 0,
    **seo_kwargs,
) -> JouleGuardRuntime:
    """Convenience constructor wiring an SEO to a runtime."""
    seo = SystemEnergyOptimizer(
        prior_rate_shape, prior_power_shape, seed=seed, **seo_kwargs
    )
    return JouleGuardRuntime(seo=seo, table=table, goal=goal)
