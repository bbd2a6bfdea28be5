"""Tests for the Algorithm 1 runtime on a toy analytic plant.

The plant here is pure Python (two system configurations, a small
application table) so these tests exercise the runtime's logic in
isolation from the platform models.
"""

import numpy as np
import pytest

from repro.apps.base import AppConfig, ConfigTable
from repro.core.bandit import SystemEnergyOptimizer
from repro.core.budget import EnergyGoal
from repro.core.jouleguard import JouleGuardRuntime, build_runtime
from repro.core.types import Measurement


def make_table():
    return ConfigTable(
        [
            AppConfig(index=0, speedup=1.0, accuracy=1.0),
            AppConfig(index=1, speedup=1.5, accuracy=0.9),
            AppConfig(index=2, speedup=2.0, accuracy=0.8),
            AppConfig(index=3, speedup=3.0, accuracy=0.6),
        ]
    )


# Toy plant: two system configs.  Config 0: rate 10, power 100 (epw 10).
# Config 1: rate 6, power 30 (epw 5 — twice as efficient).
TRUE_RATES = (10.0, 6.0)
TRUE_POWERS = (100.0, 30.0)


def run_plant(runtime, n_iterations, rng=None, rate_noise=0.0, log=None):
    """Drive the runtime against the toy plant; return energy history.

    ``log``, when given, collects every decision ``step`` returns.
    """
    rng = rng or np.random.default_rng(0)
    energies, accuracies = [], []
    for _ in range(n_iterations):
        decision = runtime.current_decision
        rate = TRUE_RATES[decision.system_index] * decision.app_config.speedup
        if rate_noise:
            rate *= float(rng.lognormal(0, rate_noise))
        power = TRUE_POWERS[decision.system_index]
        time_s = 1.0 / rate
        energy = power * time_s
        energies.append(energy)
        accuracies.append(decision.app_config.accuracy)
        decision = runtime.step(
            Measurement(work=1.0, energy_j=energy, rate=rate, power_w=power)
        )
        assert decision is runtime.current_decision
        if log is not None:
            log.append(decision)
    return energies, accuracies


def make_runtime(factor, n_iterations, **seo_kwargs):
    default_epw = TRUE_POWERS[0] / TRUE_RATES[0]
    goal = EnergyGoal.from_factor(factor, n_iterations, default_epw)
    return build_runtime(
        prior_rate_shape=[1.0, 0.6],
        prior_power_shape=[3.0, 1.0],
        table=make_table(),
        goal=goal,
        seed=1,
        **seo_kwargs,
    )


class TestMeetsGoals:
    @pytest.mark.parametrize("factor", [1.1, 1.5, 2.0, 3.0])
    def test_energy_within_budget(self, factor):
        n = 300
        runtime = make_runtime(factor, n)
        energies, _ = run_plant(runtime, n, rate_noise=0.02)
        overshoot = sum(energies) / runtime.accountant.goal.budget_j
        assert overshoot < 1.03

    def test_easy_goal_preserves_full_accuracy(self):
        # f=1.5 with a 2x-efficient config available: no approximation
        # needed once the learner settles.
        n = 300
        runtime = make_runtime(1.5, n)
        _, accuracies = run_plant(runtime, n)
        assert np.mean(accuracies[-50:]) == pytest.approx(1.0)

    def test_hard_goal_sacrifices_accuracy(self):
        # f=3 requires epw 10/3 ≈ 3.33; best system epw is 5, so the app
        # must deliver ~1.5x → steady-state accuracy ≈ 0.9.
        n = 400
        runtime = make_runtime(3.0, n)
        _, accuracies = run_plant(runtime, n)
        steady = np.mean(accuracies[-50:])
        assert 0.75 <= steady <= 0.95

    def test_learner_finds_efficient_config(self):
        n = 200
        runtime = make_runtime(2.0, n)
        run_plant(runtime, n)
        assert runtime.seo.best_index == 1


class TestInfeasibleGoals:
    def test_impossible_goal_reported(self):
        # f=10 needs epw 1.0; best possible is 5/3 ≈ 1.67 → impossible.
        n = 200
        runtime = make_runtime(10.0, n)
        _, accuracies = run_plant(runtime, n)
        assert runtime.goal_reported_infeasible
        # Minimum-energy operation: fastest app config.
        assert accuracies[-1] == 0.6

    def test_feasible_goal_not_flagged(self):
        n = 300
        runtime = make_runtime(1.2, n)
        run_plant(runtime, n)
        assert not runtime.goal_reported_infeasible


class TestRuntimeMechanics:
    def test_initial_decision_available_before_feedback(self):
        runtime = make_runtime(2.0, 10)
        decision = runtime.current_decision
        assert decision.system_index in (0, 1)
        assert decision.app_config.speedup >= 1.0

    def test_decisions_logged(self):
        # The runtime keeps only the pending decision; a caller that
        # wants the history logs what each step returns.
        n = 50
        runtime = make_runtime(2.0, n)
        log = [runtime.current_decision]
        run_plant(runtime, n, log=log)
        assert len(log) == n + 1  # initial + one per step
        assert log[-1] is runtime.current_decision
        assert all(d.system_index in (0, 1) for d in log)
        assert len({id(d) for d in log}) == n + 1  # a new one per step

    def test_work_complete_freezes_operating_point(self):
        n = 10
        runtime = make_runtime(2.0, n)
        run_plant(runtime, n)
        before = runtime.current_decision
        # One more measurement after all work is accounted.
        runtime.step(Measurement(work=1.0, energy_j=1.0, rate=10.0, power_w=10.0))
        after = runtime.current_decision
        assert after.app_config is before.app_config

    def test_pole_reacts_to_model_error(self):
        runtime = make_runtime(2.0, 100)
        # Feed a measurement wildly inconsistent with the rate estimate.
        decision = runtime.current_decision
        est = runtime.seo.rate_estimate(decision.system_index)
        runtime.step(
            Measurement(
                work=1.0,
                energy_j=1.0,
                rate=est * decision.app_config.speedup * 10.0,
                power_w=50.0,
            )
        )
        assert runtime.current_decision.pole > 0.0

    def test_feasibility_slack_validation(self):
        with pytest.raises(ValueError):
            JouleGuardRuntime(
                seo=SystemEnergyOptimizer([1.0], [1.0]),
                table=make_table(),
                goal=EnergyGoal(total_work=1.0, budget_j=1.0),
                feasibility_slack=0.9,
            )

    def test_app_selection_respects_eqn6(self):
        n = 300
        runtime = make_runtime(3.0, n)
        log = []
        run_plant(runtime, n, log=log)
        assert len(log) == n
        feasible = [decision for decision in log[19:] if decision.feasible]
        assert feasible
        for decision in feasible:
            assert (
                decision.app_config.speedup
                >= decision.speedup_setpoint - 1e-9
            )


class TestSafeFallback:
    def settled_runtime(self):
        runtime = make_runtime(1.5, 50)
        run_plant(runtime, 20)
        return runtime

    def test_pin_safe_fallback_is_min_energy_operation(self):
        runtime = self.settled_runtime()
        decision = runtime.pin_safe_fallback()
        assert decision.speedup_setpoint == runtime.table.max_speedup
        assert decision.system_index == runtime.seo.best_index
        assert not decision.explored
        assert runtime.current_decision == decision

    def test_pin_safe_fallback_preserves_learned_state(self):
        runtime = self.settled_runtime()
        epsilon = runtime.seo.epsilon
        visited = runtime.seo.visited_count
        runtime.pin_safe_fallback()
        assert runtime.seo.epsilon == epsilon
        assert runtime.seo.visited_count == visited


class TestRetainedMemory:
    def test_a_session_does_not_grow_with_its_step_count(self):
        # Every per-step record the runtime kept (decision history,
        # energy trace) grew by one entry per heartbeat for the life of
        # a daemon session.  After warm-up, 2000 more steps must leave
        # the runtime's own allocations where 200 steps left them.
        import gc
        import os
        import tracemalloc

        import repro

        runtime = make_runtime(1.5, 10_000)
        rng = np.random.default_rng(1)
        run_plant(runtime, 300, rng=rng, rate_noise=0.05)
        only_repro = [
            tracemalloc.Filter(
                True, os.path.join(os.path.dirname(repro.__file__), "*")
            )
        ]

        def retained():
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces(only_repro)
            return sum(stat.size for stat in snapshot.statistics("filename"))

        tracemalloc.start()
        try:
            run_plant(runtime, 200, rng=rng, rate_noise=0.05)
            before = retained()
            run_plant(runtime, 2000, rng=rng, rate_noise=0.05)
            after = retained()
        finally:
            tracemalloc.stop()
        # A kept record per step would be >= 2000 × 24 B; allow a few
        # hundred bytes of allocator noise.
        assert after - before < 1024, f"{after - before} B retained"
