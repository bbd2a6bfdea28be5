"""Tests for the multi-application budget coordinator."""

import numpy as np
import pytest

from repro.apps.base import AppConfig, ConfigTable
from repro.core.budget import BudgetAccountant, EnergyGoal
from repro.core.jouleguard import build_runtime
from repro.core.multi import (
    ApplicationKilled,
    MultiAppCoordinator,
    split_budget,
)
from repro.core.types import Measurement
from repro.enforce.ladder import LadderPolicy, Tier


def make_table(max_speedup=3.0):
    return ConfigTable(
        [
            AppConfig(index=0, speedup=1.0, accuracy=1.0),
            AppConfig(index=1, speedup=1.5, accuracy=0.9),
            AppConfig(index=2, speedup=2.0, accuracy=0.8),
            AppConfig(index=3, speedup=max_speedup, accuracy=0.6),
        ]
    )


# Toy plants per app: (rates per sys config, powers per sys config).
PLANTS = {
    "video": ((10.0, 6.0), (100.0, 30.0)),
    "search": ((8.0, 5.0), (80.0, 40.0)),
}


def make_runtime(name, budget_j, n_iterations, seed=0):
    rates, powers = PLANTS[name]
    return build_runtime(
        prior_rate_shape=[1.0, 0.6],
        prior_power_shape=[3.0, 1.0],
        table=make_table(),
        goal=EnergyGoal(total_work=n_iterations, budget_j=budget_j),
        seed=seed,
    )


def drive(coordinator, n_iterations, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n_iterations):
        for name in PLANTS:
            decision = coordinator.current_decision(name)
            rates, powers = PLANTS[name]
            rate = rates[decision.system_index] * decision.app_config.speedup
            if noise:
                rate *= float(rng.lognormal(0, noise))
            power = powers[decision.system_index]
            energy = power / rate
            coordinator.step(
                name,
                Measurement(work=1.0, energy_j=energy, rate=rate, power_w=power),
            )


class TestSplitBudget:
    def test_proportional_to_need(self):
        shares = split_budget(100.0, {"a": 30.0, "b": 10.0})
        assert shares["a"] == pytest.approx(75.0)
        assert shares["b"] == pytest.approx(25.0)
        assert sum(shares.values()) == pytest.approx(100.0)

    def test_priorities_scale_shares(self):
        shares = split_budget(
            100.0, {"a": 10.0, "b": 10.0}, priorities={"a": 3.0}
        )
        assert shares["a"] == pytest.approx(75.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            split_budget(0.0, {"a": 1.0})
        with pytest.raises(ValueError):
            split_budget(10.0, {})
        with pytest.raises(ValueError):
            split_budget(10.0, {"a": -1.0})
        with pytest.raises(ValueError):
            split_budget(10.0, {"a": 1.0}, priorities={"a": 0.0})


class TestBudgetAdjustment:
    def test_adjustment_extends_remaining(self):
        accountant = BudgetAccountant(EnergyGoal(10.0, 100.0))
        accountant.adjust_budget(50.0)
        assert accountant.effective_budget_j == 150.0
        assert accountant.remaining_energy_j == 150.0

    def test_cannot_reclaim_spent_budget(self):
        accountant = BudgetAccountant(EnergyGoal(10.0, 100.0))
        accountant.record(5.0, 90.0)
        with pytest.raises(ValueError):
            accountant.adjust_budget(-20.0)

    def test_reclaim_unspent_is_fine(self):
        accountant = BudgetAccountant(EnergyGoal(10.0, 100.0))
        accountant.record(5.0, 10.0)
        accountant.adjust_budget(-50.0)
        assert accountant.remaining_energy_j == pytest.approx(40.0)


class TestCoordinator:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiAppCoordinator({})
        runtime = make_runtime("video", 100.0, 10)
        with pytest.raises(ValueError):
            MultiAppCoordinator({"v": runtime}, rebalance_period=0)
        with pytest.raises(ValueError):
            MultiAppCoordinator({"v": runtime}, transfer_fraction=0.0)

    def test_budget_conserved_across_rebalances(self):
        n = 200
        runtimes = {
            "video": make_runtime("video", 1200.0, n, seed=1),
            "search": make_runtime("search", 1200.0, n, seed=2),
        }
        coordinator = MultiAppCoordinator(runtimes, rebalance_period=20)
        total_before = coordinator.total_effective_budget_j
        drive(coordinator, n, noise=0.02)
        assert coordinator.total_effective_budget_j == pytest.approx(
            total_before
        )

    def test_global_budget_respected(self):
        n = 300
        runtimes = {
            "video": make_runtime("video", 1500.0, n, seed=3),
            "search": make_runtime("search", 1500.0, n, seed=4),
        }
        coordinator = MultiAppCoordinator(runtimes, rebalance_period=25)
        drive(coordinator, n, noise=0.02)
        assert (
            coordinator.total_energy_used_j
            <= coordinator.total_effective_budget_j * 1.03
        )

    def test_surplus_flows_to_straining_app(self):
        n = 300
        # video gets a generous share; search gets a share that is
        # infeasible on its own (search min epw = 40/(5*3) = 2.67/iter,
        # so 500 J for 300 iterations cannot be met alone).
        runtimes = {
            "video": make_runtime("video", 2500.0, n, seed=5),
            "search": make_runtime("search", 500.0, n, seed=6),
        }
        coordinator = MultiAppCoordinator(runtimes, rebalance_period=20)
        drive(coordinator, n, noise=0.02)
        report = coordinator.summary()
        assert report["search"]["effective_budget_j"] > 500.0
        assert report["video"]["effective_budget_j"] < 2500.0
        # And the combined run still lands inside the global budget.
        assert coordinator.total_energy_used_j <= 3000.0 * 1.03

    def test_transfer_improves_straining_apps_accuracy(self):
        n = 300

        def final_accuracy(coordinated):
            runtimes = {
                "video": make_runtime("video", 2500.0, n, seed=7),
                "search": make_runtime("search", 500.0, n, seed=8),
            }
            coordinator = MultiAppCoordinator(
                runtimes,
                rebalance_period=20 if coordinated else 10**9,
            )
            accuracies = []
            rng = np.random.default_rng(9)
            for _ in range(n):
                for name in PLANTS:
                    decision = coordinator.current_decision(name)
                    rates, powers = PLANTS[name]
                    rate = (
                        rates[decision.system_index]
                        * decision.app_config.speedup
                        * float(rng.lognormal(0, 0.02))
                    )
                    power = powers[decision.system_index]
                    coordinator.step(
                        name,
                        Measurement(
                            work=1.0,
                            energy_j=power / rate,
                            rate=rate,
                            power_w=power,
                        ),
                    )
                    if name == "search":
                        accuracies.append(decision.app_config.accuracy)
            return float(np.mean(accuracies[n // 2 :]))

        assert final_accuracy(True) > final_accuracy(False)

    def test_no_transfer_when_everyone_is_fine(self):
        n = 100
        runtimes = {
            "video": make_runtime("video", 5000.0, n, seed=10),
            "search": make_runtime("search", 5000.0, n, seed=11),
        }
        coordinator = MultiAppCoordinator(runtimes, rebalance_period=10)
        drive(coordinator, n)
        assert coordinator.rebalances > 0
        # Each rebalance may move at most 1e-9 J per application.
        tolerance_j = 1e-9 * coordinator.rebalances
        for runtime in runtimes.values():
            accountant = runtime.accountant
            assert abs(
                accountant.effective_budget_j - accountant.goal.budget_j
            ) < tolerance_j


def runaway_feed(coordinator, name, budget_j, burn=0.15, steps=20):
    """Heartbeats burning ``burn`` of the app's grant per unit work."""
    energy = burn * budget_j
    for _ in range(steps):
        coordinator.step(
            name,
            Measurement(
                work=1.0, energy_j=energy, rate=10.0, power_w=energy
            ),
        )


class TestEnforcement:
    def make_coordinator(self, rebalance_period=1000):
        runtimes = {
            "video": make_runtime("video", 1000.0, 1000, seed=1),
            "search": make_runtime("search", 100.0, 100, seed=2),
        }
        return MultiAppCoordinator(
            runtimes,
            rebalance_period=rebalance_period,
            enforcement=LadderPolicy(),
        )

    def test_runaway_app_is_killed(self):
        coordinator = self.make_coordinator()
        with pytest.raises(ApplicationKilled) as excinfo:
            runaway_feed(coordinator, "video", 1000.0)
        assert excinfo.value.name == "video"
        summary = excinfo.value.summary
        assert summary["killed"] is True
        assert summary["tier"] == "kill"
        # The hard guarantee: the kill fired before the bound.
        assert (
            summary["energy_used_j"] <= summary["effective_budget_j"]
        )

    def test_step_after_kill_keeps_raising(self):
        coordinator = self.make_coordinator()
        with pytest.raises(ApplicationKilled):
            runaway_feed(coordinator, "video", 1000.0)
        with pytest.raises(ApplicationKilled):
            coordinator.step(
                "video",
                Measurement(
                    work=1.0, energy_j=1.0, rate=10.0, power_w=1.0
                ),
            )
        assert coordinator.tier_of("video") is Tier.KILL

    def test_killed_app_donates_its_budget_zero_sum(self):
        coordinator = self.make_coordinator()
        # Make search a needer first: energy per work twice its grant.
        runaway_feed(coordinator, "search", 100.0, burn=0.02, steps=2)
        with pytest.raises(ApplicationKilled):
            runaway_feed(coordinator, "video", 1000.0)
        total_before = coordinator.total_effective_budget_j
        before = coordinator.summary()
        coordinator.rebalance()
        after = coordinator.summary()
        # The killed app's grant drains to the strainer, zero-sum:
        # nothing is deleted, so the global guarantee survives.
        assert (
            after["video"]["effective_budget_j"]
            < before["video"]["effective_budget_j"]
        )
        assert (
            after["search"]["effective_budget_j"]
            > before["search"]["effective_budget_j"]
        )
        assert coordinator.total_effective_budget_j == pytest.approx(
            total_before
        )

    def test_throttle_surfaces_to_the_caller(self):
        coordinator = self.make_coordinator()
        # Four runaway heartbeats climb to THROTTLE (one rung each).
        runaway_feed(coordinator, "video", 1000.0, steps=4)
        assert coordinator.tier_of("video") is Tier.THROTTLE
        assert coordinator.throttle_s("video") > 0.0
        assert coordinator.throttle_s("search") == 0.0

    def test_degrade_pins_safe_fallback(self):
        coordinator = self.make_coordinator()
        runaway_feed(coordinator, "video", 1000.0, steps=2)
        assert coordinator.tier_of("video") is Tier.DEGRADE
        decision = coordinator.current_decision("video")
        # The pinned fallback is minimum-energy operation: the app's
        # maximum speedup (lowest energy per work, Sec. 3.4.3).
        assert decision.speedup_setpoint == pytest.approx(3.0)
        assert decision.app_config.index == 3
        assert decision.explored is False

    def test_no_enforcement_by_default(self):
        runtimes = {
            "video": make_runtime("video", 1000.0, 1000, seed=1),
            "search": make_runtime("search", 100.0, 100, seed=2),
        }
        coordinator = MultiAppCoordinator(
            runtimes, rebalance_period=1000
        )
        runaway_feed(coordinator, "video", 1000.0)  # must not raise
        assert coordinator.tier_of("video") is Tier.NOMINAL
        assert coordinator.throttle_s("video") == 0.0
        assert coordinator.summary()["video"]["killed"] is False
