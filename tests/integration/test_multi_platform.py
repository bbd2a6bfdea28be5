"""Multi-application coordination on the real platform models
(integration-level counterpart of tests/core/test_multi.py)."""

import hashlib

import numpy as np
import pytest

from repro.core.budget import EnergyGoal
from repro.core.jouleguard import build_runtime
from repro.core.multi import MultiAppCoordinator, split_budget
from repro.core.types import Measurement
from repro.hw import get_machine
from repro.hw.simulator import PlatformSimulator
from repro.runtime.harness import prior_shapes
from repro.runtime.oracle import default_energy_per_work

ITERATIONS = 400


def build_pair(machine, apps, shares, seed=0):
    rate_shape, power_shape = prior_shapes(machine)
    runtimes = {}
    simulators = {}
    for i, (name, app) in enumerate(apps.items()):
        runtimes[name] = build_runtime(
            rate_shape,
            power_shape,
            app.table,
            EnergyGoal(total_work=ITERATIONS, budget_j=shares[name]),
            seed=seed + i,
        )
        simulators[name] = PlatformSimulator(
            machine, app.resource_profile, seed=seed + 10 + i
        )
    return runtimes, simulators


def drive(coordinator, simulators, machine, apps, n=ITERATIONS):
    accuracies = {name: [] for name in apps}
    for _ in range(n):
        for name in apps:
            decision = coordinator.current_decision(name)
            result = simulators[name].run_iteration(
                machine.space[decision.system_index],
                work=1.0,
                app_speedup=decision.app_config.speedup,
                app_power_factor=decision.app_config.power_factor,
            )
            accuracies[name].append(decision.app_config.accuracy)
            coordinator.step(
                name,
                Measurement(
                    work=1.0,
                    energy_j=result.measured_power_w * result.time_s,
                    rate=result.measured_rate,
                    power_w=result.measured_power_w,
                ),
            )
    return accuracies


class TestTwoAppsOneTablet:
    @pytest.fixture(scope="class")
    def scenario(self, apps):
        machine = get_machine("tablet")
        pair = {"x264": apps["x264"], "bodytrack": apps["bodytrack"]}
        needs = {
            name: default_energy_per_work(machine, app) * ITERATIONS
            for name, app in pair.items()
        }
        global_budget = sum(needs.values()) / 2.0
        # Skew the initial split so bodytrack strains alone.
        shares = {
            "x264": global_budget * 0.65,
            "bodytrack": global_budget * 0.35,
        }
        runtimes, simulators = build_pair(machine, pair, shares, seed=1)
        coordinator = MultiAppCoordinator(runtimes, rebalance_period=25)
        accuracies = drive(coordinator, simulators, machine, pair)
        return machine, pair, global_budget, coordinator, accuracies

    def test_global_budget_respected(self, scenario):
        _, _, global_budget, coordinator, _ = scenario
        assert coordinator.total_energy_used_j <= global_budget * 1.03

    def test_budget_conserved(self, scenario):
        _, _, global_budget, coordinator, _ = scenario
        assert coordinator.total_effective_budget_j == pytest.approx(
            global_budget
        )

    def test_straining_app_received_budget(self, scenario):
        _, _, _, coordinator, _ = scenario
        report = coordinator.summary()
        assert (
            report["bodytrack"]["effective_budget_j"]
            > report["bodytrack"]["budget_j"]
        )

    def test_both_apps_keep_reasonable_accuracy(self, scenario):
        *_, accuracies = scenario
        for name, series in accuracies.items():
            assert np.mean(series[ITERATIONS // 2 :]) > 0.85, name

    def test_proportional_split_helper(self, apps):
        machine = get_machine("tablet")
        pair = {"x264": apps["x264"], "bodytrack": apps["bodytrack"]}
        needs = {
            name: default_energy_per_work(machine, app) * ITERATIONS
            for name, app in pair.items()
        }
        shares = split_budget(1000.0, needs)
        assert sum(shares.values()) == pytest.approx(1000.0)
        assert shares["x264"] / shares["bodytrack"] == pytest.approx(
            needs["x264"] / needs["bodytrack"]
        )


#: sha256 over every decision and every application's effective budget
#: after every heartbeat of the skewed two-app tablet run, floats in
#: ``repr`` (exact round-trip).  Pinned so that a change to the plan or
#: its application is checked bit-for-bit, not assumed.
PINNED_TABLET_DIGEST = (
    "49cf5981d593c983d989957832ad9d84f47af0acca81dfb9eab5e14016b7aded"
)


def test_coordinator_run_matches_pinned_digest(apps):
    machine = get_machine("tablet")
    pair = {"x264": apps["x264"], "bodytrack": apps["bodytrack"]}
    needs = {
        name: default_energy_per_work(machine, app) * ITERATIONS
        for name, app in pair.items()
    }
    global_budget = sum(needs.values()) / 2.0
    shares = {
        "x264": global_budget * 0.65,
        "bodytrack": global_budget * 0.35,
    }
    runtimes, simulators = build_pair(machine, pair, shares, seed=1)
    coordinator = MultiAppCoordinator(runtimes, rebalance_period=25)
    digest = hashlib.sha256()

    class Recorder:
        current_decision = coordinator.current_decision

        def step(self, name, measurement):
            decision = coordinator.step(name, measurement)
            budgets = [
                runtime.accountant.effective_budget_j
                for runtime in runtimes.values()
            ]
            digest.update(
                repr(
                    (
                        name,
                        decision.system_index,
                        decision.app_config.index,
                        decision.speedup_setpoint,
                        decision.pole,
                        decision.epsilon,
                        decision.explored,
                        decision.feasible,
                        budgets,
                    )
                ).encode()
            )
            return decision

    drive(Recorder(), simulators, machine, pair)
    assert digest.hexdigest() == PINNED_TABLET_DIGEST
