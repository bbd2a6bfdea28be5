"""Pinned decision digests: the controller step decides bit-for-bit.

Each Table 3 machine runs one application in a closed loop against the
platform simulator for 2000 heartbeats from a cold start, then a second
session warm-starts from the first one's learned state and runs 500
more.  Two input phases (light, then heavy) move the measured rate far
enough from the learner's estimate to raise the pole (Eqn. 11).  Every
decision's fields (system arm, application configuration, setpoint,
pole, ε, explored/feasible flags) are hashed with the floats in
``float.hex`` form, so any change to one bit of one decision —
including which arm the Eqn. 3 argmax picks on a tie — changes the
digest.

The digests were recorded from the reference implementation of the
step (a full vectorized argmax over every arm on each exploit step).
A performance change to the step must leave them untouched.
"""

import hashlib

import pytest

from repro.apps import build_application
from repro.core.bandit import SystemEnergyOptimizer
from repro.core.budget import EnergyGoal
from repro.core.jouleguard import JouleGuardRuntime
from repro.core.types import Measurement
from repro.hw import get_machine
from repro.hw.simulator import NoiseModel, PlatformSimulator
from repro.runtime.harness import prior_shapes
from repro.runtime.oracle import default_energy_per_work

COLD_STEPS = 2000
WARM_STEPS = 500

#: sha256 over every decision of the cold and warm sessions.
PINNED = {
    ("tablet", "x264"): (
        "97492d9d6b97c06d039d838507da28190077cee2f1b63ce3a0dd6e3be8583dd5"
    ),
    ("mobile", "swaptions"): (
        "2271f0f4f1152ab8eb9af5dd4789d801a0737eca3b38184307b3344f97cedaa8"
    ),
    ("server", "streamcluster"): (
        "e8cbe68eae6ce1a8064f711e93f44abf1f6e7db313494b4e8c11266ae39e2634"
    ),
}


def _fold(digest, decision) -> None:
    digest.update(
        "|".join(
            (
                str(decision.system_index),
                str(decision.app_config.index),
                float(decision.speedup_setpoint).hex(),
                float(decision.pole).hex(),
                float(decision.epsilon).hex(),
                str(decision.explored),
                str(decision.feasible),
            )
        ).encode()
        + b"\n"
    )


def _difficulty(step: int) -> float:
    """Two phase changes: light inputs (δ > 2, a nonzero pole), heavy."""
    if 800 <= step < 900:
        return 0.2
    if 1400 <= step < 1500:
        return 3.0
    return 1.0


def _run(runtime, simulator, machine, app, steps, digest) -> None:
    _fold(digest, runtime.current_decision)
    for step in range(steps):
        decision = runtime.current_decision
        result = simulator.run_iteration(
            config=machine.space[decision.system_index],
            work=app.work_per_iteration,
            app_speedup=decision.app_config.speedup,
            app_power_factor=getattr(
                decision.app_config, "power_factor", 1.0
            ),
            input_difficulty=_difficulty(step),
        )
        energy_j = result.measured_power_w * result.time_s
        _fold(
            digest,
            runtime.step(
                Measurement(
                    work=result.work,
                    energy_j=energy_j,
                    rate=result.measured_rate,
                    power_w=result.measured_power_w,
                )
            ),
        )


def decision_digest(machine_name: str, app_name: str) -> str:
    machine = get_machine(machine_name)
    app = build_application(app_name)
    epw = default_energy_per_work(machine, app)
    rate_shape, power_shape = prior_shapes(machine)
    digest = hashlib.sha256()

    def session(seed: int, steps: int):
        goal = EnergyGoal.from_factor(
            1.5,
            total_work=app.work_per_iteration * steps * 1.25,
            default_energy_per_work=epw,
        )
        runtime = JouleGuardRuntime(
            seo=SystemEnergyOptimizer(rate_shape, power_shape, seed=seed),
            table=app.table,
            goal=goal,
        )
        simulator = PlatformSimulator(
            machine, app.resource_profile, noise=NoiseModel(), seed=seed
        )
        return runtime, simulator

    cold, simulator = session(seed=3, steps=COLD_STEPS)
    _run(cold, simulator, machine, app, COLD_STEPS, digest)
    warm, simulator = session(seed=4, steps=WARM_STEPS)
    warm.restore_learned(cold.snapshot_learned(), seed=5)
    _run(warm, simulator, machine, app, WARM_STEPS, digest)
    return digest.hexdigest()


@pytest.mark.parametrize("pair", sorted(PINNED))
def test_decisions_match_the_pinned_digest(pair):
    assert decision_digest(*pair) == PINNED[pair]
