"""Unit tests for the SessionPool and its vectorized building blocks.

The equivalence suite (test_pool_equivalence) checks whole
trajectories; these tests pin down the pieces — the shared rules run
with numpy against the scalar objects, lifecycle bookkeeping, input
validation, and snapshot interop with the scalar service path.
"""

import numpy as np
import pytest

from repro.apps import build_application
from repro.core.bandit import SystemEnergyOptimizer
from repro.core.budget import BudgetAccountant, EnergyGoal
from repro.core.jouleguard import JouleGuardRuntime
from repro.core.kalman import KalmanBank, ScalarKalmanFilter
from repro.core.pole import placed_pole, pole_for_error
from repro.enforce.ladder import (
    DEFAULT_LADDER,
    EnforcementLadder,
    OverdraftSignal,
    Tier,
    overdraft_signal,
    rung_step,
    signal_terms,
    throttle_sleep,
    wanted_tier,
)
from repro.fleet import CohortSpec, FleetError, SessionPool
from repro.hw import get_machine
from repro.runtime.harness import prior_shapes
from repro.service.state import SnapshotError, apply_state, capture_state


@pytest.fixture(scope="module")
def spec():
    return CohortSpec.from_pair(
        get_machine("tablet"), build_application("x264")
    )


def _open_pool(spec, n=4, mode="fast", policy=DEFAULT_LADDER):
    pool = SessionPool(spec, policy=policy, mode=mode)
    pool.open(
        np.full(n, 40.0),
        np.arange(n, dtype=np.int64),
        factors=np.linspace(1.2, 2.0, n),
    )
    return pool


class TestArrayTwins:
    """The shared rules run with ``numpy`` agree with the scalar objects,
    which own the ``None``-to-flag mapping and the ``Tier`` wrapping."""

    def test_kalman_bank_matches_scalar_filter(self):
        rng = np.random.default_rng(3)
        n, steps = 5, 30
        bank = KalmanBank(n)
        scalars = [ScalarKalmanFilter() for _ in range(n)]
        for _ in range(steps):
            z = rng.uniform(0.5, 2.0, size=n)
            mask = rng.random(n) < 0.8
            bank.update(z, mask=mask)
            for i, flt in enumerate(scalars):
                if mask[i]:
                    flt.update(float(z[i]))
        for i, flt in enumerate(scalars):
            if flt.initialized:
                assert float(bank.value[i]) == flt.value
                assert float(bank.variance[i]) == flt.variance

    def test_pole_array_matches_scalar(self):
        deltas = np.asarray([0.0, 0.01, 0.1, 0.5, 1.0, 3.0])
        vector = placed_pole(np, deltas, 1.0)
        for delta, pole in zip(deltas, vector):
            assert float(pole) == pole_for_error(float(delta), 1.0)

    def test_desired_tier_matches_policy(self):
        rng = np.random.default_rng(7)
        k = 200
        overrun = rng.uniform(0.0, 2.0, k)
        burn = rng.uniform(0.0, 1.5, k)
        headroom = np.where(
            rng.random(k) < 0.1, np.inf, rng.uniform(0.0, 40.0, k)
        )
        vector = wanted_tier(np, DEFAULT_LADDER, overrun, burn, headroom)
        for i in range(k):
            signal = OverdraftSignal(
                projected_overrun=float(overrun[i]),
                burn_fraction=float(burn[i]),
                headroom_steps=float(headroom[i]),
            )
            assert int(vector[i]) == int(
                DEFAULT_LADDER.desired_tier(signal)
            )

    def test_ladder_observe_matches_scalar_walk(self):
        """Random desired-tier walks: the transition rule run with
        numpy tracks EnforcementLadder.observe until the scalar kills."""
        rng = np.random.default_rng(11)
        for trial in range(20):
            ladder = EnforcementLadder(policy=DEFAULT_LADDER)
            tier = np.zeros(1, dtype=np.int64)
            calm = np.zeros(1, dtype=np.int64)
            for step in range(1, 60):
                overrun = float(rng.uniform(0.0, 1.5))
                burn = float(rng.uniform(0.0, 1.2))
                headroom = float(rng.uniform(0.0, 30.0))
                signal = OverdraftSignal(
                    projected_overrun=overrun,
                    burn_fraction=burn,
                    headroom_steps=headroom,
                )
                desired = wanted_tier(
                    np,
                    DEFAULT_LADDER,
                    np.asarray([overrun]),
                    np.asarray([burn]),
                    np.asarray([headroom]),
                )
                tier, calm = rung_step(
                    DEFAULT_LADDER.hold_steps, tier, calm, desired
                )
                scalar_tier = ladder.observe(signal, step=step)
                assert int(tier[0]) == int(scalar_tier)
                throttle = throttle_sleep(
                    np, DEFAULT_LADDER, tier, np.asarray([overrun])
                )
                assert float(throttle[0]) == ladder.throttle_s()
                if scalar_tier is Tier.KILL:
                    break

    def test_overdraft_signal_matches_accountant(self):
        """Includes the estimates' absence: a missing or zero step
        energy means infinite headroom, a missing epw no overrun."""
        goal = EnergyGoal(total_work=10.0, budget_j=20.0)
        accountant = BudgetAccountant(goal=goal)
        accountant.record(work=4.0, energy_j=12.0)
        for recent_epw, recent_step_energy_j in (
            (3.0, 12.0),
            (0.2, 0.0),
            (None, 12.0),
            (3.0, None),
            (None, None),
        ):
            overrun, burn, headroom = signal_terms(
                np,
                np.asarray([accountant.effective_budget_j]),
                np.asarray([accountant.energy_used_j]),
                np.asarray([accountant.remaining_work]),
                np.asarray([accountant.remaining_energy_j]),
                np.asarray([recent_epw or 0.0]),
                np.asarray([recent_epw is not None]),
                np.asarray([recent_step_energy_j or 0.0]),
                np.asarray([recent_step_energy_j is not None]),
            )
            signal = overdraft_signal(
                accountant, recent_epw, recent_step_energy_j
            )
            assert float(overrun[0]) == signal.projected_overrun
            assert float(burn[0]) == signal.burn_fraction
            assert float(headroom[0]) == signal.headroom_steps
            if not recent_step_energy_j:
                assert np.isinf(headroom[0])

    def test_signal_infinite_headroom_without_step_energy(self):
        _, _, headroom = signal_terms(
            np,
            np.asarray([10.0]),
            np.asarray([1.0]),
            np.asarray([5.0]),
            np.asarray([9.0]),
            np.asarray([0.2]),
            np.asarray([True]),
            np.asarray([0.0]),
            np.asarray([True]),
        )
        assert np.isinf(headroom[0])


class TestLifecycle:
    def test_cold_decision_matches_seo_best_index(self, spec):
        pool = _open_pool(spec, n=2)
        machine = get_machine("tablet")
        rate_shape, power_shape = prior_shapes(machine)
        seo = SystemEnergyOptimizer(rate_shape, power_shape, seed=1)
        assert int(pool.d_sys[0]) == seo.best_index

    def test_open_budget_matches_manager_arithmetic(self, spec):
        pool = SessionPool(spec)
        work = np.asarray([40.0])
        pool.open(
            work, np.asarray([0], dtype=np.int64),
            factors=np.asarray([1.6]),
        )
        expected = 40.0 * spec.default_epw / 1.6
        assert float(pool.budget_j[0]) == expected

    def test_open_rejects_bad_inputs(self, spec):
        pool = SessionPool(spec)
        work = np.asarray([10.0])
        seeds = np.asarray([0], dtype=np.int64)
        with pytest.raises(FleetError):
            pool.open(work, seeds)  # neither factors nor budget
        with pytest.raises(FleetError):
            pool.open(
                work, seeds,
                factors=np.asarray([2.0]),
                budget_j=np.asarray([1.0]),
            )
        with pytest.raises(FleetError):
            pool.open(work, seeds, factors=np.asarray([0.5]))
        with pytest.raises(FleetError):
            pool.open(
                work, np.asarray([0, 1], dtype=np.int64),
                factors=np.asarray([1.5]),
            )

    def test_step_requires_live_sessions(self, spec):
        pool = SessionPool(spec)
        one = np.ones(0)
        with pytest.raises(FleetError):
            pool.step(one, one, one, one)

    def test_step_rejects_nonpositive_measurements(self, spec):
        pool = _open_pool(spec, n=2)
        good = np.ones(2)
        with pytest.raises(FleetError):
            pool.step(np.asarray([1.0, 0.0]), good, good, good)
        with pytest.raises(FleetError):
            pool.step(good, np.asarray([1.0, -1.0]), good, good)

    def test_close_and_compact(self, spec):
        pool = _open_pool(spec, n=5)
        pool.close_rows(np.asarray([1, 3]))
        assert pool.alive_count == 3
        kept = pool.compact()
        np.testing.assert_array_equal(kept, [0, 2, 4])
        assert pool.n == 3
        assert pool.alive_count == 3
        # Stepping after compaction still works on every surviving row.
        one = np.ones(3)
        pool.step(one, one, one, one)
        np.testing.assert_array_equal(pool.steps, [1, 1, 1])

    def test_unknown_mode_rejected(self, spec):
        with pytest.raises(FleetError):
            SessionPool(spec, mode="turbo")


class TestSnapshotInterop:
    def _runtime(self):
        machine = get_machine("tablet")
        app = build_application("x264")
        rate_shape, power_shape = prior_shapes(machine)
        seo = SystemEnergyOptimizer(rate_shape, power_shape, seed=3)
        return JouleGuardRuntime(
            seo=seo,
            table=app.table,
            goal=EnergyGoal(total_work=40.0, budget_j=60.0),
        )

    def test_pool_snapshot_warm_starts_scalar_runtime(self, spec):
        pool = _open_pool(spec, n=2)
        one = np.ones(2)
        for _ in range(5):
            pool.step(one, 2.0 * one, 4.0 * one, 8.0 * one)
        document = pool.capture_snapshot(0)
        runtime = self._runtime()
        apply_state(runtime, document, machine="tablet", app="x264")
        assert runtime.seo.updates == int(pool.updates[0])
        restored = capture_state(runtime, "tablet", "x264")
        assert restored["learned"]["seo"]["rate_est"] == (
            pool.rate_est[0].tolist()
        )
        assert runtime.controller.speedup == float(pool.ctrl_speedup[0])

    def test_scalar_snapshot_warm_starts_pool(self, spec):
        from repro.core.types import Measurement

        runtime = self._runtime()
        for _ in range(5):
            runtime.step(
                Measurement(work=1.0, energy_j=2.0, rate=4.0, power_w=8.0)
            )
        document = capture_state(runtime, "tablet", "x264")
        pool = _open_pool(spec, n=3)
        pool.load_snapshot(np.asarray([0, 2]), document)
        learned_rates = document["learned"]["seo"]["rate_est"]
        assert pool.rate_est[0].tolist() == learned_rates
        assert pool.rate_est[2].tolist() == learned_rates
        assert float(pool.epsilon[0]) == runtime.seo.vdbe.epsilon
        # Row 1 was not warm-started.
        assert float(pool.epsilon[1]) == 1.0

    def test_pool_snapshot_round_trips_through_pool(self, spec):
        pool = _open_pool(spec, n=2)
        one = np.ones(2)
        for _ in range(4):
            pool.step(one, 2.0 * one, 4.0 * one, 8.0 * one)
        document = pool.capture_snapshot(1)
        other = _open_pool(spec, n=1)
        other.load_snapshot(np.asarray([0]), document)
        np.testing.assert_array_equal(
            other.rate_est[0], pool.rate_est[1]
        )
        np.testing.assert_array_equal(
            other.visited[0], pool.visited[1]
        )
        assert float(other.pole_delta[0]) == float(pool.pole_delta[1])

    def test_identity_mismatch_rejected(self, spec):
        pool = _open_pool(spec, n=1)
        document = pool.capture_snapshot(0)
        document = dict(document)
        document["machine"] = "server"
        with pytest.raises(SnapshotError):
            pool.load_snapshot(np.asarray([0]), document)

    def test_parameter_mismatch_rejected(self, spec):
        pool = _open_pool(spec, n=1)
        document = pool.capture_snapshot(0)
        tampered = dict(document)
        tampered["learned"] = dict(document["learned"])
        tampered["learned"]["seo"] = dict(document["learned"]["seo"])
        tampered["learned"]["seo"]["alpha"] = 0.123
        with pytest.raises(SnapshotError):
            pool.load_snapshot(np.asarray([0]), tampered)
