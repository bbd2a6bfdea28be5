"""SessionPool: a cohort of JouleGuard sessions as numpy arrays.

One :class:`SessionPool` steps every session of a cohort in a handful
of vectorized operations instead of one
:class:`~repro.core.jouleguard.JouleGuardRuntime` +
:class:`~repro.enforce.ladder.EnforcementLadder` object pair per
session.  The state is struct-of-arrays: ``(n,)`` scalars (epsilon,
pole error, controller integral, budget ledgers, enforcement tier,
Kalman mean/variance of the per-step energy) and ``(n, C)`` Q-tables
(per-configuration rate/power EWMAs and the visited mask).

Equivalence is the design contract, not an aspiration: every update
uses the same expressions, in the same operand order, as the scalar
code in ``repro.core`` / ``repro.enforce`` / ``repro.service``, so a
row fed the same measurements makes bit-identical decisions.  Where a
rule can be written once — the Eqn. 11 pole, the Eqn. 2 value
difference, the budget remainder and target, the Kalman fold and the
enforcement ladder — the pool calls the scalar path's own function,
passing ``numpy`` as its array namespace (:mod:`repro.core.floats`).
Two RNG modes trade fidelity for speed:

* ``mode="exact"`` keeps one ``numpy`` Generator per session, seeded
  ``seed + 1`` like the session manager, draws in the scalar call
  order (``random()``, then ``integers`` only when exploring) and
  computes the Eqn. 2 exponential per row via :func:`math.exp` —
  bit-exact against ``SessionManager.step``; used by the equivalence
  tests and CI smoke.
* ``mode="fast"`` uses one pooled generator and ``np.exp``, and
  computes the arm-selection priors in a factored operand order —
  deterministic given the pool seed and open/compact schedule, but the
  exploration stream differs from per-session scalar runs and the
  exponential / prior arithmetic may differ in the last ulp.  This is
  the fleet-simulation mode: stepping is two pooled draws plus array
  math.

The enforcement ladder runs the rules of the scalar
:class:`~repro.enforce.ladder.EnforcementLadder`
(:func:`~repro.enforce.ladder.signal_terms`,
:func:`~repro.enforce.ladder.wanted_tier`,
:func:`~repro.enforce.ladder.rung_step`,
:func:`~repro.enforce.ladder.throttle_sleep`); DEGRADE/THROTTLE re-pin
the safe fallback exactly like
:meth:`~repro.core.jouleguard.JouleGuardRuntime.pin_safe_fallback`,
and KILL drops the row from the alive mask (terminal, as in the
scalar ladder).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from ..core.budget import energy_target, remaining
from ..core.contracts import check
from ..core.kalman import KalmanBank
from ..core.pole import placed_pole
from ..core.vdbe import value_difference
from ..enforce.ladder import (
    DEFAULT_LADDER,
    LadderPolicy,
    Tier,
    rung_step,
    signal_terms,
    throttle_sleep,
    wanted_tier,
)
from ..service.state import STATE_VERSION, SnapshotError, validate_state
from .cohort import CohortSpec

__all__ = ["FleetError", "SessionPool"]


class FleetError(RuntimeError):
    """An invalid operation on a session pool."""


def _require_finite_positive(name: str, values: np.ndarray) -> None:
    if not bool(np.all(np.isfinite(values) & (values > 0.0))):
        raise FleetError(f"{name} must be finite and positive")


class SessionPool:
    """Struct-of-arrays state for one cohort of sessions.

    Parameters
    ----------
    spec:
        The shared cohort tables (:class:`~repro.fleet.cohort.CohortSpec`).
    policy:
        Enforcement ladder thresholds; ``None`` disables enforcement
        (every session then runs Algorithm 1 unguarded).
    smoothing:
        EWMA weight of the manager's energy-per-work / step-energy
        smoothers (``SessionManager`` default 0.25).
    mode:
        ``"exact"`` or ``"fast"`` (see the module docstring).
    seed:
        Pool-level seed for the pooled ``"fast"`` exploration stream.
    """

    def __init__(
        self,
        spec: CohortSpec,
        policy: Optional[LadderPolicy] = DEFAULT_LADDER,
        smoothing: float = 0.25,
        mode: str = "fast",
        seed: int = 0,
        kalman_process_variance: float = 1e-2,
        kalman_measurement_variance: float = 1e-1,
    ) -> None:
        check(0.0 < smoothing <= 1.0, "smoothing must be in (0, 1]")
        if mode not in ("exact", "fast"):
            raise FleetError(f"unknown RNG mode {mode!r}")
        self.spec = spec
        self.policy = policy
        self.smoothing = smoothing
        self.mode = mode
        self._pool_rng = np.random.default_rng(seed)
        self._gens: List[np.random.Generator] = []
        c = spec.n_configs
        # Fast-mode selection scratch: the per-config efficiency shape
        # (scale-free) and a reusable (n, C) efficiency buffer.
        self._shape_eff = spec.rate_shape / spec.power_shape
        self._eff_scratch: Optional[np.ndarray] = None

        def f64(n: int = 0) -> np.ndarray:
            return np.zeros(n, dtype=np.float64)

        def i64(n: int = 0) -> np.ndarray:
            return np.zeros(n, dtype=np.int64)

        def boolean(n: int = 0) -> np.ndarray:
            return np.zeros(n, dtype=bool)

        # Identity and ledgers.
        self.seeds = i64()
        self.steps = i64()
        self.total_work = f64()
        self.budget_j = f64()
        self.adjustment_j = f64()
        self.work_done = f64()
        self.energy_used_j = f64()
        # Learner (SEO) state.
        self.epsilon = f64()
        self.updates = i64()
        self.last_rate_delta = f64()
        self.rate_scale = f64()
        self.power_scale = f64()
        self.has_scale = boolean()
        self.rate_est = np.zeros((0, c), dtype=np.float64)
        self.power_est = np.zeros((0, c), dtype=np.float64)
        self.visited = np.zeros((0, c), dtype=bool)
        # Pole + controller.
        self.pole_delta = f64()
        self.ctrl_speedup = f64()
        self.goal_infeasible = boolean()
        # Manager-side smoothers and Kalman telemetry.
        self.recent_epw = f64()
        self.has_epw = boolean()
        self.recent_step_energy_j = f64()
        self.has_step_energy = boolean()
        self.energy_kalman = KalmanBank(
            0,
            process_variance=kalman_process_variance,
            measurement_variance=kalman_measurement_variance,
        )
        # Enforcement ladder.
        self.tier = i64()
        self.calm_streak = i64()
        self.tier_peak = i64()
        self.transition_count = i64()
        self.degrade_attempted = boolean()
        self.degraded = boolean()
        self.throttle_s = f64()
        # Lifecycle.
        self.alive = boolean()
        self.killed = boolean()
        self.kill_step = i64()
        self.warm = boolean()
        # Decision (what each session should currently be running).
        self.d_sys = i64()
        self.d_fpos = i64()
        self.d_setpoint = f64()
        self.d_pole = f64()
        self.d_epsilon = f64()
        self.d_explored = boolean()
        self.d_feasible = boolean()
        # Fleet telemetry accumulators.
        self.accuracy_sum = f64()

    # -- sizes ---------------------------------------------------------
    @property
    def n(self) -> int:
        """Rows currently held (alive + not-yet-compacted dead)."""
        return int(self.steps.shape[0])

    @property
    def alive_count(self) -> int:
        return int(self.alive.sum())

    # -- decision views ------------------------------------------------
    @property
    def app_index(self) -> np.ndarray:
        """Per-session application configuration index (Eqn. 6)."""
        result: np.ndarray = self.spec.frontier_indices[self.d_fpos]
        return result

    @property
    def accuracy(self) -> np.ndarray:
        """Per-session accuracy of the current application config."""
        result: np.ndarray = self.spec.frontier_accuracies[self.d_fpos]
        return result

    @property
    def applied_speedup(self) -> np.ndarray:
        """Speedup of the current application config (not the setpoint)."""
        result: np.ndarray = self.spec.frontier_speedups[self.d_fpos]
        return result

    @property
    def app_power_factor(self) -> np.ndarray:
        result: np.ndarray = self.spec.frontier_power_factors[self.d_fpos]
        return result

    @property
    def complete(self) -> np.ndarray:
        """Sessions whose work is done (scalar ``accountant.complete``)."""
        result: np.ndarray = (
            remaining(np, self.total_work, self.work_done) <= 0.0
        )
        return result

    def _cold_best_index(self) -> int:
        """``seo.best_index`` before any update (scale 1, nothing visited).

        Same expression as ``SystemEnergyOptimizer._all_*_estimates``
        with ``scale = 1.0``, so the cold decision matches bit-for-bit.
        """
        rates = self.spec.rate_shape * 1.0 * self.spec.optimism
        powers = self.spec.power_shape * 1.0 / self.spec.optimism
        return int((rates / powers).argmax())

    # -- lifecycle -----------------------------------------------------
    def open(
        self,
        total_work: np.ndarray,
        seeds: np.ndarray,
        factors: Optional[np.ndarray] = None,
        budget_j: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Admit a batch of sessions; return their row indices.

        Budgets come either from explicit ``budget_j`` or from
        energy-reduction ``factors`` via the manager's admission
        arithmetic ``total_work * default_epw / factor`` (identical
        expression, so grants match a ``SessionManager`` bit-for-bit).
        """
        work = np.asarray(total_work, dtype=np.float64)
        seed_arr = np.asarray(seeds, dtype=np.int64)
        k = int(work.shape[0])
        if seed_arr.shape != (k,):
            raise FleetError("seeds must match total_work in length")
        _require_finite_positive("total_work", work)
        if (budget_j is None) == (factors is None):
            raise FleetError("pass exactly one of factors / budget_j")
        if budget_j is not None:
            budgets = np.asarray(budget_j, dtype=np.float64)
        else:
            factor_arr = np.asarray(factors, dtype=np.float64)
            if bool((factor_arr < 1.0).any()):
                raise FleetError("factors must be >= 1")
            budgets = work * self.spec.default_epw / factor_arr
        if budgets.shape != (k,):
            raise FleetError("budgets must match total_work in length")
        _require_finite_positive("budget_j", budgets)

        start = self.n
        self._grow(k)
        rows = np.arange(start, start + k, dtype=np.int64)
        self.seeds[rows] = seed_arr
        self.total_work[rows] = work
        self.budget_j[rows] = budgets
        self.alive[rows] = True
        self.epsilon[rows] = 1.0
        self.kill_step[rows] = -1
        self.ctrl_speedup[rows] = self.spec.min_speedup
        self.d_sys[rows] = self._cold_best_index()
        self.d_fpos[rows] = 0
        self.d_setpoint[rows] = self.spec.min_speedup
        self.d_epsilon[rows] = 1.0
        self.d_feasible[rows] = True
        if self.mode == "exact":
            for seed in seed_arr:
                self._gens.append(
                    np.random.default_rng(int(seed) + 1)
                )
        return rows

    def _grow(self, k: int) -> None:
        c = self.spec.n_configs

        def cat(base: np.ndarray) -> np.ndarray:
            if base.ndim == 2:
                extra: np.ndarray = np.zeros((k, c), dtype=base.dtype)
            else:
                extra = np.zeros(k, dtype=base.dtype)
            return np.concatenate([base, extra])

        for name in _ROW_ARRAYS:
            setattr(self, name, cat(getattr(self, name)))
        self.energy_kalman.extend(k)

    def close_rows(self, rows: np.ndarray) -> None:
        """Retire sessions (client close / churn) — not a kill."""
        self.alive[rows] = False

    def compact(self) -> np.ndarray:
        """Drop dead rows; return the kept rows' previous indices."""
        keep = self.alive.copy()
        kept = np.flatnonzero(keep)
        for name in _ROW_ARRAYS:
            setattr(self, name, getattr(self, name)[keep])
        self.energy_kalman.keep(keep)
        if self.mode == "exact":
            self._gens = [
                gen for gen, k in zip(self._gens, keep) if bool(k)
            ]
        return kept

    # -- Algorithm 1 + ladder, vectorized ------------------------------
    def step(
        self,
        work: np.ndarray,
        energy_j: np.ndarray,
        rate: np.ndarray,
        power_w: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Fold one measurement per alive session; advance every loop.

        Mirrors ``SessionManager.step`` (healthy-sensor path) +
        ``JouleGuardRuntime.step`` + the enforcement ladder, phase by
        phase; dead rows' inputs are ignored.  An optional ``mask``
        restricts the step to a subset of rows (the vectorized service
        backend steps only sessions with a pending request); unmasked
        rows are untouched, exactly as dead rows are.  In ``"fast"``
        mode the pooled exploration stream still consumes one draw per
        row regardless of the mask, so it depends only on the
        open/compact schedule.
        """
        m = self.alive
        if mask is not None:
            m = m & np.asarray(mask, dtype=bool)
        if not bool(m.any()):
            raise FleetError("no live sessions to step")
        spec = self.spec
        n = self.n
        rows = np.flatnonzero(m)
        work = np.where(m, np.asarray(work, dtype=np.float64), 1.0)
        energy_j = np.where(
            m, np.asarray(energy_j, dtype=np.float64), 1.0
        )
        rate = np.where(m, np.asarray(rate, dtype=np.float64), 1.0)
        power_w = np.where(
            m, np.asarray(power_w, dtype=np.float64), 1.0
        )
        _require_finite_positive("work", work)
        _require_finite_positive("rate", rate)
        _require_finite_positive("power_w", power_w)
        if not bool(np.all(np.isfinite(energy_j) & (energy_j >= 0.0))):
            raise FleetError("energy_j must be finite and >= 0")

        self.steps = np.where(m, self.steps + 1, self.steps)
        # Healthy feedback below DEGRADE clears the degraded flag, as
        # the session manager does at the top of its step.
        self.degraded = self.degraded & ~(
            m & (self.tier < int(Tier.DEGRADE))
        )

        # Manager smoothing: energy-per-work EWMA (before the runtime).
        epw = energy_j / work
        self.recent_epw = np.where(
            m,
            np.where(
                self.has_epw,
                self.recent_epw + self.smoothing * (epw - self.recent_epw),
                epw,
            ),
            self.recent_epw,
        )
        self.has_epw = self.has_epw | m

        # 1. Update models at the previously selected arm (Eqn. 1).
        j = self.d_sys
        every_row = np.arange(n)
        applied = spec.frontier_speedups[self.d_fpos]
        system_rate = rate / applied
        vis_j = self.visited[every_row, j]
        est_r_j = self.rate_est[every_row, j]
        est_p_j = self.power_est[every_row, j]
        scale_r = np.where(self.has_scale, self.rate_scale, 1.0)
        scale_p = np.where(self.has_scale, self.power_scale, 1.0)
        prior_rate = np.where(
            vis_j, est_r_j, spec.rate_shape[j] * scale_r * spec.optimism
        )
        prior_power = np.where(
            vis_j, est_p_j, spec.power_shape[j] * scale_p / spec.optimism
        )
        estimated_eff = prior_rate / prior_power
        last_delta = np.abs(system_rate / prior_rate - 1.0)
        self.last_rate_delta = np.where(
            m, last_delta, self.last_rate_delta
        )

        # Global scale calibration (blend 0.25 after the first sample).
        rate_ratio = system_rate / spec.rate_shape[j]
        power_ratio = power_w / spec.power_shape[j]
        blend = 0.25
        self.rate_scale = np.where(
            m,
            np.where(
                self.has_scale,
                self.rate_scale + blend * (rate_ratio - self.rate_scale),
                rate_ratio,
            ),
            self.rate_scale,
        )
        self.power_scale = np.where(
            m,
            np.where(
                self.has_scale,
                self.power_scale
                + blend * (power_ratio - self.power_scale),
                power_ratio,
            ),
            self.power_scale,
        )
        self.has_scale = self.has_scale | m

        # Per-arm EWMA seeded from the calibrated prior.
        seeded_r = np.where(vis_j, est_r_j, prior_rate)
        seeded_p = np.where(vis_j, est_p_j, prior_power)
        q_rate = seeded_r + spec.alpha * (system_rate - seeded_r)
        q_power = seeded_p + spec.alpha * (power_w - seeded_p)
        self.rate_est[rows, j[rows]] = q_rate[rows]
        self.power_est[rows, j[rows]] = q_power[rows]
        self.visited[rows, j[rows]] = True

        # Eqn. 2: VDBE epsilon.
        measured_eff = system_rate / power_w
        difference = value_difference(
            np, measured_eff, estimated_eff, spec.vdbe_relative
        )
        exponent = -np.abs(spec.vdbe_alpha * difference) / spec.vdbe_sigma
        if self.mode == "exact":
            x = np.empty(n, dtype=np.float64)
            x[rows] = [math.exp(exponent[i]) for i in rows]
            x[~m] = 1.0
        else:
            x = np.exp(exponent)
        rho = (1.0 - x) / (1.0 + x)
        w = spec.vdbe_weight
        self.epsilon = np.where(
            m, w * rho + (1.0 - w) * self.epsilon, self.epsilon
        )
        self.updates = self.updates + m.astype(np.int64)

        # Eqns. 10-11: adaptive pole from the learner's error.
        self.pole_delta = np.where(
            m,
            spec.pole_smoothing * self.pole_delta
            + (1.0 - spec.pole_smoothing) * last_delta,
            self.pole_delta,
        )
        pole = placed_pole(np, self.pole_delta, spec.pole_margin)

        # Budget bookkeeping (accountant.record + Kalman telemetry).
        self.work_done = np.where(m, self.work_done + work, self.work_done)
        self.energy_used_j = np.where(
            m, self.energy_used_j + energy_j, self.energy_used_j
        )
        self.energy_kalman.update(energy_j, mask=m)

        # 2. Select the next arm (Eqn. 3 with epsilon-greedy VDBE).
        rand, rand_index = self._draw(m)
        explored = rand < self.epsilon
        scale_r = np.where(self.has_scale, self.rate_scale, 1.0)
        scale_p = np.where(self.has_scale, self.power_scale, 1.0)
        if self.mode == "exact":
            # Bit-exact operand order: build the full prior matrices
            # exactly as ``SystemEnergyOptimizer`` does per session.
            rate_all = (
                spec.rate_shape[None, :]
                * scale_r[:, None]
                * spec.optimism
            )
            power_all = (
                spec.power_shape[None, :]
                * scale_p[:, None]
                / spec.optimism
            )
            rate_all = np.where(self.visited, self.rate_est, rate_all)
            power_all = np.where(self.visited, self.power_est, power_all)
            best = (rate_all / power_all).argmax(axis=1).astype(np.int64)
            selected = np.where(explored, rand_index, best)
            est_rate = rate_all[every_row, selected]
            est_power = power_all[every_row, selected]
        else:
            # Fast path: the unvisited prior efficiency factors into a
            # per-config shape times a per-row scale multiplier, so one
            # (n, C) buffer is filled with two masked writes instead of
            # materializing both prior matrices.  Algebraically equal
            # to the exact path; may differ in the last ulp.
            eff = self._eff_scratch
            if eff is None or eff.shape != self.visited.shape:
                eff = np.empty_like(self.rate_est)
                self._eff_scratch = eff
            np.divide(
                self.rate_est, self.power_est, out=eff, where=self.visited
            )
            prior_mult = (scale_r / scale_p) * (
                spec.optimism * spec.optimism
            )
            np.multiply(
                self._shape_eff[None, :],
                prior_mult[:, None],
                out=eff,
                where=~self.visited,
            )
            best = eff.argmax(axis=1).astype(np.int64)
            selected = np.where(explored, rand_index, best)
            sel_vis = self.visited[every_row, selected]
            est_rate = np.where(
                sel_vis,
                self.rate_est[every_row, selected],
                spec.rate_shape[selected] * scale_r * spec.optimism,
            )
            est_power = np.where(
                sel_vis,
                self.power_est[every_row, selected],
                spec.power_shape[selected] * scale_p / spec.optimism,
            )

        # 4. Remaining-budget target -> required rate -> Eqn. 5.
        target, complete, exhausted = energy_target(
            np,
            remaining(np, self.total_work, self.work_done),
            remaining(
                np, self.budget_j + self.adjustment_j, self.energy_used_j
            ),
        )
        needed = est_power / np.where(target > 0.0, target, 1.0)
        reachable = est_rate * spec.max_speedup * spec.feasibility_slack
        saturate = (~complete) & (~exhausted) & (needed > reachable)
        integrate = (~complete) & (~exhausted) & ~(needed > reachable)
        error = needed - rate
        unclamped = self.ctrl_speedup + (1.0 - pole) * error / est_rate
        stepped = np.minimum(
            np.maximum(unclamped, spec.min_speedup), spec.max_speedup
        )
        new_ctrl = np.where(
            saturate,
            spec.max_speedup,
            np.where(integrate, stepped, self.ctrl_speedup),
        )
        self.ctrl_speedup = np.where(m, new_ctrl, self.ctrl_speedup)
        setpoint = np.where(
            complete,
            self.ctrl_speedup,
            np.where(
                exhausted | saturate, spec.max_speedup, stepped
            ),
        )
        feasible = np.where(
            complete, self.d_feasible, ~(exhausted | saturate)
        )
        self.goal_infeasible = self.goal_infeasible | (
            m & (~complete) & (exhausted | saturate)
        )

        # 5. Eqn. 6: most accurate frontier config at the setpoint.
        fpos = np.minimum(
            np.searchsorted(
                spec.frontier_speedups, setpoint, side="left"
            ),
            spec.n_frontier - 1,
        ).astype(np.int64)
        fpos = np.where(complete, self.d_fpos, fpos)

        self.d_sys = np.where(m, selected, self.d_sys)
        self.d_fpos = np.where(m, fpos, self.d_fpos)
        self.d_setpoint = np.where(m, setpoint, self.d_setpoint)
        self.d_pole = np.where(m, pole, self.d_pole)
        self.d_epsilon = np.where(m, self.epsilon, self.d_epsilon)
        self.d_explored = np.where(m, explored, self.d_explored)
        self.d_feasible = np.where(m, feasible, self.d_feasible)

        if self.policy is not None:
            self._enforce(m, rows, energy_j, best)

        self.accuracy_sum = np.where(
            m,
            self.accuracy_sum + spec.frontier_accuracies[self.d_fpos],
            self.accuracy_sum,
        )

    def _draw(
        self, m: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Exploration draws: (uniform, candidate index) per row.

        ``exact`` replays each session's private stream in the scalar
        call order; ``fast`` consumes one pooled vector of each kind
        for the whole pool (dead rows included, so the stream only
        depends on the open/compact schedule).
        """
        n = self.n
        c = self.spec.n_configs
        if self.mode == "fast":
            rand = self._pool_rng.random(n)
            rand_index = self._pool_rng.integers(
                0, c, size=n, dtype=np.int64
            )
            return rand, rand_index
        rand = np.ones(n, dtype=np.float64)
        rand_index = np.zeros(n, dtype=np.int64)
        for i in np.flatnonzero(m):
            gen = self._gens[i]
            value = float(gen.random())
            rand[i] = value
            if value < self.epsilon[i]:
                rand_index[i] = int(gen.integers(c))
        return rand, rand_index

    def _enforce(
        self,
        m: np.ndarray,
        rows: np.ndarray,
        energy_j: np.ndarray,
        best: np.ndarray,
    ) -> None:
        """One ladder observation per alive row; apply the tier."""
        assert self.policy is not None
        spec = self.spec
        self.recent_step_energy_j = np.where(
            m,
            np.where(
                self.has_step_energy,
                self.recent_step_energy_j
                + self.smoothing
                * (energy_j - self.recent_step_energy_j),
                energy_j,
            ),
            self.recent_step_energy_j,
        )
        self.has_step_energy = self.has_step_energy | m

        budget_j = self.budget_j + self.adjustment_j
        overrun, burn, headroom = signal_terms(
            np,
            budget_j,
            self.energy_used_j,
            remaining(np, self.total_work, self.work_done),
            remaining(np, budget_j, self.energy_used_j),
            self.recent_epw,
            self.has_epw,
            self.recent_step_energy_j,
            self.has_step_energy,
        )
        desired = wanted_tier(np, self.policy, overrun, burn, headroom)
        new_tier, new_calm = rung_step(
            self.policy.hold_steps, self.tier, self.calm_streak, desired
        )
        changed = m & (new_tier != self.tier)
        self.transition_count = self.transition_count + changed.astype(
            np.int64
        )
        self.tier = np.where(m, new_tier, self.tier)
        self.calm_streak = np.where(m, new_calm, self.calm_streak)
        self.tier_peak = np.maximum(self.tier_peak, self.tier)
        self.degrade_attempted = self.degrade_attempted | (
            m & (self.tier >= int(Tier.DEGRADE))
        )

        # DEGRADE/THROTTLE: re-pin the safe fallback every enforced
        # step (pin_safe_fallback), exactly as the manager does.
        pinned = (
            m
            & (self.tier >= int(Tier.DEGRADE))
            & (self.tier < int(Tier.KILL))
        )
        if bool(pinned.any()):
            self.degraded = self.degraded | pinned
            self.ctrl_speedup = np.where(
                pinned, spec.max_speedup, self.ctrl_speedup
            )
            self.d_sys = np.where(pinned, best, self.d_sys)
            self.d_fpos = np.where(
                pinned, spec.n_frontier - 1, self.d_fpos
            )
            self.d_setpoint = np.where(
                pinned, spec.max_speedup, self.d_setpoint
            )
            self.d_explored = np.where(pinned, False, self.d_explored)

        self.throttle_s = np.where(
            m,
            throttle_sleep(np, self.policy, self.tier, overrun),
            self.throttle_s,
        )

        killing = m & (self.tier == int(Tier.KILL))
        if bool(killing.any()):
            self.killed = self.killed | killing
            self.kill_step = np.where(killing, self.steps, self.kill_step)
            self.alive = self.alive & ~killing

    # -- snapshots ------------------------------------------------------
    def capture_snapshot(self, row: int) -> Dict[str, Any]:
        """One session's learned state as a warm-start document.

        Interoperates with :mod:`repro.service.state`: the result
        passes ``validate_state`` and can warm-start a scalar
        :class:`~repro.core.jouleguard.JouleGuardRuntime` via
        ``apply_state`` (and vice versa via :meth:`load_snapshot`).
        """
        spec = self.spec
        seo: Dict[str, Any] = {
            "alpha": spec.alpha,
            "optimism": spec.optimism,
            "rate_shape": spec.rate_shape.tolist(),
            "power_shape": spec.power_shape.tolist(),
            "rate_est": self.rate_est[row].tolist(),
            "power_est": self.power_est[row].tolist(),
            "visited": [bool(flag) for flag in self.visited[row]],
            "rate_scale": (
                float(self.rate_scale[row])
                if bool(self.has_scale[row])
                else None
            ),
            "power_scale": (
                float(self.power_scale[row])
                if bool(self.has_scale[row])
                else None
            ),
            "vdbe": {
                "n_configs": spec.n_configs,
                "sigma": spec.vdbe_sigma,
                "alpha": spec.vdbe_alpha,
                "relative": spec.vdbe_relative,
                "min_weight": spec.vdbe_min_weight,
                "epsilon": float(self.epsilon[row]),
            },
            "updates": int(self.updates[row]),
            "last_rate_delta": float(self.last_rate_delta[row]),
            "rng_state": None,
        }
        return {
            "version": STATE_VERSION,
            "machine": spec.machine_name,
            "app": spec.app_name,
            "n_configs": spec.n_configs,
            "updates": int(self.updates[row]),
            "learned": {
                "seo": seo,
                "pole": {
                    "margin": spec.pole_margin,
                    "smoothing": spec.pole_smoothing,
                    "delta": float(self.pole_delta[row]),
                },
                "controller": {
                    "min_speedup": spec.min_speedup,
                    "max_speedup": spec.max_speedup,
                    "speedup": float(self.ctrl_speedup[row]),
                },
            },
        }

    def load_snapshot(
        self, rows: np.ndarray, state: Mapping[str, Any]
    ) -> None:
        """Warm-start rows from a learned-state document.

        The cohort analogue of ``apply_state`` + ``restore_learned``:
        learner tables, scales, epsilon, pole error, and the
        controller integral are broadcast to every row, and the
        pending decision is refreshed to the learned argmax.  The
        snapshot's learner parameters must match the cohort spec —
        the pool stores those per cohort, not per session.
        """
        spec = self.spec
        document = validate_state(state)
        if document["machine"] != spec.machine_name:
            raise SnapshotError(
                f"snapshot is for machine {document['machine']!r}, "
                f"not {spec.machine_name!r}"
            )
        if document["app"] != spec.app_name:
            raise SnapshotError(
                f"snapshot is for app {document['app']!r}, "
                f"not {spec.app_name!r}"
            )
        if int(document["n_configs"]) != spec.n_configs:
            raise SnapshotError(
                "snapshot covers a different configuration space "
                f"({document['n_configs']} vs {spec.n_configs} configs)"
            )
        learned = document["learned"]
        seo = learned["seo"]
        vdbe = seo["vdbe"]
        pole = learned["pole"]
        mismatches = [
            ("alpha", float(seo["alpha"]), spec.alpha),
            ("optimism", float(seo["optimism"]), spec.optimism),
            ("vdbe.sigma", float(vdbe["sigma"]), spec.vdbe_sigma),
            ("vdbe.alpha", float(vdbe["alpha"]), spec.vdbe_alpha),
            (
                "vdbe.min_weight",
                float(vdbe["min_weight"]),
                spec.vdbe_min_weight,
            ),
            ("pole.margin", float(pole["margin"]), spec.pole_margin),
            (
                "pole.smoothing",
                float(pole["smoothing"]),
                spec.pole_smoothing,
            ),
        ]
        for label, got, expected in mismatches:
            if got != expected:
                raise SnapshotError(
                    f"snapshot {label} {got!r} does not match the "
                    f"cohort spec value {expected!r}"
                )
        if bool(vdbe["relative"]) != spec.vdbe_relative:
            raise SnapshotError(
                "snapshot vdbe.relative does not match the cohort spec"
            )
        rate_est = np.asarray(seo["rate_est"], dtype=np.float64)
        power_est = np.asarray(seo["power_est"], dtype=np.float64)
        visited = np.asarray(seo["visited"], dtype=bool)
        if rate_est.shape != (spec.n_configs,):
            raise SnapshotError(
                "snapshot tables do not match the configuration space"
            )
        self.rate_est[rows] = rate_est
        self.power_est[rows] = power_est
        self.visited[rows] = visited
        has_scale = seo["rate_scale"] is not None
        self.has_scale[rows] = has_scale
        self.rate_scale[rows] = (
            float(seo["rate_scale"]) if has_scale else 0.0
        )
        self.power_scale[rows] = (
            float(seo["power_scale"]) if has_scale else 0.0
        )
        self.epsilon[rows] = float(vdbe["epsilon"])
        self.updates[rows] = int(seo["updates"])
        self.last_rate_delta[rows] = float(seo["last_rate_delta"])
        self.pole_delta[rows] = float(pole["delta"])
        controller = learned["controller"]
        speedup = float(
            min(
                max(float(controller["speedup"]), spec.min_speedup),
                spec.max_speedup,
            )
        )
        self.ctrl_speedup[rows] = speedup
        self.warm[rows] = True
        # Refresh the pending decision, as restore_learned does.
        scale_r = self.rate_scale[rows] if has_scale else 1.0
        scale_p = self.power_scale[rows] if has_scale else 1.0
        rate_all = (
            spec.rate_shape[None, :]
            * np.atleast_1d(scale_r)[:, None]
            * spec.optimism
        )
        power_all = (
            spec.power_shape[None, :]
            * np.atleast_1d(scale_p)[:, None]
            / spec.optimism
        )
        rate_all = np.where(self.visited[rows], self.rate_est[rows], rate_all)
        power_all = np.where(
            self.visited[rows], self.power_est[rows], power_all
        )
        best = (rate_all / power_all).argmax(axis=1).astype(np.int64)
        self.d_sys[rows] = best
        fpos = min(
            int(
                np.searchsorted(
                    spec.frontier_speedups, speedup, side="left"
                )
            ),
            spec.n_frontier - 1,
        )
        self.d_fpos[rows] = fpos
        self.d_setpoint[rows] = speedup
        self.d_pole[rows] = placed_pole(
            np, self.pole_delta[rows], spec.pole_margin
        )
        self.d_epsilon[rows] = self.epsilon[rows]
        self.d_explored[rows] = False
        self.d_feasible[rows] = True


#: Per-row state arrays resized together on open/compact.
_ROW_ARRAYS = (
    "seeds",
    "steps",
    "total_work",
    "budget_j",
    "adjustment_j",
    "work_done",
    "energy_used_j",
    "epsilon",
    "updates",
    "last_rate_delta",
    "rate_scale",
    "power_scale",
    "has_scale",
    "rate_est",
    "power_est",
    "visited",
    "pole_delta",
    "ctrl_speedup",
    "goal_infeasible",
    "recent_epw",
    "has_epw",
    "recent_step_energy_j",
    "has_step_energy",
    "tier",
    "calm_streak",
    "tier_peak",
    "transition_count",
    "degrade_attempted",
    "degraded",
    "throttle_s",
    "alive",
    "killed",
    "kill_step",
    "warm",
    "d_sys",
    "d_fpos",
    "d_setpoint",
    "d_pole",
    "d_epsilon",
    "d_explored",
    "d_feasible",
    "accuracy_sum",
)
