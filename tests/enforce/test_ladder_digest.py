"""Pinned ladder decisions: the enforcement ladder decides bit-for-bit.

Two trajectories are hashed with sha256, floats in ``float.hex`` form,
so any change to one bit of one decision changes a digest:

* a seeded scalar walk: :func:`overdraft_signal` over a recorded
  :class:`BudgetAccountant` feeds one :class:`EnforcementLadder` per
  episode.  Each episode's energy waste switches between regimes, and
  some steps pass ``None`` estimates or a zero step energy (infinite
  headroom).  Every step folds the signal, the tier, the calm streak
  and the throttle sleep; every episode folds its ``transitions``;
* the exact-mode :class:`SessionPool` on a mixed runaway cohort: per
  step, every row's tier, calm streak, throttle sleep and kill step.

The digests were recorded from the ladder with one scalar and one
array copy of its arithmetic.  A change to how the ladder is written
must leave them untouched.  The walk must also reach escalation, a
hysteresis hold, a de-escalation, THROTTLE and KILL, so the digest
cannot pass on a trajectory that never exercises the rules.
"""

import hashlib
import random
from collections import Counter

import numpy as np

from repro.apps import build_application
from repro.core.budget import BudgetAccountant, EnergyGoal
from repro.enforce.ladder import (
    EnforcementLadder,
    KilledSessionError,
    Tier,
    overdraft_signal,
)
from repro.fleet import CohortHardwareModel, CohortSpec, SessionPool
from repro.hw import GENERIC_PROFILE, get_machine
from repro.hw.vector import MachineTables

EPISODES = 60
EPISODE_STEPS = 120
POOL_STEPS = 160

#: sha256 over the scalar walk (every step and every transition).
SCALAR_WALK_DIGEST = (
    "a8cf778cdfacd5a2df12167359a3124709d27938403f7ab7cede92c7cd910166"
)
#: sha256 over the exact-mode pool's per-step enforcement outputs.
POOL_DIGEST = (
    "a4ea431d5509d67826175a87bd92fddaf09028519c441bc643996c613c196be5"
)


def _hex(value: float) -> str:
    return float(value).hex()


def scalar_walk():
    """Run the seeded walk; return ``(hexdigest, coverage counter)``."""
    rng = random.Random(20151004)
    digest = hashlib.sha256()
    seen: Counter = Counter()
    for episode in range(EPISODES):
        total_work = float(rng.choice((60, 100, 150)))
        budget_j = total_work * rng.uniform(0.5, 2.0)
        accountant = BudgetAccountant(
            goal=EnergyGoal(total_work=total_work, budget_j=budget_j)
        )
        ladder = EnforcementLadder()
        nominal_epw = budget_j / total_work
        recent_epw = None
        recent_step = None
        waste = 1.0
        for step in range(EPISODE_STEPS):
            if rng.random() < 0.08:
                waste = rng.choice((0.4, 0.8, 1.0, 1.3, 2.0, 3.5, 6.0))
            work = rng.uniform(0.5, 1.5)
            if rng.random() < 0.03:
                energy_j = 0.0
            else:
                energy_j = work * nominal_epw * waste * rng.uniform(
                    0.7, 1.3
                )
            accountant.record(work=work, energy_j=energy_j)
            epw = energy_j / work
            recent_epw = (
                epw if recent_epw is None
                else recent_epw + 0.25 * (epw - recent_epw)
            )
            recent_step = (
                energy_j if recent_step is None
                else recent_step + 0.25 * (energy_j - recent_step)
            )
            withhold = rng.random()
            signal = overdraft_signal(
                accountant,
                None if withhold < 0.04 else recent_epw,
                None if 0.04 <= withhold < 0.08 else recent_step,
            )
            previous = ladder.tier
            streak_before = ladder._calm_streak
            try:
                tier = ladder.observe(signal, step)
            except KilledSessionError:
                digest.update(b"killed\n")
                seen["observe after kill"] += 1
                break
            if tier > previous:
                seen["escalation"] += 1
            elif tier < previous:
                seen["de-escalation"] += 1
            elif ladder._calm_streak > streak_before:
                seen["hysteresis hold"] += 1
            seen[tier.label] += 1
            if signal.headroom_steps == float("inf"):
                seen["infinite headroom"] += 1
            digest.update(
                "|".join(
                    (
                        str(episode),
                        str(step),
                        _hex(signal.projected_overrun),
                        _hex(signal.burn_fraction),
                        _hex(signal.headroom_steps),
                        str(int(tier)),
                        str(ladder._calm_streak),
                        _hex(ladder.throttle_s()),
                    )
                ).encode()
                + b"\n"
            )
        for transition in ladder.transitions:
            digest.update(
                "|".join(
                    (
                        str(transition.step),
                        str(int(transition.from_tier)),
                        str(int(transition.to_tier)),
                        _hex(transition.projected_overrun),
                        _hex(transition.burn_fraction),
                        _hex(transition.headroom_steps),
                    )
                ).encode()
                + b"\n"
            )
        digest.update(
            f"end|{episode}|{int(ladder.tier)}|"
            f"{ladder.degrade_attempted}\n".encode()
        )
    return digest.hexdigest(), seen


def pool_digest():
    """Step an exact-mode mixed cohort; return ``(hexdigest, pool)``."""
    machine = get_machine("tablet")
    app = build_application("x264")
    spec = CohortSpec.from_pair(machine, app)
    tables = MachineTables.build(machine, GENERIC_PROFILE)
    n = 16
    waste = np.asarray(
        [1.0, 1.0, 1.0, 1.0, 1.4, 1.4, 1.8, 1.8,
         2.2, 2.2, 2.6, 3.0, 3.0, 4.0, 5.0, 8.0]
    )
    model = CohortHardwareModel(tables, spec, n, waste=waste, seed=29)
    pool = SessionPool(spec, mode="exact")
    pool.open(
        np.full(n, 40.0),
        np.arange(n, dtype=np.int64) * 13 + 5,
        factors=np.linspace(1.2, 2.5, n),
    )
    digest = hashlib.sha256()
    for t in range(POOL_STEPS):
        if pool.alive_count == 0:
            break
        work, energy_j, rate, power_w = model.measurements(
            t, pool.d_sys.copy(), pool.d_fpos.copy()
        )
        pool.step(work, energy_j, rate, power_w)
        model.prune(t)
        for i in range(n):
            digest.update(
                "|".join(
                    (
                        str(t),
                        str(i),
                        str(int(pool.tier[i])),
                        str(int(pool.calm_streak[i])),
                        _hex(pool.throttle_s[i]),
                        str(int(pool.kill_step[i])),
                    )
                ).encode()
                + b"\n"
            )
    return digest.hexdigest(), pool


class TestLadderDigest:
    def test_scalar_walk_exercises_every_rule(self):
        _, seen = scalar_walk()
        for event in (
            "escalation",
            "hysteresis hold",
            "de-escalation",
            "infinite headroom",
            Tier.THROTTLE.label,
            Tier.KILL.label,
        ):
            assert seen[event] > 0, f"walk never reached {event!r}"

    def test_scalar_walk_digest(self):
        digest, _ = scalar_walk()
        assert digest == SCALAR_WALK_DIGEST

    def test_pool_reaches_the_hard_tiers(self):
        _, pool = pool_digest()
        assert bool(np.any(pool.killed))
        assert bool(np.any(pool.tier_peak == int(Tier.THROTTLE)))
        assert bool(np.any(pool.tier_peak < int(Tier.DEGRADE)))

    def test_pool_digest(self):
        digest, _ = pool_digest()
        assert digest == POOL_DIGEST
