"""Application Accuracy Optimizer: the speedup PI controller (Sec. 3.3).

Given the learner's estimate of the best system configuration's rate and
power, the AAO computes the *additional* speedup the application must
provide to hit the energy goal (Eqn. 4) and eliminates the tracking
error with an integral controller whose gain depends on the adaptive
pole (Eqn. 5)::

    s(t) = s(t−1) + (1 − pole(t)) · error(t) / r̂_bestsys(t)

The speedup is clamped to the application's achievable range with
anti-windup (the integrator does not accumulate beyond the clamp), a
standard actuator-saturation guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from . import floats
from .contracts import (
    check,
    invariant,
    non_negative,
    positive,
    require,
    stable_pole,
)


@require(
    "target_energy_per_work",
    positive,
    "target energy per work must be positive",
)
@require("est_system_power", positive, "estimated power must be positive")
def required_rate(
    target_energy_per_work: float, est_system_power: float
) -> float:
    """Rate needed so energy/work hits the target at the estimated power.

    This is the paper's Eqn. 4 expressed directly in budget terms: the
    factor f and the default rate/power cancel into the target
    joules-per-work-unit the accountant maintains.
    """
    return est_system_power / target_energy_per_work


def speedup_target(
    factor: float,
    default_rate: float,
    default_power: float,
    est_system_rate: float,
    est_system_power: float,
) -> float:
    """Literal Eqn. 4: total speedup for an energy-reduction factor f.

    ``s = f · (r_default/p_default) · (p̂_bestsys/r̂_bestsys)``; provided
    for analysis and tests — the runtime uses :func:`required_rate` with
    the live remaining-budget target instead.
    """
    check(
        min(
            factor,
            default_rate,
            default_power,
            est_system_rate,
            est_system_power,
        )
        > 0,
        "all quantities must be positive",
    )
    return (
        factor
        * (default_rate / default_power)
        * (est_system_power / est_system_rate)
    )


@invariant(
    lambda self: self.min_speedup <= self.speedup <= self.max_speedup,
    "control signal must stay inside the actuator clamp",
)
@dataclass
class SpeedupController:
    """Integral controller on application speedup (Eqn. 5).

    Parameters
    ----------
    min_speedup / max_speedup:
        Achievable range of the application's configuration table.
    initial_speedup:
        Starting control signal (the default configuration's 1.0).
    """

    min_speedup: float = 1.0
    max_speedup: float = float("inf")
    initial_speedup: float = 1.0

    def __post_init__(self) -> None:
        check(self.min_speedup > 0, "min_speedup must be positive")
        check(
            self.max_speedup >= self.min_speedup,
            "max_speedup must be >= min_speedup",
        )
        self.speedup = float(
            min(max(self.initial_speedup, self.min_speedup), self.max_speedup)
        )

    @property
    def saturated(self) -> bool:
        """True when the control signal sits on a clamp boundary."""
        return self.speedup in (self.min_speedup, self.max_speedup)

    @require("pole", stable_pole, "pole must be in [0, 1)")
    @require(
        "est_system_rate", positive, "estimated system rate must be positive"
    )
    @require("measured_rate", non_negative, "rates cannot be negative")
    @require("required", non_negative, "rates cannot be negative")
    def step(
        self,
        required: float,
        measured_rate: float,
        est_system_rate: float,
        pole: float,
    ) -> float:
        """One control update; returns the new (clamped) speedup."""
        error = required - measured_rate
        unclamped = self.speedup + (1.0 - pole) * error / est_system_rate
        self.speedup = float(
            floats.minimum(
                floats.maximum(unclamped, self.min_speedup),
                self.max_speedup,
            )
        )
        return self.speedup

    def reset(self, speedup: float = 1.0) -> None:
        """Reset the integrator (used on phase-change detection tests)."""
        self.speedup = float(
            min(max(speedup, self.min_speedup), self.max_speedup)
        )

    # -- persistence ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable state (see :mod:`repro.service.state`)."""
        return {
            "min_speedup": self.min_speedup,
            "max_speedup": self.max_speedup,
            "speedup": self.speedup,
        }

    @classmethod
    def restore(cls, snapshot: Mapping[str, Any]) -> "SpeedupController":
        """Rebuild a controller from :meth:`snapshot` output."""
        return cls(
            min_speedup=float(snapshot["min_speedup"]),
            max_speedup=float(snapshot["max_speedup"]),
            initial_speedup=float(snapshot["speedup"]),
        )
