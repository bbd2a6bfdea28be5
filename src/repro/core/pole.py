"""Adaptive pole placement (paper Eqns. 9–11).

The controller's pole determines how much model inaccuracy the closed
loop tolerates: for multiplicative model error δ, the loop is stable iff

    0 < δ < 2 / (1 − pole)                                   (Eqn. 9)

JouleGuard measures δ(t) from the learner's prediction error (Eqn. 10)
and sets the pole just large enough to keep the measured error inside
the stability region (Eqn. 11)::

    pole(t) = 1 − 2/δ(t)   if δ(t) > 2
              0            otherwise

A ``margin`` > 1 tightens the bound (the literal rule places the loop on
the stability boundary when δ > 2); margin 1 reproduces the paper.
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


@require("predicted_rate", positive, "predicted rate must be positive")
@require("measured_rate", non_negative, "measured rate cannot be negative")
def multiplicative_error(measured_rate: float, predicted_rate: float) -> float:
    """Eqn. 10: δ(t) = |measured/predicted − 1|.

    ``predicted_rate`` is what the models forecast for the measured
    iteration — the learner's system-rate estimate times the speedup the
    controller had applied.
    """
    return abs(measured_rate / predicted_rate - 1.0)


@require("delta", non_negative, "delta cannot be negative")
@require("margin", lambda m: m >= 1.0, "margin must be >= 1")
def pole_for_error(delta: float, margin: float = 1.0) -> float:
    """Eqn. 11: smallest pole keeping error ``delta`` inside Eqn. 9.

    With ``margin`` m, the pole is chosen so the stability bound covers
    m·δ.  The result is always in [0, 1).
    """
    pole: float = placed_pole(floats, delta, margin)
    return pole


def placed_pole(xp: Any, delta: Any, margin: float) -> Any:
    """Eqn. 11 over the namespace ``xp`` (:mod:`repro.core.floats`).

    The one definition of the rule: :func:`pole_for_error` passes one
    learner's δ, the fleet pool an array with one δ per session.  An
    effective error of at most 2 gets pole 0 (``1 - 2/2``).
    """
    return 1.0 - 2.0 / xp.maximum(2.0, delta * margin)


@require("pole", stable_pole, "pole must be in [0, 1)")
def max_stable_error(pole: float) -> float:
    """Eqn. 9: largest multiplicative error a given pole tolerates."""
    return 2.0 / (1.0 - pole)


@invariant(
    lambda self: stable_pole(self.pole),
    "adaptive pole must stay in the stable range [0, 1) (Eqn. 9)",
)
@dataclass
class AdaptivePole:
    """Stateful pole adaptation with optional smoothing.

    ``smoothing`` in [0, 1) low-passes δ(t) before Eqn. 11 — a single
    noisy iteration should not whipsaw the pole; 0 reproduces the
    memoryless paper rule.
    """

    margin: float = 1.0
    smoothing: float = 0.0
    _delta: float = 0.0

    def __post_init__(self) -> None:
        check(
            0.0 <= self.smoothing < 1.0, "smoothing must be in [0, 1)"
        )
        self._pole = pole_for_error(self._delta, self.margin)

    def update(self, measured_rate: float, predicted_rate: float) -> float:
        """Fold one prediction error; return the new pole."""
        return self.update_from_delta(
            multiplicative_error(measured_rate, predicted_rate)
        )

    @require("delta", non_negative, "delta cannot be negative")
    def update_from_delta(self, delta: float) -> float:
        """Fold an already-computed δ(t); return the new pole."""
        self._delta = (
            self.smoothing * self._delta + (1.0 - self.smoothing) * delta
        )
        # Eqn. 11 runs once per update; the pole property, the
        # invariant and the caller's decision all read this value.
        self._pole = pole_for_error(self._delta, self.margin)
        return self._pole

    @property
    def delta(self) -> float:
        return self._delta

    @property
    def pole(self) -> float:
        return self._pole

    # -- persistence ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable state (see :mod:`repro.service.state`)."""
        return {
            "margin": self.margin,
            "smoothing": self.smoothing,
            "delta": self._delta,
        }

    @classmethod
    def restore(cls, snapshot: Mapping[str, Any]) -> "AdaptivePole":
        """Rebuild pole state from :meth:`snapshot` output."""
        return cls(
            margin=float(snapshot["margin"]),
            smoothing=float(snapshot["smoothing"]),
            _delta=float(snapshot["delta"]),
        )
