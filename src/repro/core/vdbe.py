"""Value-Difference Based Exploration (paper Eqn. 2, after Tokic 2010).

VDBE adapts the ε of ε-greedy exploration from the surprise in value
estimates.  JouleGuard's instantiation compares the measured energy
efficiency of the configuration just run against its estimate::

    x(t)   = exp(−|α·(eff_measured − eff_estimated)| / σ)
    ρ(t)   = (1 − x) / (1 + x)
    ε(t)   = w·ρ(t) + (1 − w)·ε(t−1)

where the paper uses σ = 5 (an inverse sensitivity) and
w = 1/|Sys|.  Two practical refinements are exposed as parameters and
ablated in ``benchmarks/bench_ablations.py``:

* ``relative`` (default True) compares efficiencies *relatively*
  (``eff_measured/eff_estimated − 1``), making the sensitivity
  platform-independent — absolute efficiency spans four orders of
  magnitude between our Mobile and Server models, so a fixed absolute σ
  cannot serve both.
* ``min_weight`` (default 0.2) floors the update weight ``w``: with
  1024 configurations, the literal 1/|Sys| keeps ε ≈ 1 for hundreds of
  iterations — near-pure random exploration for entire runs, which is
  inconsistent with the paper's own Fig. 4 (convergence within ~20
  frames).  The floored weight reproduces that observed convergence;
  ``min_weight=0`` recovers the literal rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping

from . import floats
from .contracts import check, invariant, non_negative, require, unit_interval
from .ewma import DEFAULT_ALPHA


@invariant(
    lambda self: unit_interval(self.epsilon),
    "exploration rate ε must stay a probability in [0, 1] (Eqn. 2)",
)
@dataclass
class Vdbe:
    """ε adaptation state for one learner.

    Parameters
    ----------
    n_configs:
        Size of the configuration space (sets the paper's 1/|Sys| weight).
    sigma:
        Inverse sensitivity of the Boltzmann term (paper: 5).
    alpha:
        Scales the value difference (the paper reuses its EWMA α).
    relative:
        Compare efficiencies relatively rather than absolutely.
    min_weight:
        Floor on the ε update weight; 0 reproduces the literal paper rule.
    """

    n_configs: int
    sigma: float = 5.0
    alpha: float = DEFAULT_ALPHA
    relative: bool = True
    min_weight: float = 0.2
    epsilon: float = 1.0

    def __post_init__(self) -> None:
        check(self.n_configs >= 1, "need at least one configuration")
        check(self.sigma > 0, "sigma must be positive")
        check(
            unit_interval(self.min_weight), "min_weight must be in [0, 1]"
        )

    @property
    def weight(self) -> float:
        return floats.maximum(1.0 / self.n_configs, self.min_weight)

    @require("measured_eff", non_negative, "efficiencies must be non-negative")
    @require("estimated_eff", non_negative, "efficiencies must be non-negative")
    def update(self, measured_eff: float, estimated_eff: float) -> float:
        """Fold one (measured, estimated) efficiency pair into ε (Eqn. 2)."""
        difference = value_difference(
            floats, measured_eff, estimated_eff, self.relative
        )
        x = math.exp(-abs(self.alpha * difference) / self.sigma)
        rho = (1.0 - x) / (1.0 + x)
        w = self.weight
        self.epsilon = w * rho + (1.0 - w) * self.epsilon
        return self.epsilon

    @require(
        "rand", lambda r: 0.0 <= r < 1.0, "rand must be in [0, 1)"
    )
    def should_explore(self, rand: float) -> bool:
        """Paper's exploration test: explore iff ``rand < ε(t)``."""
        return rand < self.epsilon

    # -- persistence ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable state (see :mod:`repro.service.state`)."""
        return {
            "n_configs": self.n_configs,
            "sigma": self.sigma,
            "alpha": self.alpha,
            "relative": self.relative,
            "min_weight": self.min_weight,
            "epsilon": self.epsilon,
        }

    @classmethod
    def restore(cls, snapshot: Mapping[str, Any]) -> "Vdbe":
        """Rebuild exploration state from :meth:`snapshot` output."""
        return cls(
            n_configs=int(snapshot["n_configs"]),
            sigma=float(snapshot["sigma"]),
            alpha=float(snapshot["alpha"]),
            relative=bool(snapshot["relative"]),
            min_weight=float(snapshot["min_weight"]),
            epsilon=float(snapshot["epsilon"]),
        )


def value_difference(
    xp: Any, measured_eff: Any, estimated_eff: Any, relative: bool
) -> Any:
    """The value difference feeding Eqn. 2, over the namespace ``xp``.

    The one definition of the rule (:mod:`repro.core.floats`):
    :meth:`Vdbe.update` passes one learner's efficiencies, the fleet
    pool one row per session.  In ``relative`` mode a non-positive
    estimate counts as full surprise (difference 1).
    """
    if not relative:
        return measured_eff - estimated_eff
    known = estimated_eff > 0.0
    ratio = measured_eff / xp.where(known, estimated_eff, 1.0)
    return xp.where(known, ratio - 1.0, 1.0)
