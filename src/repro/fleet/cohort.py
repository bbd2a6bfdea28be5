"""Cohort specification: what all sessions of a (machine, app) share.

A fleet is partitioned into *cohorts* — sessions running the same
application on the same Table 3 machine shape.  Everything Algorithm 1
needs that is constant across such sessions lives here as plain arrays:
the optimistic prior shapes (:func:`repro.runtime.harness.prior_shapes`),
the application's Pareto frontier in ascending-speedup order, and the
paper's learner/controller parameters.  The
:class:`~repro.fleet.pool.SessionPool` then holds only per-session
state, keyed into these shared tables.

Index conventions (load-bearing):

* system configuration ``j`` means ``machine.space[j]`` — the
  *enumeration* order the SEO and ``prior_shapes`` share, not
  ``ConfigSpace.linearized()``;
* frontier position ``p`` means ``table.pareto_frontier[p]`` — strictly
  increasing speedup, so Eqn. 6 is a ``searchsorted``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..apps.base import ApproximateApplication
from ..core.contracts import check
from ..core.ewma import DEFAULT_ALPHA
from ..hw.machine import Machine
from ..runtime.harness import prior_shapes
from ..runtime.oracle import default_energy_per_work

__all__ = ["CohortSpec"]


@dataclass(frozen=True)
class CohortSpec:
    """Shared, immutable state for one (machine, app) cohort."""

    machine_name: str
    app_name: str
    rate_shape: np.ndarray
    power_shape: np.ndarray
    frontier_speedups: np.ndarray
    frontier_accuracies: np.ndarray
    frontier_power_factors: np.ndarray
    frontier_indices: np.ndarray
    default_epw: float
    alpha: float = DEFAULT_ALPHA
    optimism: float = 1.0
    vdbe_sigma: float = 5.0
    vdbe_alpha: float = DEFAULT_ALPHA
    vdbe_relative: bool = True
    vdbe_min_weight: float = 0.2
    pole_margin: float = 1.0
    pole_smoothing: float = 0.0
    feasibility_slack: float = 1.05

    def __post_init__(self) -> None:
        check(
            self.rate_shape.shape == self.power_shape.shape
            and self.rate_shape.ndim == 1
            and self.rate_shape.shape[0] > 0,
            "prior shapes must be equal-length 1-D arrays",
        )
        check(
            bool((self.rate_shape > 0).all())
            and bool((self.power_shape > 0).all()),
            "prior shapes must be positive",
        )
        check(
            self.frontier_speedups.ndim == 1
            and self.frontier_speedups.shape[0] > 0,
            "the frontier needs at least one configuration",
        )
        check(
            bool(np.all(np.diff(self.frontier_speedups) > 0)),
            "frontier speedups must be strictly increasing",
        )
        check(self.default_epw > 0, "default energy/work must be positive")
        check(0.0 < self.alpha <= 1.0, "alpha must be in (0, 1]")
        check(self.optimism >= 1.0, "optimism must be >= 1")
        check(self.pole_margin >= 1.0, "pole margin must be >= 1")
        check(
            self.feasibility_slack >= 1.0, "feasibility_slack must be >= 1"
        )

    @property
    def n_configs(self) -> int:
        """Size of the system configuration space."""
        return int(self.rate_shape.shape[0])

    @property
    def n_frontier(self) -> int:
        return int(self.frontier_speedups.shape[0])

    @property
    def min_speedup(self) -> float:
        """The controller clamp floor (frontier[0], Eqn. 5)."""
        return float(self.frontier_speedups[0])

    @property
    def max_speedup(self) -> float:
        """The controller clamp ceiling (Eqn. 6's last resort)."""
        return float(self.frontier_speedups[-1])

    @property
    def vdbe_weight(self) -> float:
        """The floored Eqn. 2 update weight, as :class:`Vdbe` computes."""
        return max(1.0 / self.n_configs, self.vdbe_min_weight)

    @classmethod
    def from_pair(
        cls, machine: Machine, app: ApproximateApplication
    ) -> "CohortSpec":
        """Build the spec for an application on a machine shape."""
        if not app.runs_on(machine.name):
            raise ValueError(
                f"{app.name} does not run on {machine.name}"
            )
        rate_shape, power_shape = prior_shapes(machine)
        rate_shape = rate_shape.astype(np.float64)
        power_shape = power_shape.astype(np.float64)
        rate_shape.setflags(write=False)
        power_shape.setflags(write=False)
        frontier = app.table.pareto_frontier
        speedups = np.asarray(
            [config.speedup for config in frontier], dtype=np.float64
        )
        accuracies = np.asarray(
            [config.accuracy for config in frontier], dtype=np.float64
        )
        power_factors = np.asarray(
            [config.power_factor for config in frontier],
            dtype=np.float64,
        )
        indices = np.asarray(
            [config.index for config in frontier], dtype=np.int64
        )
        for table in (speedups, accuracies, power_factors, indices):
            table.setflags(write=False)
        return cls(
            machine_name=machine.name,
            app_name=app.name,
            rate_shape=rate_shape,
            power_shape=power_shape,
            frontier_speedups=speedups,
            frontier_accuracies=accuracies,
            frontier_power_factors=power_factors,
            frontier_indices=indices,
            default_epw=default_energy_per_work(machine, app),
        )
