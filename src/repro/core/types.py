"""Shared types and interfaces of the JouleGuard runtime.

The runtime is deliberately generic (Sec. 3.5): it needs (1) per-iteration
feedback — work done, energy used, rate, power — and (2) an
accuracy-ordered application configuration table.  Anything satisfying
the small protocols here can be managed; :mod:`repro.runtime.harness`
adapts the simulator and the benchmark suite, but real sensors and real
applications could be adapted identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

_INF = float("inf")


@dataclass(frozen=True)
class Measurement:
    """Feedback from one application iteration (heartbeat).

    ``rate`` is observed application performance (work units/second,
    including the effect of the current application configuration) and
    ``power_w`` the observed full-system power.  Every field must be
    finite: one ``inf`` rate would leave the learned tables and the
    adaptive pole NaN for the rest of the session.
    """

    work: float
    energy_j: float
    rate: float
    power_w: float

    def __post_init__(self) -> None:
        # Chained comparisons against inf also fail for NaN.
        if not (
            0.0 < self.work < _INF
            and 0.0 < self.rate < _INF
            and 0.0 < self.power_w < _INF
        ):
            raise ValueError(
                "work, rate, and power must be positive and finite"
            )
        if not 0.0 <= self.energy_j < _INF:
            raise ValueError("energy must be finite and non-negative")


@runtime_checkable
class AccuracyOrderedConfig(Protocol):
    """One application configuration as the runtime sees it."""

    @property
    def speedup(self) -> float: ...

    @property
    def accuracy(self) -> float: ...


@runtime_checkable
class AccuracyOrderedTable(Protocol):
    """What the runtime requires of an application's config table.

    Accuracy need only define a total order (Sec. 3.6);
    :class:`repro.apps.base.ConfigTable` satisfies this protocol.
    """

    @property
    def pareto_frontier(self) -> Sequence[AccuracyOrderedConfig]: ...

    @property
    def max_speedup(self) -> float: ...

    def best_accuracy_for_speedup(
        self, speedup: float
    ) -> AccuracyOrderedConfig: ...
