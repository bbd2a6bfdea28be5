"""Scalar Kalman-filter estimation as an EWMA alternative.

Kalman filters are the standard adaptive estimator in the self-adaptive
systems literature the paper cites (Kalyvianaki et al. [28, 29]); this
module provides a scalar random-walk Kalman filter that can replace the
Eqn. 1 EWMAs for per-configuration rate/power estimation.

State model::

    x(t) = x(t-1) + w,  w ~ N(0, q)      (the true rate/power drifts)
    z(t) = x(t)  + v,  v ~ N(0, r)      (noisy measurement)

Unlike the fixed-α EWMA, the Kalman gain adapts: it starts high while
the estimate is uncertain and settles at the steady-state gain implied
by q/r.  The EWMA with α = 0.85 corresponds to a high q/r ratio — the
paper's choice favours agility over smoothing; the comparison is
exercised in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

import numpy as np

from .contracts import check, require


@dataclass
class ScalarKalmanFilter:
    """Random-walk Kalman filter for one scalar quantity.

    Parameters
    ----------
    process_variance:
        q — how fast the underlying quantity is believed to drift.
    measurement_variance:
        r — sensor noise variance.
    value:
        Optional prior estimate; ``prior_variance`` states its trust
        (defaults to effectively uninformative).
    """

    process_variance: float = 1e-2
    measurement_variance: float = 1e-1
    value: Optional[float] = None
    prior_variance: float = 1e6
    updates: int = field(default=0)

    def __post_init__(self) -> None:
        check(
            self.process_variance >= 0 and self.measurement_variance > 0,
            "variances must be positive (q may be 0)",
        )
        check(self.prior_variance > 0, "prior variance must be positive")
        self._variance = self.prior_variance

    @property
    def variance(self) -> float:
        """Current estimate variance (uncertainty)."""
        return self._variance

    @property
    def gain(self) -> float:
        """The Kalman gain the *next* update would apply."""
        gain: float = kalman_predict(
            self._variance, self.process_variance, self.measurement_variance
        )[1]
        return gain

    def update(self, measurement: float) -> float:
        """Fold one measurement; return the new estimate."""
        if self.value is None:
            self.value = measurement
            self._variance = self.measurement_variance
            self.updates += 1
            return self.value
        self.value, self._variance = kalman_fold(
            self.value, self._variance, measurement,
            self.process_variance, self.measurement_variance,
        )
        self.updates += 1
        return self.value

    @property
    def initialized(self) -> bool:
        return self.value is not None

    def steady_state_gain(self) -> float:
        """The gain the filter converges to (function of q/r only).

        Solves the steady-state Riccati equation for the random-walk
        model; useful to pick (q, r) mimicking a target EWMA α.
        """
        q, r = self.process_variance, self.measurement_variance
        if q <= 0.0:
            return 0.0
        return _steady_gain(q / r)


class KalmanBank:
    """A bank of independent :class:`ScalarKalmanFilter` rows.

    The fleet pool keeps one row per session (struct-of-arrays Kalman
    mean/variance) and folds every session's measurement in a single
    vectorized update.  Row ``i`` evolves exactly as a scalar filter
    with the same (q, r) fed the same measurements — the update uses
    only ``+ - * /``, which numpy and CPython round identically, so
    the bank is bit-equal to the scalar filter.
    """

    def __init__(
        self,
        n: int,
        process_variance: float = 1e-2,
        measurement_variance: float = 1e-1,
    ) -> None:
        check(n >= 0, "bank size cannot be negative")
        check(
            process_variance >= 0 and measurement_variance > 0,
            "variances must be positive (q may be 0)",
        )
        self.process_variance = process_variance
        self.measurement_variance = measurement_variance
        self.value = np.zeros(n, dtype=np.float64)
        self.variance = np.zeros(n, dtype=np.float64)
        self.initialized = np.zeros(n, dtype=bool)
        self.updates = np.zeros(n, dtype=np.int64)

    @property
    def n(self) -> int:
        return int(self.value.shape[0])

    def extend(self, k: int) -> None:
        """Append ``k`` fresh (uninitialized) rows."""
        check(k >= 0, "cannot extend by a negative count")
        self.value = np.concatenate(
            [self.value, np.zeros(k, dtype=np.float64)]
        )
        self.variance = np.concatenate(
            [self.variance, np.zeros(k, dtype=np.float64)]
        )
        self.initialized = np.concatenate(
            [self.initialized, np.zeros(k, dtype=bool)]
        )
        self.updates = np.concatenate(
            [self.updates, np.zeros(k, dtype=np.int64)]
        )

    def keep(self, mask: np.ndarray) -> None:
        """Drop rows where ``mask`` is False (pool compaction)."""
        keep = np.asarray(mask, dtype=bool)
        self.value = self.value[keep]
        self.variance = self.variance[keep]
        self.initialized = self.initialized[keep]
        self.updates = self.updates[keep]

    def update(
        self, measurements: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Fold one measurement per masked row; return the estimates."""
        z = np.asarray(measurements, dtype=np.float64)
        if mask is None:
            rows = np.ones(self.n, dtype=bool)
        else:
            rows = np.asarray(mask, dtype=bool)
        first = rows & ~self.initialized
        later = rows & self.initialized
        folded, folded_variance = kalman_fold(
            self.value, self.variance, z,
            self.process_variance, self.measurement_variance,
        )
        self.value = np.where(
            later, folded, np.where(first, z, self.value)
        )
        self.variance = np.where(
            later,
            folded_variance,
            np.where(first, self.measurement_variance, self.variance),
        )
        self.initialized = self.initialized | rows
        self.updates = self.updates + rows.astype(np.int64)
        return self.value


def kalman_predict(
    variance: Any, process_variance: float, measurement_variance: float
) -> Tuple[Any, Any]:
    """``(predicted variance, gain)`` of the random-walk model.

    Pure ``+ - * /``, which numpy and CPython round identically, so one
    definition serves a scalar filter and a bank row alike.
    """
    predicted = variance + process_variance
    return predicted, predicted / (predicted + measurement_variance)


def kalman_fold(
    value: Any,
    variance: Any,
    measurement: Any,
    process_variance: float,
    measurement_variance: float,
) -> Tuple[Any, Any]:
    """Fold one measurement into an initialized estimate.

    Returns the new ``(value, variance)``; the one definition of the
    update for :class:`ScalarKalmanFilter` and :class:`KalmanBank`.
    """
    predicted, gain = kalman_predict(
        variance, process_variance, measurement_variance
    )
    return value + gain * (measurement - value), (1.0 - gain) * predicted


def _steady_gain(ratio: float) -> float:
    """Steady-state Kalman gain for process/measurement variance ratio."""
    # K* = (sqrt(ratio^2 + 4 ratio) + ratio) / (sqrt(...) + ratio + 2)
    s = math.sqrt(ratio**2 + 4.0 * ratio)
    return (s + ratio) / (s + ratio + 2.0)


@require(
    "alpha", lambda a: 0.0 < a < 1.0, "alpha must be in (0, 1)"
)
def variances_for_alpha(
    alpha: float, measurement_variance: float = 1.0
) -> float:
    """Process variance q making the steady-state gain equal ``alpha``.

    Lets a Kalman filter be configured to mimic the paper's EWMA in
    steady state while still adapting its gain during start-up.
    """
    # Invert K* = alpha for the random-walk model: q/r = K^2 / (1 - K).
    return measurement_variance * alpha**2 / (1.0 - alpha)
