"""System Energy Optimizer: bandit learning over system configurations.

The SEO (paper Sec. 3.2) treats every system configuration as the arm of
a multi-armed bandit whose reward is energy efficiency (rate/power).  It

* estimates per-configuration rate and power with EWMAs (Eqn. 1),
* initializes estimates from an optimistic prior — performance linear in
  resources, power cubic in clock speed and linear in cores ("an
  overestimate for all applications, but not a gross overestimate"),
* balances exploration and exploitation with VDBE (Eqn. 2),
* exploits by selecting the configuration with the highest estimated
  efficiency (Eqn. 3).

Priors are supplied as unit-free *shapes*; the optimizer learns global
scale factors from measurements (EWMA of measured/shape over visited
configurations) so unvisited configurations are estimated as
``shape × scale × optimism`` — keeping them optimistic, as the paper's
initialization intends, while giving them correct units.

Because every unvisited arm shares the same scales, their efficiency
ranking is the prior ratio ``rate_shape / power_shape`` up to rounding.
The Eqn. 3 argmax exploits that: visited arms keep their efficiency
from the last update, unvisited arms are ranked once per prior, and
only the few unvisited arms whose ratio ties the best one's are scored
exactly.  The result equals an argmax over every arm's estimate,
lowest index on ties, without touching every arm per decision.  When a
scale leaves the range where that rounding argument holds (learned from
an overflowing or vanishing measurement), the argmax scores every arm.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from .ewma import DEFAULT_ALPHA
from .vdbe import Vdbe


#: Unvisited arms whose prior ratio lies within this relative distance
#: of the best unvisited ratio are scored exactly.  Each estimate is a
#: few correctly rounded operations away from ``ratio × common scale``
#: (≤ 6 ulp, about 7e-16 relative), so an arm outside the window can
#: never reach the best one's score: the window is a million times
#: wider than the rounding it covers.  The bound needs every unvisited
#: estimate, and each product inside it, to be a normal float; see
#: :data:`_SCALED_RANGE`.
_TIE_WINDOW = 1e-9

#: The window is used only while every scaled shape, ``shape × scale``,
#: lies within ``[1/_SCALED_RANGE, _SCALED_RANGE]`` (optimism included).
#: Each estimate then lies within 2**±800, far inside the normal float
#: range; beyond it (a scale learned from an overflowing or vanishing
#: measurement) estimates can tie at ``inf`` or lose precision to
#: underflow, and the argmax scores every arm instead.
_SCALED_RANGE = 2.0**400


@dataclass(frozen=True)
class _PriorOrder:
    """Arms ranked by prior efficiency, shared by every optimizer of a prior.

    ``order`` lists arm indices by descending ``rate_shape /
    power_shape`` (stable, so equal ratios keep ascending index);
    ``window_end[k]`` is the first position after ``k`` whose ratio falls
    more than :data:`_TIE_WINDOW` below the ratio at position ``k``.
    All four are read-only views over compact buffers (the shapes over
    the cache key's bytes); indexing ``order`` and ``window_end`` gives
    Python ints.
    """

    rate_shape: np.ndarray
    power_shape: np.ndarray
    order: memoryview
    window_end: memoryview


# Keyed by shape content: a daemon opens sessions over a few fixed
# machine priors, so the bound only matters to callers that make many
# one-off priors.
@functools.lru_cache(maxsize=32)
def _prior_order(rate_bytes: bytes, power_bytes: bytes) -> _PriorOrder:
    rates = np.frombuffer(rate_bytes)
    powers = np.frombuffer(power_bytes)
    ratio = rates / powers
    order = np.argsort(-ratio, kind="stable")
    descending = ratio[order]
    window_end = np.searchsorted(
        -descending, -descending * (1.0 - _TIE_WINDOW), side="right"
    )
    return _PriorOrder(
        rate_shape=rates,
        power_shape=powers,
        order=memoryview(order).toreadonly(),
        window_end=memoryview(window_end).toreadonly(),
    )


@dataclass(frozen=True)
class SeoDecision:
    """One SEO selection: the arm to pull and why."""

    index: int
    explored: bool
    epsilon: float


class SystemEnergyOptimizer:
    """Bandit over system configurations maximizing energy efficiency.

    Parameters
    ----------
    prior_rate_shape / prior_power_shape:
        Positive arrays over configurations giving the *shape* of the
        optimistic prior (any units).
    alpha:
        EWMA weight of new samples (paper: 0.85).
    optimism:
        Multiplier applied to scale-calibrated priors of unvisited
        configurations (≥ 1).  The default 1.0 trusts the prior's own
        optimism (its shape already overestimates, per the paper);
        values above 1 force longer systematic sweeps of unvisited
        configurations, which costs energy on large spaces — ablated in
        ``benchmarks/bench_ablations.py``.
    vdbe:
        Exploration state; defaults to the paper's parameters.
    seed:
        RNG seed for the exploration draws.
    """

    def __init__(
        self,
        prior_rate_shape: Sequence[float],
        prior_power_shape: Sequence[float],
        alpha: float = DEFAULT_ALPHA,
        optimism: float = 1.0,
        vdbe: Optional[Vdbe] = None,
        seed: int = 0,
    ) -> None:
        rates = np.asarray(prior_rate_shape, dtype=float)
        powers = np.asarray(prior_power_shape, dtype=float)
        if rates.shape != powers.shape or rates.ndim != 1 or len(rates) == 0:
            raise ValueError("prior shapes must be equal-length 1-D arrays")
        if (rates <= 0).any() or (powers <= 0).any():
            raise ValueError("prior shapes must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if optimism < 1.0:
            raise ValueError("optimism must be >= 1")
        self.n_configs = len(rates)
        self.alpha = alpha
        self.optimism = optimism
        self._prior = _prior_order(rates.tobytes(), powers.tobytes())
        self._rate_shape = self._prior.rate_shape
        self._power_shape = self._prior.power_shape
        # Scales for which the prior-ratio window holds (see
        # _SCALED_RANGE): rate scale, then power scale, low and high.
        # Each bound is clamped to the normal range, so a bound that
        # overflows (tiny shapes) or underflows (huge ones) cannot
        # admit an inf or zero scale; clamping only narrows the window.
        tiny, huge = sys.float_info.min, sys.float_info.max
        self._window_scales = (
            max(1.0 / (_SCALED_RANGE * float(rates.min())), tiny),
            min(_SCALED_RANGE / (float(rates.max()) * optimism), huge),
            max(optimism / (_SCALED_RANGE * float(powers.min())), tiny),
            min(_SCALED_RANGE / float(powers.max()), huge),
        )
        self.load_tables(
            np.zeros(self.n_configs),
            np.zeros(self.n_configs),
            np.zeros(self.n_configs, dtype=bool),
            None,
            None,
        )
        self.vdbe = vdbe if vdbe is not None else Vdbe(self.n_configs)
        self._rng = np.random.default_rng(seed)
        self.updates = 0
        self.last_rate_delta = 0.0

    # -- estimates ------------------------------------------------------------
    def rate_estimate(self, index: int) -> float:
        """Current r̂ for a configuration (prior-based if unvisited)."""
        if self._visited[index]:
            return float(self._rate_est[index])
        scale = self._rate_scale if self._rate_scale is not None else 1.0
        return float(self._rate_shape[index] * scale * self.optimism)

    def power_estimate(self, index: int) -> float:
        """Current p̂ for a configuration (prior-based if unvisited).

        Note power priors are *divided* by optimism: an optimistic
        efficiency prior overestimates rate and underestimates power.
        """
        if self._visited[index]:
            return float(self._power_est[index])
        scale = self._power_scale if self._power_scale is not None else 1.0
        return float(self._power_shape[index] * scale / self.optimism)

    def efficiency_estimate(self, index: int) -> float:
        return self.rate_estimate(index) / self.power_estimate(index)

    @property
    def best_index(self) -> int:
        """Eqn. 3: configuration with the highest estimated efficiency.

        Equal to ``argmax(rate estimates / power estimates)`` over every
        arm, lowest index on ties: the best visited arm comes from the
        stored efficiencies, the best unvisited one from the prior
        order, scoring only the arms that tie its ratio.
        """
        best = int(self._eff.argmax())
        best_eff = self._eff[best]
        order = self._prior.order
        visited = self._visited
        k = self._frontier
        while k < self.n_configs and visited[order[k]]:
            k += 1
        self._frontier = k
        if k == self.n_configs:
            return best
        rate_scale = self._rate_scale if self._rate_scale is not None else 1.0
        power_scale = (
            self._power_scale if self._power_scale is not None else 1.0
        )
        # Written so that a NaN scale fails too.
        rate_low, rate_high, power_low, power_high = self._window_scales
        if not (
            rate_low <= rate_scale <= rate_high
            and power_low <= power_scale <= power_high
        ):
            return self._argmax_every_arm(rate_scale, power_scale)
        optimism = self.optimism
        for i in order[k : self._prior.window_end[k]]:
            if visited[i]:
                continue
            eff = ((self._rate_shape[i] * rate_scale) * optimism) / (
                (self._power_shape[i] * power_scale) / optimism
            )
            if eff > best_eff or (eff == best_eff and i < best):
                best, best_eff = i, eff
        return best

    def _argmax_every_arm(self, rate_scale: float, power_scale: float) -> int:
        """Eqn. 3 over every arm's estimate, lowest index on ties."""
        rates = self._rate_shape * rate_scale * self.optimism
        rates[self._visited] = self._rate_est[self._visited]
        powers = self._power_shape * power_scale / self.optimism
        powers[self._visited] = self._power_est[self._visited]
        return int((rates / powers).argmax())

    @property
    def epsilon(self) -> float:
        return self.vdbe.epsilon

    @property
    def visited_count(self) -> int:
        return int(self._visited.sum())

    # -- bandit interface ------------------------------------------------------
    def select(self) -> SeoDecision:
        """Pick the next configuration (explore w.p. ε, else exploit)."""
        rand = float(self._rng.random())
        if self.vdbe.should_explore(rand):
            index = int(self._rng.integers(self.n_configs))
            return SeoDecision(
                index=index, explored=True, epsilon=self.vdbe.epsilon
            )
        return SeoDecision(
            index=self.best_index, explored=False, epsilon=self.vdbe.epsilon
        )

    def update(self, index: int, rate: float, power: float) -> None:
        """Fold one measurement of configuration ``index`` (Eqns. 1–2)."""
        if rate <= 0 or power <= 0:
            raise ValueError("rate and power must be positive")
        if not 0 <= index < self.n_configs:
            raise IndexError(index)
        prior_rate = self.rate_estimate(index)
        prior_power = self.power_estimate(index)
        estimated_eff = prior_rate / prior_power
        self.last_rate_delta = abs(rate / prior_rate - 1.0)

        # Global scale calibration for unvisited configurations.
        rate_ratio = rate / self._rate_shape[index]
        power_ratio = power / self._power_shape[index]
        if self._rate_scale is None:
            self._rate_scale = rate_ratio
            self._power_scale = power_ratio
        else:
            blend = 0.25
            self._rate_scale += blend * (rate_ratio - self._rate_scale)
            self._power_scale += blend * (power_ratio - self._power_scale)

        # Per-configuration EWMA seeded from the (calibrated) prior.
        if not self._visited[index]:
            self._rate_est[index] = prior_rate
            self._power_est[index] = prior_power
            self._visited[index] = True
        self._rate_est[index] += self.alpha * (rate - self._rate_est[index])
        self._power_est[index] += self.alpha * (
            power - self._power_est[index]
        )
        self._eff[index] = self._rate_est[index] / self._power_est[index]
        self.vdbe.update(rate / power, estimated_eff)
        self.updates += 1

    # -- persistence ----------------------------------------------------------
    def load_tables(
        self,
        rate_est: Sequence[float],
        power_est: Sequence[float],
        visited: Sequence[bool],
        rate_scale: Optional[float],
        power_scale: Optional[float],
    ) -> None:
        """Replace the per-arm EWMA tables, visit mask, and scales.

        The one way to load learned tables (from a snapshot): copies
        the inputs and rebuilds the stored efficiencies the Eqn. 3
        argmax reads.
        """
        rates = np.array(rate_est, dtype=float)
        powers = np.array(power_est, dtype=float)
        mask = np.array(visited, dtype=bool)
        if not (
            rates.shape == powers.shape == mask.shape == (self.n_configs,)
        ):
            raise ValueError(
                "snapshot tables do not match the configuration space"
            )
        self._rate_est = rates
        self._power_est = powers
        self._visited = mask
        self._rate_scale = None if rate_scale is None else float(rate_scale)
        self._power_scale = (
            None if power_scale is None else float(power_scale)
        )
        # Visited arms' efficiencies; -inf keeps unvisited ones out of
        # the stored argmax.
        self._eff = np.full(self.n_configs, -np.inf)
        np.divide(rates, powers, out=self._eff, where=mask)
        # Position in the prior order before which every arm is visited.
        self._frontier = 0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable learned state.

        Everything the VDBE exploration paid for is here — priors,
        per-arm EWMA tables, visit mask, scale calibration, ε — so a new
        optimizer for the same configuration space can warm-start
        instead of re-exploring (see :mod:`repro.service.state`).  The
        RNG state rides along so a restore without an explicit reseed
        continues the exact exploration sequence.
        """
        return {
            "alpha": self.alpha,
            "optimism": self.optimism,
            "rate_shape": self._rate_shape.tolist(),
            "power_shape": self._power_shape.tolist(),
            "rate_est": self._rate_est.tolist(),
            "power_est": self._power_est.tolist(),
            "visited": [bool(flag) for flag in self._visited],
            "rate_scale": self._rate_scale,
            "power_scale": self._power_scale,
            "vdbe": self.vdbe.snapshot(),
            "updates": self.updates,
            "last_rate_delta": self.last_rate_delta,
            "rng_state": self._rng.bit_generator.state,
        }

    @classmethod
    def restore(
        cls,
        snapshot: Mapping[str, Any],
        seed: Optional[int] = None,
    ) -> "SystemEnergyOptimizer":
        """Rebuild an optimizer from :meth:`snapshot` output.

        ``seed`` reseeds the exploration RNG (for replicated runs that
        share learned tables but need independent — or deterministic —
        exploration draws); ``None`` resumes the snapshotted RNG state.
        """
        seo = cls(
            snapshot["rate_shape"],
            snapshot["power_shape"],
            alpha=float(snapshot["alpha"]),
            optimism=float(snapshot["optimism"]),
            vdbe=Vdbe.restore(snapshot["vdbe"]),
            seed=0 if seed is None else seed,
        )
        seo.load_tables(
            snapshot["rate_est"],
            snapshot["power_est"],
            snapshot["visited"],
            snapshot["rate_scale"],
            snapshot["power_scale"],
        )
        seo.updates = int(snapshot["updates"])
        seo.last_rate_delta = float(snapshot["last_rate_delta"])
        if seed is None and snapshot.get("rng_state") is not None:
            seo._rng.bit_generator.state = snapshot["rng_state"]
        return seo
