"""The SEO's Eqn. 3 argmax equals a brute-force argmax over every arm.

:attr:`SystemEnergyOptimizer.best_index` reads stored efficiencies for
visited arms and ranks unvisited arms by their prior ratio, scoring
exactly only those that tie the best ratio.  The oracle here is the
plain definition: every arm's rate estimate over its power estimate,
``ndarray.argmax`` (lowest index on ties).  Priors are generated with
exactly equal and nearly equal ratios, learned tables with ties, and
both ways of loading tables: updates and ``restore``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bandit import SystemEnergyOptimizer


def brute_force_best(seo):
    """Eqn. 3 over every arm, as the definition states it."""
    rate_scale = seo._rate_scale if seo._rate_scale is not None else 1.0
    power_scale = seo._power_scale if seo._power_scale is not None else 1.0
    rates = seo._rate_shape * rate_scale * seo.optimism
    rates[seo._visited] = seo._rate_est[seo._visited]
    powers = seo._power_shape * power_scale / seo.optimism
    powers[seo._visited] = seo._power_est[seo._visited]
    return int((rates / powers).argmax())


# -- strategies ----------------------------------------------------------------

magnitudes = st.floats(min_value=1e-3, max_value=1e3)
#: Few distinct values, so repeated measurements (and tied learned
#: efficiencies) are common.
measured = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), magnitudes)


@st.composite
def priors(draw):
    """Prior shapes whose ratios often tie exactly or within an ulp.

    Each arm copies one of a few base (rate, power) pairs, scaled by a
    power of two (the same ratio, bit for bit) and sometimes nudged by
    a few ulps (a near tie).
    """
    bases = draw(
        st.lists(st.tuples(magnitudes, magnitudes), min_size=1, max_size=4)
    )
    n = draw(st.integers(min_value=1, max_value=40))
    rates, powers = [], []
    for _ in range(n):
        rate, power = bases[draw(st.integers(0, len(bases) - 1))]
        scale = 2.0 ** draw(st.integers(-3, 3))
        rate *= scale
        power *= scale
        for _ in range(draw(st.integers(0, 2))):
            rate = float(np.nextafter(rate, np.inf))
        rates.append(rate)
        powers.append(power)
    return rates, powers


@st.composite
def updates(draw, n_configs):
    return draw(
        st.lists(
            st.tuples(
                st.integers(0, n_configs - 1), measured, measured
            ),
            max_size=30,
        )
    )


def _check_along(seo, steps):
    assert seo.best_index == brute_force_best(seo)
    for index, rate, power in steps:
        seo.update(index, rate, power)
        assert seo.best_index == brute_force_best(seo)


# -- properties ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data(), prior=priors(), optimism=st.floats(1.0, 3.0))
def test_best_index_matches_brute_force_along_updates(data, prior, optimism):
    rates, powers = prior
    seo = SystemEnergyOptimizer(rates, powers, optimism=optimism)
    _check_along(seo, data.draw(updates(len(rates))))


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    prior=priors(),
    optimism=st.floats(1.0, 3.0),
    drop_scale=st.booleans(),
    seed=st.one_of(st.none(), st.integers(0, 10)),
)
def test_best_index_matches_brute_force_after_restore(
    data, prior, optimism, drop_scale, seed
):
    rates, powers = prior
    seo = SystemEnergyOptimizer(rates, powers, optimism=optimism)
    for index, rate, power in data.draw(updates(len(rates))):
        seo.update(index, rate, power)
    snapshot = seo.snapshot()
    if drop_scale:
        # Learned tables without a learned scale: the unvisited arms
        # fall back to the bare prior shapes.
        snapshot["rate_scale"] = snapshot["power_scale"] = None
    restored = SystemEnergyOptimizer.restore(snapshot, seed=seed)
    _check_along(restored, data.draw(updates(len(rates))))


@example(visited_first=True)
@example(visited_first=False)
@given(visited_first=st.booleans())
def test_a_visited_arm_tying_an_unvisited_one_loses_to_the_lower_index(
    visited_first,
):
    # Arm 0 and arm 1 share one prior shape.  A measurement equal to
    # the prior leaves the visited arm's efficiency exactly equal to
    # its unvisited twin's, so the lower index must win either way.
    seo = SystemEnergyOptimizer([2.0, 2.0, 1.0], [4.0, 4.0, 4.0])
    visited = 0 if visited_first else 1
    seo.update(visited, 2.0, 4.0)
    assert seo.efficiency_estimate(0) == seo.efficiency_estimate(1)
    assert seo.best_index == brute_force_best(seo) == 0


# -- extreme magnitudes ----------------------------------------------------------

#: Measurements whose products overflow or underflow: the learned
#: scales then leave the normal range, where the prior-ratio window no
#: longer brackets the winner.  ``Measurement`` refuses a non-finite
#: heartbeat, but finite extremes (1e-310, 1e308) still reach the SEO;
#: ``inf`` covers a caller that updates the SEO directly.
extreme = st.sampled_from([1e300, 1e308, 1e-300, 1e-310, 5e-324, np.inf])
measured_or_extreme = st.one_of(measured, extreme)


@st.composite
def extreme_priors(draw):
    """Prior shapes whose own magnitudes reach the ends of the range."""
    shapes = st.one_of(
        magnitudes, st.sampled_from([1e300, 1e-300, 1e-310, 1e308])
    )
    n = draw(st.integers(min_value=1, max_value=20))
    rates = draw(st.lists(shapes, min_size=n, max_size=n))
    powers = draw(st.lists(shapes, min_size=n, max_size=n))
    return rates, powers


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    prior=st.one_of(priors(), extreme_priors()),
    optimism=st.floats(1.0, 3.0),
)
def test_best_index_matches_brute_force_at_extreme_magnitudes(
    data, prior, optimism
):
    rates, powers = prior
    steps = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, len(rates) - 1),
                measured_or_extreme,
                measured_or_extreme,
            ),
            max_size=20,
        )
    )
    with np.errstate(all="ignore"):
        seo = SystemEnergyOptimizer(rates, powers, optimism=optimism)
        assert seo.best_index == brute_force_best(seo)
        for index, rate, power in steps:
            try:
                seo.update(index, rate, power)
            except (ArithmeticError, ValueError):
                # Eqns. 1-2 refuse some of these (a zero or non-finite
                # efficiency); the argmax must still match whatever
                # the tables hold.
                pass
            assert seo.best_index == brute_force_best(seo)


@pytest.mark.parametrize(
    "rate, power, expected",
    [
        # Both scales inf: every unvisited arm scores inf/inf = nan,
        # which ndarray.argmax takes as the maximum, first one wins.
        (np.inf, 1.0, 0),
        # The rate scale overflows to inf, the power scale stays
        # finite: every unvisited arm scores inf and ties with the
        # visited one, so the lowest index wins.
        (1e308, 1e-10, 0),
        # A vanishing rate: subnormal scale, the unvisited arms keep
        # their prior order only up to underflow.
        (1e-310, 1.0, brute_force_best),
    ],
)
def test_an_extreme_measurement_is_decided_like_every_arm_argmax(
    rate, power, expected
):
    seo = SystemEnergyOptimizer([1.0, 2.0, 3.0, 3.0], [1.0, 1.0, 1.0, 1.0])
    with np.errstate(all="ignore"):
        seo.update(3, rate, power)
        want = expected(seo) if callable(expected) else expected
        assert seo.best_index == brute_force_best(seo) == want


def test_tiny_prior_shapes_do_not_admit_an_inf_scale():
    # With shapes near 1e-300 the window's upper scale bounds overflow
    # to inf; an ordinary measurement then learns inf scales, and the
    # unvisited arm scores inf/inf = nan, which ndarray.argmax takes
    # as the maximum.
    seo = SystemEnergyOptimizer([1e-310, 1e-300], [1e-310, 1e-300])
    with np.errstate(all="ignore"):
        seo.update(0, 0.5, 0.5)
        assert seo.best_index == brute_force_best(seo) == 1
