"""The one rebalance plan and its all-or-nothing application.

:func:`plan_rebalance` is the donor/needer math both the
multi-application coordinator and the service's session manager (and,
through it, the shard router) run; :func:`apply_rebalance_plan` is the
one rollback-apply they share.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import BudgetAccountant, EnergyGoal
from repro.core.contracts import ContractError
from repro.core.multi import (
    MultiAppCoordinator,
    apply_rebalance_plan,
    plan_rebalance,
)
from repro.core.types import Measurement

from .test_multi import make_runtime

surplus_values = st.one_of(
    st.floats(min_value=-1e4, max_value=-1e-3),
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e4),
)


@st.composite
def plan_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    ids = [f"s{i}" for i in range(n)]
    surpluses = {i: draw(surplus_values) for i in ids}
    overdrafts = {
        i: (
            draw(st.floats(min_value=0.0, max_value=2e4))
            if surpluses[i] < 0 and draw(st.booleans())
            else 0.0
        )
        for i in ids
    }
    fraction = draw(st.floats(min_value=1e-3, max_value=1.0))
    return surpluses, overdrafts, fraction


@settings(max_examples=300, deadline=None)
@given(plan_inputs())
def test_plan_is_a_zero_sum_donor_to_needer_transfer(inputs):
    surpluses, overdrafts, fraction = inputs
    deltas = plan_rebalance(surpluses, overdrafts, fraction)
    # One delta per input, in the inputs' order.
    assert list(deltas) == list(surpluses)
    scale = sum(abs(v) for v in surpluses.values())
    assert abs(sum(deltas.values())) <= 1e-9 * max(1.0, scale)
    for account, delta_j in deltas.items():
        assert math.isfinite(delta_j)
        if surpluses[account] > 0:
            assert delta_j <= 0.0  # donors only lose
        elif surpluses[account] < 0:
            assert delta_j >= 0.0  # needers only gain
        else:
            assert delta_j == 0.0  # jglint: disable=JG004
        if delta_j > 0.0:
            # A grant never falls short of its needer's overdraft.
            assert delta_j >= overdrafts[account] - 1e-9


def test_plan_moves_the_fraction_of_surplus_capped_by_the_need():
    deltas = plan_rebalance(
        {"a": 10.0, "b": -3.0, "c": 30.0}, {}, transfer_fraction=0.5
    )
    assert deltas["b"] == pytest.approx(3.0)
    assert deltas["a"] + deltas["c"] == pytest.approx(-3.0)
    assert deltas["c"] == pytest.approx(3.0 * deltas["a"])


def test_undersized_needers_are_dropped_and_the_rest_re_split():
    deltas = plan_rebalance(
        {"donor": 4.0, "sunk": -10.0, "strained": -10.0},
        {"sunk": 5.0},
        transfer_fraction=1.0,
    )
    # 4 J split over both needers is 2 J each, below sunk's 5 J
    # overdraft: sunk gets nothing, strained gets all 4 J.
    assert deltas == {"donor": -4.0, "sunk": 0.0, "strained": 4.0}


def accountant(budget_j, spent_j=0.0):
    account = BudgetAccountant(EnergyGoal(total_work=10.0, budget_j=budget_j))
    account.record(1.0, spent_j)
    return account


def test_apply_skips_zero_deltas_and_unknown_accounts():
    accountants = {"a": accountant(10.0), "b": accountant(10.0)}
    applied = apply_rebalance_plan(
        accountants, {"a": -2.0, "b": 2.0, "gone": 1.0, "z": 0.0}
    )
    assert applied == {"a": -2.0, "b": 2.0}
    assert accountants["a"].effective_budget_j == 8.0
    assert accountants["b"].effective_budget_j == 12.0


def test_a_rejected_donation_mid_plan_leaves_every_budget_as_it_was():
    # "b" has spent 9 of its 10 J: reclaiming 5 J from it breaks the
    # accountant's contract after "a"'s donation was already applied.
    accountants = {
        "a": accountant(10.0),
        "b": accountant(10.0, spent_j=9.0),
        "c": accountant(10.0),
    }
    before = {k: v.effective_budget_j for k, v in accountants.items()}
    with pytest.raises(ContractError):
        apply_rebalance_plan(accountants, {"a": -1.0, "b": -5.0, "c": 6.0})
    after = {k: v.effective_budget_j for k, v in accountants.items()}
    assert after == before


def test_a_rejection_inside_the_coordinator_rolls_back(monkeypatch):
    runtimes = {
        "video": make_runtime("video", 1000.0, 100, seed=1),
        "search": make_runtime("search", 1000.0, 100, seed=2),
    }
    coordinator = MultiAppCoordinator(runtimes, rebalance_period=1000)
    # video runs far under its budget, search far over: a transfer
    # from video to search is planned.
    for name, energy_j in (("video", 1.0), ("search", 40.0)):
        coordinator.step(
            name,
            Measurement(
                work=1.0, energy_j=energy_j, rate=10.0, power_w=energy_j
            ),
        )
    before = {
        name: runtime.accountant.effective_budget_j
        for name, runtime in runtimes.items()
    }

    def reject(delta_j):
        raise ContractError("injected rejection")

    monkeypatch.setattr(runtimes["search"].accountant, "adjust_budget", reject)
    with pytest.raises(ContractError):
        coordinator.rebalance()
    after = {
        name: runtime.accountant.effective_budget_j
        for name, runtime in runtimes.items()
    }
    assert after == before
    assert coordinator.rebalances == 0

