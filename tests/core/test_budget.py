"""Tests for energy goals and budget accounting."""

import pytest

from repro.core.budget import PAPER_FACTORS, BudgetAccountant, EnergyGoal


class TestEnergyGoal:
    def test_paper_factor_sweep(self):
        assert PAPER_FACTORS == (1.1, 1.2, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0)

    def test_from_factor(self):
        goal = EnergyGoal.from_factor(
            2.0, total_work=100.0, default_energy_per_work=4.0
        )
        assert goal.budget_j == pytest.approx(200.0)
        assert goal.energy_per_work == pytest.approx(2.0)

    def test_factor_one_is_default_energy(self):
        goal = EnergyGoal.from_factor(1.0, 10.0, 3.0)
        assert goal.budget_j == pytest.approx(30.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyGoal.from_factor(0.5, 10.0, 1.0)
        with pytest.raises(ValueError):
            EnergyGoal.from_factor(2.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            EnergyGoal(total_work=0.0, budget_j=1.0)


class TestBudgetAccountant:
    @pytest.fixture
    def accountant(self):
        return BudgetAccountant(EnergyGoal(total_work=10.0, budget_j=100.0))

    def test_initial_target_is_average(self, accountant):
        assert accountant.target_energy_per_work() == pytest.approx(10.0)

    def test_underspending_raises_target(self, accountant):
        accountant.record(work=5.0, energy_j=20.0)
        # 80 J left for 5 work units.
        assert accountant.target_energy_per_work() == pytest.approx(16.0)

    def test_overspending_lowers_target(self, accountant):
        accountant.record(work=5.0, energy_j=80.0)
        assert accountant.target_energy_per_work() == pytest.approx(4.0)

    def test_exhausted_budget_gives_zero_target(self, accountant):
        accountant.record(work=5.0, energy_j=150.0)
        assert accountant.target_energy_per_work() == 0.0
        assert accountant.exhausted

    def test_complete_run_gives_none(self, accountant):
        accountant.record(work=10.0, energy_j=50.0)
        assert accountant.target_energy_per_work() is None
        assert accountant.complete
        assert not accountant.exhausted

    def test_remaining_clamped_at_zero(self, accountant):
        accountant.record(work=12.0, energy_j=120.0)
        assert accountant.remaining_work == 0.0
        assert accountant.remaining_energy_j == 0.0

    def test_overall_energy_per_work(self, accountant):
        accountant.record(2.0, 30.0)
        accountant.record(2.0, 10.0)
        assert accountant.overall_energy_per_work == pytest.approx(10.0)

    def test_overall_requires_work(self, accountant):
        with pytest.raises(ValueError):
            _ = accountant.overall_energy_per_work

    def test_energy_trace_records_each_iteration(self, accountant):
        # The accountant keeps tallies, not a per-iteration list; each
        # record() moves the tallies by exactly that iteration's values.
        trace = []
        for energy_j in (5.0, 7.0):
            before = accountant.energy_used_j
            accountant.record(1.0, energy_j)
            trace.append(accountant.energy_used_j - before)
        assert trace == [5.0, 7.0]
        assert accountant.work_done == 2.0
        assert not hasattr(accountant, "energy_trace")

    def test_negative_inputs_rejected(self, accountant):
        with pytest.raises(ValueError):
            accountant.record(-1.0, 1.0)
        with pytest.raises(ValueError):
            accountant.record(1.0, -1.0)

    def test_meeting_target_exactly_preserves_target(self, accountant):
        for _ in range(5):
            target = accountant.target_energy_per_work()
            accountant.record(1.0, target)
        assert accountant.target_energy_per_work() == pytest.approx(10.0)
