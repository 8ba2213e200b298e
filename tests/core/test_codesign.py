"""Tests for the two-stage co-design facade (quick design profile)."""

import pytest

from repro.core import CodesignProblem
from repro.errors import ConfigurationError
from repro.sched import PeriodicSchedule


@pytest.fixture(scope="module")
def problem():
    from repro.apps import build_case_study
    from repro.control.design import DesignOptions
    from repro.control.pso import PsoOptions

    case = build_case_study()
    quick = DesignOptions(restarts=1, stage_a=PsoOptions(10, 10), stage_b=PsoOptions(12, 10))
    return CodesignProblem(case.apps, case.clock, quick)


class TestStageOne:
    def test_evaluate_and_cache(self, problem):
        first = problem.evaluate(PeriodicSchedule.of(1, 1, 1))
        second = problem.evaluate(PeriodicSchedule.of(1, 1, 1))
        assert first is second
        assert first.feasible

    def test_schedule_space_cached(self, problem):
        space1 = problem.schedule_space()
        space2 = problem.schedule_space()
        assert space1 == space2
        assert len(space1) == 77

    def test_idle_feasible(self, problem):
        assert problem.idle_feasible(PeriodicSchedule.of(3, 2, 3))
        assert not problem.idle_feasible(PeriodicSchedule.of(9, 9, 9))


class TestStageTwo:
    def test_hybrid_with_explicit_starts(self, problem):
        result = problem.optimize(
            strategy="hybrid",
            starts=[PeriodicSchedule.of(2, 2, 2)],
        )
        assert result.strategy == "hybrid"
        assert result.search.best.feasible
        assert result.best_overall >= problem.evaluate(PeriodicSchedule.of(2, 2, 2)).overall - 1e-12

    def test_hybrid_random_starts_deterministic(self, problem):
        a = problem.optimize(strategy="hybrid", n_starts=1, seed=3)
        b = problem.optimize(strategy="hybrid", n_starts=1, seed=3)
        assert a.best_schedule == b.best_schedule

    def test_annealing_runs(self, problem):
        result = problem.optimize(
            strategy="annealing", starts=[PeriodicSchedule.of(1, 1, 1)]
        )
        assert result.search.best.feasible

    def test_unknown_strategy_rejected(self, problem):
        with pytest.raises(ConfigurationError) as excinfo:
            problem.optimize(strategy="oracle")
        assert "hybrid" in str(excinfo.value)


class TestComparison:
    def test_compare_produces_table3_rows(self, problem):
        rows = problem.compare(
            PeriodicSchedule.of(1, 1, 1), PeriodicSchedule.of(2, 2, 2)
        )
        assert [row.app_name for row in rows] == ["C1", "C2", "C3"]
        for row in rows:
            assert row.settling_baseline > 0
            assert row.improvement == pytest.approx(
                1 - row.settling_candidate / row.settling_baseline
            )
