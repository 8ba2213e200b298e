"""End-to-end integration tests (quick design profile).

These exercise the complete pipeline the paper describes: programs ->
cache/WCET analysis -> schedule timing -> holistic design -> overall
performance -> schedule search.
"""

import pytest

from repro import (
    PeriodicSchedule,
    build_case_study,
)
from repro.sched import hybrid_search, idle_feasible


@pytest.fixture(scope="module")
def problem(quick_design_options_module):
    return build_case_study().evaluator(quick_design_options_module)


@pytest.fixture(scope="module")
def quick_design_options_module():
    from repro.control.design import DesignOptions
    from repro.control.pso import PsoOptions

    return DesignOptions(restarts=1, stage_a=PsoOptions(10, 10), stage_b=PsoOptions(12, 10))


class TestEndToEnd:
    def test_cache_aware_schedule_beats_round_robin(self, problem):
        """The paper's core claim, end to end from instruction programs."""
        rr = problem.evaluate(PeriodicSchedule.of(1, 1, 1))
        ca = problem.evaluate(PeriodicSchedule.of(2, 2, 2))
        assert rr.feasible and ca.feasible
        assert ca.overall > rr.overall

    def test_all_constraints_respected_at_optimum(self, problem):
        evaluation = problem.evaluate(PeriodicSchedule.of(2, 2, 2))
        case_apps = problem.apps
        for app, app_eval in zip(case_apps, evaluation.apps):
            assert app_eval.settling <= app.spec.deadline  # eq. (3)
            assert app_eval.timing.max_period <= app.max_idle + 1e-15  # eq. (4)
            assert app_eval.design.u_peak <= app.spec.u_max + 1e-9  # saturation
            assert app_eval.design.stable

    def test_hybrid_search_from_paper_starts(self, problem):
        """Both of the paper's start points must reach a common optimum
        using far fewer evaluations than the 77-schedule space."""
        result = hybrid_search(
            problem,
            [PeriodicSchedule.of(4, 2, 2), PeriodicSchedule.of(1, 2, 1)],
            lambda schedule: idle_feasible(schedule, problem.apps, problem.clock),
        )
        assert result.best.feasible
        ends = {trace.end.counts for trace in result.traces}
        assert len(ends) == 1  # both converge to the same schedule
        for trace in result.traces:
            assert trace.n_evaluations < 40

    def test_timing_consistency_across_layers(self, problem):
        """The gap in the evaluator's timing equals eq. (6)'s Delta."""
        evaluation = problem.evaluate(PeriodicSchedule.of(3, 2, 3))
        c1 = evaluation.timing.for_app(0)
        assert c1.periods[-1] == pytest.approx(2490.25e-6)
        assert evaluation.timing.hyperperiod == pytest.approx(3849.95e-6)

    def test_more_consecutive_tasks_shorten_average_period(self, problem):
        rr = problem.evaluate(PeriodicSchedule.of(1, 1, 1))
        ca = problem.evaluate(PeriodicSchedule.of(3, 2, 3))
        rr_mean = rr.timing.for_app(0).hyperperiod / rr.timing.for_app(0).n_tasks
        ca_mean = ca.timing.for_app(0).hyperperiod / ca.timing.for_app(0).n_tasks
        assert ca_mean < rr_mean
