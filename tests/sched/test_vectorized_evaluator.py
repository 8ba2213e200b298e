"""Batch evaluation vs one schedule at a time (exact equality).

``evaluate_batch`` designs a whole batch's controllers in one lockstep
kernel call; it must return the *same* evaluations as evaluating each
schedule on its own — a design's bits never depend on the batch it
rides in, so these tests assert ``==``, never ``approx``.
"""

import math

import numpy as np
import pytest

from repro.apps import build_case_study
from repro.errors import ScheduleError
from repro.sched import PeriodicSchedule, ScheduleEvaluator
from repro.sched.engine import SearchEngine


def _assert_batches_identical(one_by_one, batched):
    assert len(one_by_one) == len(batched)
    for expected, got in zip(one_by_one, batched):
        assert got.schedule.counts == expected.schedule.counts
        assert got.overall == expected.overall
        assert got.idle_ok == expected.idle_ok
        assert got.feasible == expected.feasible
        for app_e, app_g in zip(expected.apps, got.apps):
            assert app_g.settling == app_e.settling
            assert app_g.performance == app_e.performance
            assert np.array_equal(app_g.design.gains, app_e.design.gains)
            assert np.array_equal(
                app_g.design.feedforward, app_e.design.feedforward
            )
            assert app_g.design.objective == app_e.design.objective
            assert app_g.design.n_evaluations == app_e.design.n_evaluations


@pytest.fixture(scope="module")
def case():
    return build_case_study()


def _pair(case, options):
    """Fresh (one-by-one, batched) evaluators over the same problem."""
    return (
        ScheduleEvaluator(case.apps, case.clock, options),
        ScheduleEvaluator(case.apps, case.clock, options),
    )


def _one_by_one(evaluator, schedules):
    return [evaluator.evaluate(schedule) for schedule in schedules]


class TestBatchEdgeCases:
    def test_empty_batch(self, case, tiny_design_options):
        alone, batched = _pair(case, tiny_design_options)
        assert _one_by_one(alone, []) == []
        assert batched.evaluate_batch([]) == []
        assert batched.n_designs == 0

    def test_single_candidate(self, case, tiny_design_options):
        alone, batched = _pair(case, tiny_design_options)
        schedules = [PeriodicSchedule((1, 1, 1))]
        _assert_batches_identical(
            _one_by_one(alone, schedules),
            batched.evaluate_batch(schedules),
        )
        assert alone.n_designs == batched.n_designs

    def test_infeasible_candidates_mixed_into_batch(
        self, case, tiny_design_options
    ):
        """Idle-infeasible schedules ride along without poisoning the rest."""
        alone, batched = _pair(case, tiny_design_options)
        schedules = [
            PeriodicSchedule((1, 1, 1)),
            PeriodicSchedule((10, 10, 10)),  # violates every max_idle
            PeriodicSchedule((2, 1, 1)),
        ]
        alone_results = _one_by_one(alone, schedules)
        batched_results = batched.evaluate_batch(schedules)
        _assert_batches_identical(alone_results, batched_results)
        assert not batched_results[1].idle_ok
        assert not batched_results[1].feasible
        assert batched_results[0].idle_ok

    def test_non_uniform_horizon_lengths(self, case, tiny_design_options):
        """Schedules with very different periods (and thus simulation
        horizons) fuse into one batch without cross-talk."""
        alone, batched = _pair(case, tiny_design_options)
        schedules = [
            PeriodicSchedule(counts)
            for counts in [(1, 1, 1), (3, 1, 2), (1, 3, 1), (2, 2, 3)]
        ]
        _assert_batches_identical(
            _one_by_one(alone, schedules),
            batched.evaluate_batch(schedules),
        )
        assert alone.n_designs == batched.n_designs

    def test_wrong_app_count_raises_in_order(self, case, tiny_design_options):
        _, batched = _pair(case, tiny_design_options)
        with pytest.raises(ScheduleError):
            batched.evaluate_batch(
                [PeriodicSchedule((1, 1, 1)), PeriodicSchedule((1, 1))]
            )

    def test_batch_then_single_reuses_cache(self, case, tiny_design_options):
        _, batched = _pair(case, tiny_design_options)
        [batch_result] = batched.evaluate_batch(
            [PeriodicSchedule((1, 2, 1))]
        )
        designs = batched.n_designs
        single = batched.evaluate(PeriodicSchedule((1, 2, 1)))
        assert single is batch_result
        assert batched.n_designs == designs


class TestAnalyticPlatform:
    def test_analytic_wcet_model_identical_and_float64(
        self, tiny_design_options
    ):
        """The analytic WCET model feeds non-integral WCETs into the
        timing; the batched path must stay bitwise identical and all
        results must stay double precision."""
        case = build_case_study(wcet_method="analytic")
        alone, batched = _pair(case, tiny_design_options)
        schedules = [
            PeriodicSchedule((1, 1, 1)),
            PeriodicSchedule((2, 1, 2)),
        ]
        alone_results = _one_by_one(alone, schedules)
        batched_results = batched.evaluate_batch(schedules)
        _assert_batches_identical(alone_results, batched_results)
        for result in batched_results:
            assert isinstance(result.overall, float)
            for app in result.apps:
                assert app.design.gains.dtype == np.float64
                assert app.design.feedforward.dtype == np.float64
                assert isinstance(app.performance, float)
                assert math.isfinite(app.performance) or app.performance == -math.inf


class TestEngineIntegration:
    def test_serial_backend_uses_vectorized_batches(
        self, case, tiny_design_options
    ):
        alone, batched = _pair(case, tiny_design_options)
        schedules = [
            PeriodicSchedule(counts)
            for counts in [(1, 1, 1), (2, 1, 1), (1, 2, 1)]
        ]
        with SearchEngine(batched) as engine:
            assert engine.backend_name == "serial"
            _assert_batches_identical(
                _one_by_one(alone, schedules), engine.evaluate_batch(schedules)
            )
