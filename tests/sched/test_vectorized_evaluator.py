"""The vectorized batch backend vs the serial oracle (exact equality).

``evaluate_batch`` with the default ``eval_backend="vectorized"`` must
return the *same* evaluations as the serial per-candidate loop — the
lockstep designer reproduces serial floating point bitwise, so these
tests assert ``==``, never ``approx``.
"""

import math

import numpy as np
import pytest

from repro.apps import build_case_study
from repro.errors import ScheduleError
from repro.sched import PeriodicSchedule, ScheduleEvaluator
from repro.sched.engine import SearchEngine


def _assert_batches_identical(serial, vectorized):
    assert len(serial) == len(vectorized)
    for expected, got in zip(serial, vectorized):
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
    """Fresh (serial, vectorized) evaluators over the same problem."""
    return (
        ScheduleEvaluator(
            case.apps, case.clock, options, eval_backend="serial"
        ),
        ScheduleEvaluator(case.apps, case.clock, options),
    )


class TestBackendSelection:
    def test_unknown_backend_rejected(self, case, tiny_design_options):
        with pytest.raises(ScheduleError):
            ScheduleEvaluator(
                case.apps,
                case.clock,
                tiny_design_options,
                eval_backend="gpu",
            )

    def test_backend_recorded(self, case, tiny_design_options):
        serial, vectorized = _pair(case, tiny_design_options)
        assert serial.eval_backend == "serial"
        assert vectorized.eval_backend == "vectorized"

    def test_for_subproblem_propagates_backend(self, case, tiny_design_options):
        sub = ScheduleEvaluator.for_subproblem(
            case.apps,
            case.clock,
            tiny_design_options,
            (0, 2),
            eval_backend="serial",
        )
        assert sub.eval_backend == "serial"
        assert (
            ScheduleEvaluator.for_subproblem(
                case.apps, case.clock, tiny_design_options, (0, 2)
            ).eval_backend
            == "vectorized"
        )


class TestBatchEdgeCases:
    def test_empty_batch(self, case, tiny_design_options):
        serial, vectorized = _pair(case, tiny_design_options)
        assert serial.evaluate_batch([]) == []
        assert vectorized.evaluate_batch([]) == []
        assert vectorized.n_designs == 0

    def test_single_candidate(self, case, tiny_design_options):
        serial, vectorized = _pair(case, tiny_design_options)
        schedules = [PeriodicSchedule((1, 1, 1))]
        _assert_batches_identical(
            serial.evaluate_batch(schedules),
            vectorized.evaluate_batch(schedules),
        )
        assert serial.n_designs == vectorized.n_designs

    def test_infeasible_candidates_mixed_into_batch(
        self, case, tiny_design_options
    ):
        """Idle-infeasible schedules ride along without poisoning the rest."""
        serial, vectorized = _pair(case, tiny_design_options)
        schedules = [
            PeriodicSchedule((1, 1, 1)),
            PeriodicSchedule((10, 10, 10)),  # violates every max_idle
            PeriodicSchedule((2, 1, 1)),
        ]
        serial_results = serial.evaluate_batch(schedules)
        vectorized_results = vectorized.evaluate_batch(schedules)
        _assert_batches_identical(serial_results, vectorized_results)
        assert not vectorized_results[1].idle_ok
        assert not vectorized_results[1].feasible
        assert vectorized_results[0].idle_ok

    def test_non_uniform_horizon_lengths(self, case, tiny_design_options):
        """Schedules with very different periods (and thus simulation
        horizons) fuse into one batch without cross-talk."""
        serial, vectorized = _pair(case, tiny_design_options)
        schedules = [
            PeriodicSchedule(counts)
            for counts in [(1, 1, 1), (3, 1, 2), (1, 3, 1), (2, 2, 3)]
        ]
        _assert_batches_identical(
            serial.evaluate_batch(schedules),
            vectorized.evaluate_batch(schedules),
        )
        assert serial.n_designs == vectorized.n_designs

    def test_wrong_app_count_raises_in_order(self, case, tiny_design_options):
        _, vectorized = _pair(case, tiny_design_options)
        with pytest.raises(ScheduleError):
            vectorized.evaluate_batch(
                [PeriodicSchedule((1, 1, 1)), PeriodicSchedule((1, 1))]
            )

    def test_batch_then_single_reuses_cache(self, case, tiny_design_options):
        _, vectorized = _pair(case, tiny_design_options)
        [batch_result] = vectorized.evaluate_batch(
            [PeriodicSchedule((1, 2, 1))]
        )
        designs = vectorized.n_designs
        single = vectorized.evaluate(PeriodicSchedule((1, 2, 1)))
        assert single is batch_result
        assert vectorized.n_designs == designs


class TestAnalyticPlatform:
    def test_analytic_wcet_model_identical_and_float64(
        self, tiny_design_options
    ):
        """The analytic WCET model feeds non-integral WCETs into the
        timing; the vectorized path must stay bitwise identical and all
        results must stay double precision."""
        case = build_case_study(wcet_method="analytic")
        serial, vectorized = _pair(case, tiny_design_options)
        schedules = [
            PeriodicSchedule((1, 1, 1)),
            PeriodicSchedule((2, 1, 2)),
        ]
        serial_results = serial.evaluate_batch(schedules)
        vectorized_results = vectorized.evaluate_batch(schedules)
        _assert_batches_identical(serial_results, vectorized_results)
        for result in vectorized_results:
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
        serial, vectorized = _pair(case, tiny_design_options)
        schedules = [
            PeriodicSchedule(counts)
            for counts in [(1, 1, 1), (2, 1, 1), (1, 2, 1)]
        ]
        with SearchEngine(vectorized) as engine:
            assert engine.backend_name == "serial"
            _assert_batches_identical(
                serial.evaluate_batch(schedules), engine.evaluate_batch(schedules)
            )
