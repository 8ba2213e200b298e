"""Tests for the exhaustive and simulated-annealing baselines."""

import json

import pytest

from repro.errors import SearchError
from repro.sched import (
    AnnealingOptions,
    PeriodicSchedule,
    annealing_search,
    exhaustive_search,
)

from .fakes import FakeEvaluator, box_feasible, concave_peak


def small_space(limit=3, n=3):
    import itertools

    return [
        PeriodicSchedule(c)
        for c in itertools.product(range(1, limit + 1), repeat=n)
    ]


class TestExhaustive:
    def test_finds_global_optimum(self):
        evaluator = FakeEvaluator(concave_peak((2, 3, 1)))
        result = exhaustive_search(evaluator, schedules=small_space())
        assert result.best_schedule.counts == (2, 3, 1)
        assert result.n_evaluations == 27
        assert result.stats["n_enumerated"] == 27

    def test_stats_record_every_overall(self):
        space = small_space()
        evaluator = FakeEvaluator(concave_peak((1, 1, 1)))
        result = exhaustive_search(evaluator, schedules=space)
        overalls = result.stats["overalls"]
        assert list(overalls) == [schedule.text for schedule in space]
        assert overalls["1,1,1"] == max(overalls.values()) == result.best_value
        assert json.loads(json.dumps(result.stats)) == result.stats

    def test_counts_feasible_separately(self):
        bad = {(1, 1, 1), (2, 2, 2)}
        evaluator = FakeEvaluator(
            concave_peak((3, 3, 3)), feasible=lambda c: c not in bad
        )
        result = exhaustive_search(evaluator, schedules=small_space())
        assert result.stats["n_feasible"] == 25
        assert result.stats["infeasible"] == [[1, 1, 1], [2, 2, 2]]

    def test_empty_space_rejected(self):
        with pytest.raises(SearchError):
            exhaustive_search(FakeEvaluator(concave_peak((1, 1, 1))), schedules=[])

    def test_all_infeasible_rejected(self):
        evaluator = FakeEvaluator(concave_peak((1, 1, 1)), feasible=lambda c: False)
        with pytest.raises(SearchError):
            exhaustive_search(evaluator, schedules=small_space())


class TestAnnealing:
    def feasible_fn(self, limit=4):
        box = box_feasible(limit)
        return lambda schedule: box(schedule.counts)

    def test_finds_peak_on_unimodal_landscape(self):
        evaluator = FakeEvaluator(concave_peak((3, 2, 3)))
        result = annealing_search(
            evaluator,
            PeriodicSchedule.of(1, 1, 1),
            self.feasible_fn(),
            AnnealingOptions(seed=1),
        )
        assert result.best_schedule.counts == (3, 2, 3)

    def test_respects_feasibility(self):
        evaluator = FakeEvaluator(concave_peak((6, 1, 1)))
        result = annealing_search(
            evaluator,
            PeriodicSchedule.of(1, 1, 1),
            self.feasible_fn(2),
            AnnealingOptions(seed=3),
        )
        assert all(c <= 2 for c in result.best_schedule.counts)

    def test_deterministic_for_seed(self):
        runs = []
        for _ in range(2):
            evaluator = FakeEvaluator(concave_peak((2, 3, 2)))
            result = annealing_search(
                evaluator,
                PeriodicSchedule.of(1, 1, 1),
                self.feasible_fn(),
                AnnealingOptions(seed=7),
            )
            runs.append((result.best_schedule.counts, result.n_evaluations))
        assert runs[0] == runs[1]

    def test_metropolis_rejection_keeps_best_so_far(self):
        """Regression: a feasible candidate turned down by the Metropolis
        test must still update the best-so-far.  The start is
        idle-feasible but settling-infeasible with a *finite* value, so
        the walk can reject the only feasible schedule forever; the old
        code then returned "annealing never visited a feasible schedule"
        despite having evaluated the feasible optimum."""
        values = {(1, 1): 1.0, (2, 1): 0.3, (1, 2): 0.0, (2, 2): 0.0}
        evaluator = FakeEvaluator(
            lambda counts: values[counts],
            feasible=lambda counts: counts == (2, 1),
        )
        # Tiny temperature: exp(delta / T) underflows to zero for the
        # downhill move onto (2, 1), so it is rejected at every step
        # regardless of the seed.
        result = annealing_search(
            evaluator,
            PeriodicSchedule.of(1, 1),
            self.feasible_fn(2),
            AnnealingOptions(initial_temperature=1e-3, seed=0),
        )
        assert result.best_schedule.counts == (2, 1)
        assert result.best.overall == 0.3

    def test_infeasible_start_rejected(self):
        evaluator = FakeEvaluator(concave_peak((1, 1, 1)))
        with pytest.raises(SearchError):
            annealing_search(
                evaluator, PeriodicSchedule.of(9, 9, 9), self.feasible_fn(2)
            )

    def test_bad_options_rejected(self):
        with pytest.raises(SearchError):
            AnnealingOptions(initial_temperature=0.0)
        with pytest.raises(SearchError):
            AnnealingOptions(cooling=1.5)
