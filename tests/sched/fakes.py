"""A fake schedule evaluator for search-algorithm tests.

The real evaluator runs PSO controller designs (seconds per schedule);
the search algorithms only need ``evaluate_batch(schedules)`` returning
objects with ``overall``, ``feasible`` and ``schedule`` — this fake
computes a cheap analytic landscape so search behaviour can be tested
exhaustively and deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sched.schedule import PeriodicSchedule


@dataclass(frozen=True)
class FakeEvaluation:
    schedule: PeriodicSchedule
    overall: float
    feasible: bool


class FakeEvaluator:
    """Duck-typed stand-in for :class:`repro.sched.evaluator.ScheduleEvaluator`."""

    def __init__(
        self,
        objective: Callable[[tuple[int, ...]], float],
        feasible: Callable[[tuple[int, ...]], bool] = lambda counts: True,
    ) -> None:
        self.objective = objective
        self.feasible = feasible
        self.calls: list[tuple[int, ...]] = []
        self._cache: dict[tuple[int, ...], FakeEvaluation] = {}

    def evaluate(self, schedule: PeriodicSchedule) -> FakeEvaluation:
        key = schedule.counts
        if key not in self._cache:
            self.calls.append(key)
            self._cache[key] = FakeEvaluation(
                schedule=schedule,
                overall=self.objective(key),
                feasible=self.feasible(key),
            )
        return self._cache[key]

    def evaluate_batch(self, schedules: list[PeriodicSchedule]) -> list[FakeEvaluation]:
        return [self.evaluate(schedule) for schedule in schedules]

    @property
    def n_schedule_evaluations(self) -> int:
        return len(self._cache)


def concave_peak(peak: tuple[int, ...]) -> Callable[[tuple[int, ...]], float]:
    """A smooth unimodal landscape maximized at ``peak``."""

    def objective(counts: tuple[int, ...]) -> float:
        return 1.0 - 0.05 * sum((c - p) ** 2 for c, p in zip(counts, peak))

    return objective


def box_feasible(limit: int) -> Callable[[tuple[int, ...]], bool]:
    """Idle-style feasibility: every count at most ``limit``."""
    return lambda counts: all(c <= limit for c in counts)
