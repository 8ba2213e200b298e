"""A fake search engine for feedback-loop tests.

The real :class:`repro.sched.engine.SearchEngine` designs controllers
(seconds per schedule); the feedback loop only needs ``apps``,
``clock``, ``stats``, and ``evaluate(schedule)`` returning an object
with ``schedule`` / ``overall`` / ``feasible`` / per-app evaluations.
This fake computes a cheap analytic landscape over the *real* case-study
applications, so the demand-scaled feasibility math is exercised
against genuine idle budgets while each evaluation stays instant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sched.feasibility import idle_feasible
from repro.sched.schedule import PeriodicSchedule


@dataclass(frozen=True)
class FakeAppEvaluation:
    name: str
    settling: float
    performance: float


@dataclass(frozen=True)
class FakeEvaluation:
    schedule: PeriodicSchedule
    overall: float
    feasible: bool
    apps: tuple[FakeAppEvaluation, ...]


class FakeStats:
    def __init__(self) -> None:
        self.n_requested = 0
        self.n_memo_hits = 0
        self.n_disk_hits = 0
        self.n_duplicates = 0
        self.n_computed = 0

    def as_dict(self) -> dict:
        return {
            "n_requested": self.n_requested,
            "n_memo_hits": self.n_memo_hits,
            "n_disk_hits": self.n_disk_hits,
            "n_duplicates": self.n_duplicates,
            "n_computed": self.n_computed,
        }


class FakeSimEngine:
    """Analytic landscape over real applications, memoized like the engine.

    ``overall`` peaks at ``peak`` (default ``(2, 2, 2)``, the case
    study's static optimum) and every idle-feasible schedule is
    deadline-feasible, so the loop's behaviour depends only on the
    demand-scaled idle constraint — exactly what the tests pin down.
    """

    def __init__(self, apps, clock, peak: tuple[int, ...] = (2, 2, 2)) -> None:
        self.apps = list(apps)
        self.clock = clock
        self.peak = peak
        self.stats = FakeStats()
        self._memo: dict[tuple[int, ...], FakeEvaluation] = {}

    def evaluate(self, schedule: PeriodicSchedule) -> FakeEvaluation:
        self.stats.n_requested += 1
        key = schedule.counts
        if key in self._memo:
            self.stats.n_memo_hits += 1
            return self._memo[key]
        self.stats.n_computed += 1
        overall = 1.0 - 0.05 * sum(
            (c - p) ** 2 for c, p in zip(key, self.peak)
        )
        evaluation = FakeEvaluation(
            schedule=schedule,
            overall=overall,
            feasible=idle_feasible(schedule, self.apps, self.clock),
            apps=tuple(
                FakeAppEvaluation(app.name, 0.01 * (i + 1), overall)
                for i, app in enumerate(self.apps)
            ),
        )
        self._memo[key] = evaluation
        return evaluation

    def evaluate_batch(self, schedules: list[PeriodicSchedule]) -> list[FakeEvaluation]:
        return [self.evaluate(schedule) for schedule in schedules]
