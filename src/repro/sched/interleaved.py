"""Interleaved-schedule extension (the paper's Section VI future work).

The paper asks whether general interleaved schedules such as
``(m_1(1), m_2, m_1(2), m_3)`` — an application's tasks split into
several bursts per period — can beat the plain periodic schedules, at
the price of a much larger search space.  This module provides:

* evaluation of an :class:`~repro.sched.schedule.InterleavedSchedule`
  with the same holistic design machinery (timing via
  :func:`~repro.sched.timing.derive_timing_interleaved`);
* enumeration of every interleaving that splits a given periodic
  schedule's per-application counts into bursts;
* a small search answering the paper's question for a given base count
  vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from ..control.design import DesignOptions
from ..core.application import ControlApplication
from ..core.performance import performance_index
from ..errors import ScheduleError
from ..units import Clock
from .evaluator import DesignCache
from .schedule import InterleavedSchedule, PeriodicSchedule
from .timing import ScheduleTiming, derive_timing_interleaved


@dataclass
class InterleavedEvaluation:
    """Evaluation of one interleaved schedule."""

    schedule: InterleavedSchedule
    timing: ScheduleTiming
    settling: list[float]
    performances: list[float]
    overall: float
    idle_ok: bool

    @property
    def feasible(self) -> bool:
        """Idle-time and settling-deadline feasibility."""
        return self.idle_ok and all(p >= 0 for p in self.performances)


class InterleavedEvaluator:
    """Memoizing evaluator for interleaved schedules.

    Each schedule's controller designs are computed as one batch through
    the periodic evaluator's :class:`~repro.sched.evaluator.DesignCache`.
    """

    def __init__(
        self,
        apps: list[ControlApplication],
        clock: Clock,
        design_options: DesignOptions | None = None,
    ) -> None:
        self.apps = list(apps)
        self.clock = clock
        self.design_options = design_options or DesignOptions()
        self._designs = DesignCache(self.apps, self.design_options)

    def evaluate(self, schedule: InterleavedSchedule) -> InterleavedEvaluation:
        """Holistic design + performance for one interleaved schedule."""
        timing = derive_timing_interleaved(
            schedule, [app.wcets for app in self.apps], self.clock
        )
        idle_ok = all(
            app_timing.max_period <= app.max_idle + 1e-15
            for app_timing, app in zip(timing.apps, self.apps)
        )
        pairs = [(i, timing.for_app(i)) for i in range(len(self.apps))]
        self._designs.prefetch(pairs)
        settling = []
        performances = []
        for (i, app_timing), app in zip(pairs, self.apps):
            design = self._designs.get(i, app_timing)
            settled = design.settling if design.satisfies(app.spec) else math.inf
            settling.append(settled)
            performances.append(performance_index(settled, app.spec.deadline))
        if any(not math.isfinite(p) for p in performances):
            overall = -math.inf
        else:
            overall = float(
                sum(app.weight * p for app, p in zip(self.apps, performances))
            )
        return InterleavedEvaluation(
            schedule=schedule,
            timing=timing,
            settling=settling,
            performances=performances,
            overall=overall,
            idle_ok=idle_ok,
        )


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of ``total`` into exactly ``parts`` positives."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def enumerate_interleavings(
    base: PeriodicSchedule,
    max_schedules: int = 2000,
) -> list[InterleavedSchedule]:
    """All interleavings splitting ``base``'s counts into bursts.

    Every application keeps its total task count per period; the
    enumeration varies how the counts split into bursts and how bursts
    interleave (no two adjacent bursts of one application, cyclically).
    The plain periodic arrangement is included (as the one-burst-per-app
    interleaving).
    """
    n = base.n_apps
    results: list[InterleavedSchedule] = []
    seen: set[tuple[tuple[int, int], ...]] = set()

    def burst_sequences(remaining: dict[int, int], sequence: list[int]) -> Iterator[list[int]]:
        if all(v == 0 for v in remaining.values()):
            if sequence and (len(sequence) == 1 or sequence[0] != sequence[-1]):
                yield list(sequence)
            return
        for app in range(n):
            if remaining[app] == 0:
                continue
            if sequence and sequence[-1] == app:
                continue
            remaining[app] -= 1
            sequence.append(app)
            yield from burst_sequences(remaining, sequence)
            sequence.pop()
            remaining[app] += 1

    # Choose the number of bursts per app (1 .. count), then the burst
    # order, then the sizes (a composition per app, consumed in order).
    def all_burst_counts() -> Iterator[tuple[int, ...]]:
        ranges = [range(1, base.counts[i] + 1) for i in range(n)]

        def recurse(index: int, chosen: list[int]) -> Iterator[tuple[int, ...]]:
            if index == n:
                yield tuple(chosen)
                return
            for k in ranges[index]:
                chosen.append(k)
                yield from recurse(index + 1, chosen)
                chosen.pop()

        yield from recurse(0, [])

    for burst_counts in all_burst_counts():
        compositions = [
            list(_compositions(base.counts[i], burst_counts[i])) for i in range(n)
        ]
        remaining = {i: burst_counts[i] for i in range(n)}
        for order in burst_sequences(remaining, []):
            # Assign each app's composition parts along the order.
            def assign(app_compositions: list[list[tuple[int, ...]]]) -> Iterator[tuple[tuple[int, int], ...]]:
                choices = [app_compositions[i] for i in range(n)]

                def recurse(index: int, picked: list[tuple[int, ...]]) -> Iterator[tuple[tuple[int, int], ...]]:
                    if index == n:
                        counters = [0] * n
                        bursts = []
                        for app in order:
                            bursts.append((app, picked[app][counters[app]]))
                            counters[app] += 1
                        yield tuple(bursts)
                        return
                    for option in choices[index]:
                        picked.append(option)
                        yield from recurse(index + 1, picked)
                        picked.pop()

                yield from recurse(0, [])

            for bursts in assign(compositions):
                if bursts in seen:
                    continue
                seen.add(bursts)
                try:
                    results.append(InterleavedSchedule(n, bursts))
                except ScheduleError:
                    continue
                if len(results) >= max_schedules:
                    return results
    return results


@dataclass
class InterleavedSearchResult:
    """Answer to the paper's future-work question for one count vector."""

    base: PeriodicSchedule
    base_evaluation: InterleavedEvaluation
    best: InterleavedEvaluation
    n_evaluated: int

    @property
    def interleaving_helps(self) -> bool:
        """Whether some true interleaving beats the periodic arrangement."""
        return (
            len(self.best.schedule.bursts) > self.base.n_apps
            and self.best.overall > self.base_evaluation.overall
        )


def search_interleavings(
    apps: list[ControlApplication],
    clock: Clock,
    base: PeriodicSchedule,
    design_options: DesignOptions | None = None,
    max_schedules: int = 200,
) -> InterleavedSearchResult:
    """Evaluate all interleavings of ``base`` and return the best."""
    evaluator = InterleavedEvaluator(apps, clock, design_options)
    candidates = enumerate_interleavings(base, max_schedules)
    base_eval = evaluator.evaluate(InterleavedSchedule.from_periodic(base))
    best = base_eval
    count = 0
    for candidate in candidates:
        evaluation = evaluator.evaluate(candidate)
        count += 1
        if evaluation.feasible and evaluation.overall > best.overall:
            best = evaluation
    return InterleavedSearchResult(
        base=base,
        base_evaluation=base_eval,
        best=best,
        n_evaluated=count,
    )
