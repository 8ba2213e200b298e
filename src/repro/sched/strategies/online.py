"""The ``online`` strategy: incremental re-optimization at runtime.

Where the offline strategies explore the schedule space from scratch,
``online`` is built for the feedback loop's re-optimization step: warm
starts (the incumbent schedule and the static optimum, projected onto
the currently-feasible region) and a short greedy neighborhood climb.
Almost every candidate it touches was already designed during the
static search, so on a warm :class:`~repro.sched.engine.SearchEngine`
an adaptation costs memo/disk hits instead of fresh co-design work —
the property ``benchmarks/bench_online_adaptation.py`` gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ...errors import SearchError
from ..evaluator import ScheduleEvaluation
from ..results import SearchResult, SearchTrace
from ..schedule import PeriodicSchedule
from .base import (
    StrategySpec,
    feasibility_fn,
    random_starts,
    register_strategy,
    resolve_options,
)


@dataclass(frozen=True)
class OnlineOptions:
    """Knobs of the online neighborhood re-optimization."""

    #: Cap on greedy improvement rounds (each evaluates the incumbent's
    #: unvisited feasible neighbors as one batch).
    max_rounds: int = 32


def _nearest(
    start: PeriodicSchedule, allowed: Sequence[PeriodicSchedule]
) -> PeriodicSchedule:
    """Project ``start`` onto the feasible region (L1-nearest counts;
    ties break lexicographically, so projections are deterministic)."""
    return min(
        allowed,
        key=lambda s: (
            sum(abs(a - b) for a, b in zip(s.counts, start.counts)),
            s.counts,
        ),
    )


@register_strategy
class OnlineStrategy:
    """Warm-started greedy neighborhood search for runtime adaptation."""

    name = "online"
    options_type = OnlineOptions

    def run(
        self, engine, space: Sequence[PeriodicSchedule], spec: StrategySpec
    ) -> SearchResult:
        options = resolve_options(self, spec)
        feasible = feasibility_fn(engine, spec)
        allowed = [schedule for schedule in space if feasible(schedule)]
        if not allowed:
            raise SearchError(
                "no schedule in the space satisfies the feasibility "
                "constraint (runtime load exceeds every idle budget)"
            )
        allowed_counts = {schedule.counts for schedule in allowed}
        starts = list(spec.starts) if spec.starts else random_starts(space, spec)
        seeds: list[PeriodicSchedule] = []
        for start in starts:
            seed = (
                start if start.counts in allowed_counts else _nearest(start, allowed)
            )
            if all(seed.counts != other.counts for other in seeds):
                seeds.append(seed)

        visited = {seed.counts for seed in seeds}
        evaluations = engine.evaluate_batch(seeds)
        n_evaluations = len(evaluations)
        best: ScheduleEvaluation | None = None
        for evaluation in evaluations:
            if evaluation.feasible and (
                best is None or evaluation.overall > best.overall
            ):
                best = evaluation
        # Climb from the best seed by overall score even if no seed is
        # deadline-feasible — a feasible neighbor may still be reachable.
        incumbent = max(evaluations, key=lambda e: e.overall)
        trace = SearchTrace(
            start=incumbent.schedule,
            path=[(incumbent.schedule, incumbent.overall)],
        )
        for _ in range(options.max_rounds):
            neighbors = [
                neighbor
                for neighbor in incumbent.schedule.neighbors()
                if neighbor.counts in allowed_counts
                and neighbor.counts not in visited
            ]
            if not neighbors:
                break
            visited.update(neighbor.counts for neighbor in neighbors)
            batch = engine.evaluate_batch(neighbors)
            n_evaluations += len(batch)
            for evaluation in batch:
                if evaluation.feasible and (
                    best is None or evaluation.overall > best.overall
                ):
                    best = evaluation
            candidate = max(batch, key=lambda e: e.overall)
            if candidate.overall <= incumbent.overall:
                break
            incumbent = candidate
            trace.path.append((candidate.schedule, candidate.overall))
        trace.n_evaluations = n_evaluations
        if best is None:
            raise SearchError(
                "online search found no deadline-feasible schedule under "
                "the current load"
            )
        return SearchResult(
            best=best, n_evaluations=n_evaluations, traces=[trace]
        )
