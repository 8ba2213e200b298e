"""Simulated-annealing baseline for the schedule search.

The paper motivates its hybrid algorithm by contrasting gradient methods
(cheap but easily trapped) with simulated annealing (robust but
evaluation-hungry).  This module provides the SA end of that spectrum so
the trade-off can be measured (ablation A1/A2 territory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import SearchError
from .evaluator import ScheduleEvaluator
from .results import SearchResult, SearchTrace
from .schedule import PeriodicSchedule


@dataclass(frozen=True)
class AnnealingOptions:
    """Standard geometric-cooling SA parameters."""

    initial_temperature: float = 0.05
    cooling: float = 0.92
    steps_per_temperature: int = 4
    n_temperatures: int = 24
    seed: int = 2018

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0:
            raise SearchError("initial temperature must be positive")
        if not 0 < self.cooling < 1:
            raise SearchError(f"cooling must be in (0, 1), got {self.cooling}")


def annealing_search(
    evaluator: ScheduleEvaluator,
    start: PeriodicSchedule,
    idle_feasible_fn,
    options: AnnealingOptions | None = None,
) -> SearchResult:
    """Simulated annealing from ``start`` (maximizing overall performance)."""
    options = options or AnnealingOptions()
    rng = np.random.default_rng(options.seed)
    if not idle_feasible_fn(start):
        raise SearchError(f"start schedule {start} violates the idle-time bound")

    requested: set[tuple[int, ...]] = set()

    def value(schedule: PeriodicSchedule) -> float:
        requested.add(schedule.counts)
        return evaluator.evaluate(schedule).overall

    trace = SearchTrace(start=start)
    current = start
    current_value = value(current)
    trace.path.append((current, current_value))
    start_eval = evaluator.evaluate(current)
    best_eval = start_eval if start_eval.feasible else None

    temperature = options.initial_temperature
    for _ in range(options.n_temperatures):
        for _ in range(options.steps_per_temperature):
            neighbors = [
                n for n in current.neighbors() if idle_feasible_fn(n)
            ]
            if not neighbors:
                break
            candidate = neighbors[int(rng.integers(0, len(neighbors)))]
            if getattr(evaluator, "speculative", False) and not evaluator.is_cached(
                candidate
            ):
                # Parallel engine: SA is inherently sequential, but the
                # candidate's evaluation round has idle workers, so let
                # uncached sibling neighbors ride along — the walk often
                # picks them in later steps, and they then come from the
                # memo.  The batch is capped at the worker count so the
                # speculation never extends the round the candidate
                # costs anyway.  Results are identical to a serial walk.
                budget = max(int(getattr(evaluator, "workers", 2)), 2)
                speculated = [
                    n
                    for n in neighbors
                    if n.counts != candidate.counts and not evaluator.is_cached(n)
                ]
                evaluator.evaluate_batch([candidate] + speculated[: budget - 1])
            candidate_eval = evaluator.evaluate_batch([candidate])[0]
            requested.add(candidate.counts)
            if not candidate_eval.feasible:
                continue
            # Track the best over *every* evaluated feasible candidate,
            # accepted or not: a Metropolis rejection must never make SA
            # forget an optimum it already paid to evaluate (the start
            # may be settling-infeasible with a finite value, so a
            # feasible candidate can be rejected while best is unset).
            if best_eval is None or candidate_eval.overall > best_eval.overall:
                best_eval = candidate_eval
            delta = candidate_eval.overall - (
                current_value if math.isfinite(current_value) else -1e9
            )
            if delta >= 0 or rng.random() < math.exp(delta / temperature):
                current = candidate
                current_value = candidate_eval.overall
                trace.path.append((current, current_value))
        temperature *= options.cooling

    if best_eval is None:
        raise SearchError("annealing never visited a feasible schedule")
    trace.n_evaluations = len(requested)
    return SearchResult(
        best=best_eval,
        n_evaluations=trace.n_evaluations,
        traces=[trace],
    )
