"""The paper's hybrid search over the discrete schedule space (Section IV).

A gradient-based local search in the spirit of SQP, adapted to the
discrete decision space and equipped with two simulated-annealing-style
escape features:

* per-dimension 1-D quadratic models — for every application ``i`` the
  overall performance is evaluated at the two neighbors ``m_i ± 1`` and
  the model's gradient at the current point is the central difference;
  building all ``n`` models costs at most ``2n`` evaluations (fewer when
  values are already cached, exactly as the paper notes);
* step size fixed at 1: the next point is the closest neighbor along the
  chosen direction;
* the direction with the largest positive gradient is tried first; if
  the target violates feasibility (idle time, eq. (4), checked upfront;
  settling deadline, eq. (3), known after evaluation) the next-best
  direction is tried, and so on;
* a *tolerance threshold*: a move is accepted if it loses at most
  ``tolerance`` of overall performance, which lets the search walk out
  of shallow local optima (the paper's "we do not insist improvement");
* parallel searches from multiple random starts share the evaluator's
  cache (:func:`hybrid_search` takes a list of starts).
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
class HybridOptions:
    """Knobs of the hybrid search."""

    tolerance: float = 0.0
    max_steps: int = 64

    def __post_init__(self) -> None:
        if self.tolerance < 0:
            raise SearchError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.max_steps < 1:
            raise SearchError(f"max_steps must be >= 1, got {self.max_steps}")


def random_feasible_start(
    feasible: list[PeriodicSchedule], rng: np.random.Generator
) -> PeriodicSchedule:
    """Pick a random start from the idle-feasible space."""
    if not feasible:
        raise SearchError("the idle-feasible schedule space is empty")
    return feasible[int(rng.integers(0, len(feasible)))]


def _run_single(
    evaluator: ScheduleEvaluator,
    idle_feasible_fn,
    start: PeriodicSchedule,
    options: HybridOptions,
) -> SearchTrace:
    """One gradient walk from ``start``; returns its trace."""
    requested: set[tuple[int, ...]] = set()

    def value(schedule: PeriodicSchedule) -> float:
        requested.add(schedule.counts)
        return evaluator.evaluate(schedule).overall

    if not idle_feasible_fn(start):
        raise SearchError(f"start schedule {start} violates the idle-time bound")

    trace = SearchTrace(start=start)
    current = start
    current_value = value(current)
    trace.path.append((current, current_value))
    visited = {current.counts}

    for _ in range(options.max_steps):
        # Collect the idle-feasible +-1 neighbors of every dimension and
        # submit them as ONE batch: the 2n model evaluations of a step
        # are independent, so the engine can fan them out to workers.
        dim_neighbors: list[tuple[PeriodicSchedule | None, PeriodicSchedule | None]] = []
        batch: list[PeriodicSchedule] = []
        for dim in range(current.n_apps):
            plus = current.neighbor(dim, +1)
            minus = current.neighbor(dim, -1)
            if plus is not None and not idle_feasible_fn(plus):
                plus = None
            if minus is not None and not idle_feasible_fn(minus):
                minus = None
            dim_neighbors.append((plus, minus))
            batch.extend(n for n in (plus, minus) if n is not None)
        requested.update(n.counts for n in batch)
        batch_evaluations = evaluator.evaluate_batch(batch)
        neighbor_values = {
            n.counts: e.overall for n, e in zip(batch, batch_evaluations)
        }

        # Build the n per-dimension quadratic models.
        gradients: list[float | None] = []
        for plus, minus in dim_neighbors:
            v_plus = neighbor_values[plus.counts] if plus is not None else None
            v_minus = neighbor_values[minus.counts] if minus is not None else None
            if v_plus is not None and v_minus is not None:
                gradients.append((v_plus - v_minus) / 2.0)
            elif v_plus is not None:
                gradients.append(v_plus - current_value)
            elif v_minus is not None:
                gradients.append(current_value - v_minus)
            else:
                gradients.append(None)

        # Candidate moves ranked by modeled improvement rate.
        candidates: list[tuple[float, PeriodicSchedule]] = []
        for dim, gradient in enumerate(gradients):
            if gradient is None:
                continue
            for sign in (+1, -1):
                target = current.neighbor(dim, sign)
                if target is None or target.counts not in neighbor_values:
                    continue
                candidates.append((sign * gradient, target))
        candidates.sort(key=lambda item: item[0], reverse=True)

        moved = False
        for _rate, target in candidates:
            if target.counts in visited:
                continue
            target_eval = evaluator.evaluate(target)
            if not target_eval.feasible:
                continue  # eq. (3)/(4) violated: next-best direction
            accept = (
                not math.isfinite(current_value)
                or target_eval.overall >= current_value - options.tolerance
            )
            if accept:
                current = target
                current_value = target_eval.overall
                trace.path.append((current, current_value))
                visited.add(current.counts)
                moved = True
                break
        if not moved:
            break

    trace.n_evaluations = len(requested)
    return trace


def hybrid_search(
    evaluator: ScheduleEvaluator,
    starts: list[PeriodicSchedule],
    idle_feasible_fn,
    options: HybridOptions | None = None,
) -> SearchResult:
    """Parallel hybrid searches from the given start schedules.

    Parameters
    ----------
    evaluator:
        Shared (cached) schedule evaluator.
    starts:
        One or more start schedules; the paper uses two random starts.
    idle_feasible_fn:
        ``schedule -> bool`` implementing eq. (4); typically
        ``lambda s: idle_feasible(s, apps, clock)``.
    options:
        Tolerance and step limits.

    Returns
    -------
    SearchResult
        Best feasible evaluation across all starts, per-start traces and
        the per-start evaluation counts the paper reports.
    """
    if not starts:
        raise SearchError("need at least one start schedule")
    options = options or HybridOptions()
    traces = [
        _run_single(evaluator, idle_feasible_fn, start, options)
        for start in starts
    ]
    best_eval = None
    for trace in traces:
        for schedule, _v in trace.path:
            candidate = evaluator.evaluate(schedule)
            if not candidate.feasible:
                continue
            if best_eval is None or candidate.overall > best_eval.overall:
                best_eval = candidate
    if best_eval is None:
        raise SearchError("no feasible schedule found from any start")
    return SearchResult(
        best=best_eval,
        n_evaluations=sum(trace.n_evaluations for trace in traces),
        traces=traces,
    )
