"""Exhaustive (brute-force) schedule search — the paper's baseline.

Enumerates the complete idle-feasible schedule space, evaluates every
schedule and returns the best feasible one plus the statistics the
paper's Section V reports: how many schedules were enumerated and how
many of them turned out feasible after the control-performance
evaluation (the settling-deadline constraint is only observable then).
"""

from __future__ import annotations

from ..core.application import ControlApplication
from ..errors import SearchError
from ..units import Clock
from .evaluator import ScheduleEvaluator
from .feasibility import enumerate_idle_feasible
from .results import SearchResult, SearchTrace


def exhaustive_search(
    evaluator: ScheduleEvaluator,
    clock: Clock | None = None,
    schedules: list | None = None,
) -> SearchResult:
    """Evaluate every idle-feasible schedule.

    Parameters
    ----------
    evaluator:
        Shared (cached) schedule evaluator.
    clock:
        Needed only when ``schedules`` is not supplied, to enumerate the
        idle-feasible space from the evaluator's applications.
    schedules:
        Optional pre-enumerated schedule list (lets callers share one
        enumeration across searches).

    Returns
    -------
    SearchResult
        ``stats`` holds ``n_enumerated``, ``n_feasible`` and the full
        ``ranking`` (feasible evaluations, best first).
    """
    if schedules is None:
        if clock is None:
            raise SearchError("need either a clock or a schedule list")
        apps: list[ControlApplication] = evaluator.apps
        schedules = enumerate_idle_feasible(apps, clock)
    if not schedules:
        raise SearchError("the idle-feasible schedule space is empty")

    # One batch submission: embarrassingly parallel under the engine's
    # process-pool backend, a plain serial loop otherwise.
    evaluations = evaluator.evaluate_batch(list(schedules))
    feasible = [e for e in evaluations if e.feasible]
    if not feasible:
        raise SearchError("no schedule satisfies the settling deadlines")
    ranking = sorted(feasible, key=lambda e: e.overall, reverse=True)

    trace = SearchTrace(start=schedules[0])
    trace.path = [(e.schedule, e.overall) for e in evaluations]
    trace.n_evaluations = len(schedules)

    return SearchResult(
        best=ranking[0],
        n_evaluations=len(schedules),
        traces=[trace],
        stats={
            "n_enumerated": len(schedules),
            "n_feasible": len(feasible),
            "ranking": ranking,
        },
    )
