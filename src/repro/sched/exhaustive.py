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
        ``stats`` (JSON-safe): ``n_enumerated``, ``n_feasible``, the
        counts of the ``infeasible`` schedules and every schedule's
        overall by its :attr:`~repro.sched.schedule.PeriodicSchedule.text`
        (``overalls``), in evaluation order.
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
    trace = SearchTrace(start=schedules[0])
    trace.path = [(e.schedule, e.overall) for e in evaluations]
    trace.n_evaluations = len(schedules)

    return SearchResult(
        best=max(feasible, key=lambda e: e.overall),
        n_evaluations=len(schedules),
        traces=[trace],
        stats={
            "n_enumerated": len(schedules),
            "n_feasible": len(feasible),
            "infeasible": [list(e.schedule.counts) for e in evaluations if not e.feasible],
            "overalls": {e.schedule.text: float(e.overall) for e in evaluations},
        },
    )
