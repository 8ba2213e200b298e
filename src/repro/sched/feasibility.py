"""Schedule feasibility (paper eq. (4)) and schedule-space enumeration.

The *idle-time* constraint is checkable before any controller design:
every application's longest sampling period must not exceed its maximum
allowed idle time.  The *settling-deadline* constraint (eq. (3)) is only
known after the (expensive) control-performance evaluation and is
handled by the evaluator.

Enumeration exploits monotonicity: growing any ``m_j`` grows every other
application's idle gap, so once a partial assignment (with all remaining
counts at their minimum) violates eq. (4), the whole subtree is
infeasible.

The space is a pure function of the WCETs, the idle bounds, the clock
and the count cap, so :func:`enumerate_idle_feasible` memoizes it in
:data:`SPACE_MEMO` and every caller gets a fresh list of the memoized
schedules.
"""

from __future__ import annotations

from ..core.application import ControlApplication
from ..errors import ScheduleError
from ..memo import Memo
from ..units import Clock
from ..wcet.results import TaskWcets
from .schedule import PeriodicSchedule
from .timing import derive_timing

#: Hard cap on any m_i during enumeration — far above anything a real
#: idle-time constraint admits; purely a runaway guard.
MAX_COUNT = 256

#: Memoized spaces, keyed by (WCETs, idle bounds, clock, count cap).  A
#: case-study job needs one; shared-cache co-design one per core block
#: and way count.
SPACE_MEMO: Memo[tuple[PeriodicSchedule, ...]] = Memo("space", maxsize=128)


def max_sampling_periods(
    schedule: PeriodicSchedule, wcets: list[TaskWcets], clock: Clock
) -> list[float]:
    """Longest sampling period of each application under ``schedule``."""
    timing = derive_timing(schedule, wcets, clock)
    return [app.max_period for app in timing.apps]


def idle_feasible(
    schedule: PeriodicSchedule,
    apps: list[ControlApplication],
    clock: Clock,
) -> bool:
    """Whether the schedule satisfies every max-idle-time bound (eq. (4))."""
    if schedule.n_apps != len(apps):
        raise ScheduleError(
            f"schedule has {schedule.n_apps} apps, problem has {len(apps)}"
        )
    wcets = [app.wcets for app in apps]
    periods = max_sampling_periods(schedule, wcets, clock)
    return all(
        period <= app.max_idle + 1e-15
        for period, app in zip(periods, apps)
    )


def enumerate_idle_feasible(
    apps: list[ControlApplication],
    clock: Clock,
    max_count: int = MAX_COUNT,
) -> list[PeriodicSchedule]:
    """All idle-feasible periodic schedules, in lexicographic order.

    This is the space the paper's exhaustive search walks (76 schedules
    in the case study, two of which later fail the settling-deadline
    constraint).

    Memoized in :data:`SPACE_MEMO`; the returned list is the caller's
    own.
    """
    if not apps:
        raise ScheduleError("need at least one application")
    wcets = tuple(app.wcets for app in apps)
    max_idle = tuple(app.max_idle for app in apps)
    key = (wcets, max_idle, clock, max_count)
    return list(
        SPACE_MEMO.get(
            key, lambda: _enumerate(list(wcets), list(max_idle), clock, max_count)
        )
    )


def _enumerate(
    wcets: list[TaskWcets], max_idle: list[float], clock: Clock, max_count: int
) -> tuple[PeriodicSchedule, ...]:
    """The eq. (4) space of :func:`enumerate_idle_feasible`, computed."""
    n = len(wcets)
    feasible: list[PeriodicSchedule] = []

    def decided_feasible(counts: list[int], n_decided: int) -> bool:
        """Eq. (4) restricted to the first ``n_decided`` applications.

        Undecided applications are set to their most lenient value (1)
        for the *decided* apps' constraints; their own constraints are
        not monotone at m = 1 -> 2 and must not prune the subtree.
        """
        schedule = PeriodicSchedule(tuple(counts))
        periods = max_sampling_periods(schedule, wcets, clock)
        return all(
            periods[i] <= max_idle[i] + 1e-15 for i in range(n_decided)
        )

    def recurse(prefix: list[int]) -> None:
        index = len(prefix)
        if index == n:
            # The last probe was this very schedule with every app
            # decided: it is feasible.
            feasible.append(PeriodicSchedule(tuple(prefix)))
            return
        for count in range(1, max_count + 1):
            probe = prefix + [count] + [1] * (n - index - 1)
            if not decided_feasible(probe, index + 1):
                if count == 1:
                    # m_i = 1 inflates this app's own gap by the cold/warm
                    # difference; larger counts may still be feasible.
                    continue
                break
            recurse(prefix + [count])

    recurse([])
    return tuple(feasible)
