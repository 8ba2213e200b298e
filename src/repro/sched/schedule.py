"""Schedule descriptions.

A *periodic schedule* ``(m_1, m_2, ..., m_n)`` executes ``m_1`` tasks of
application 1, then ``m_2`` tasks of application 2, and so on, repeating
forever (paper Section II).  The conventional cache-oblivious baseline
is round-robin, ``(1, 1, ..., 1)``.

An *interleaved schedule* generalizes this to an arbitrary sequence of
(application, burst-length) pairs, e.g. ``(m_1(1), m_2, m_1(2), m_3)``
— the extension the paper's Section VI names as future work.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ScheduleError


@dataclass(frozen=True, order=True)
class PeriodicSchedule:
    """The paper's periodic schedule ``(m_1, ..., m_n)``."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise ScheduleError("schedule needs at least one application")
        if any(m < 1 for m in self.counts):
            raise ScheduleError(
                f"every application must run at least once per period, got {self.counts}"
            )

    @classmethod
    def of(cls, *counts: int) -> "PeriodicSchedule":
        """Convenience constructor: ``PeriodicSchedule.of(3, 2, 3)``."""
        return cls(tuple(counts))

    @classmethod
    def round_robin(cls, n_apps: int) -> "PeriodicSchedule":
        """The cache-oblivious baseline ``(1, 1, ..., 1)``."""
        if n_apps < 1:
            raise ScheduleError(f"need at least one application, got {n_apps}")
        return cls((1,) * n_apps)

    @property
    def n_apps(self) -> int:
        """Number of applications."""
        return len(self.counts)

    @property
    def text(self) -> str:
        """The counts comma-separated, ``"4,2,2"`` — the form ``--starts`` takes."""
        return ",".join(map(str, self.counts))

    @property
    def tasks_per_period(self) -> int:
        """Total task executions in one schedule period."""
        return sum(self.counts)

    def with_count(self, app_index: int, count: int) -> "PeriodicSchedule":
        """Copy with application ``app_index`` executing ``count`` times."""
        if not 0 <= app_index < self.n_apps:
            raise ScheduleError(f"app index {app_index} out of range")
        counts = list(self.counts)
        counts[app_index] = count
        return PeriodicSchedule(tuple(counts))

    def neighbor(self, app_index: int, delta: int) -> "PeriodicSchedule | None":
        """The schedule one step along a dimension, or ``None`` if m < 1."""
        new_count = self.counts[app_index] + delta
        if new_count < 1:
            return None
        return self.with_count(app_index, new_count)

    def neighbors(self) -> list["PeriodicSchedule"]:
        """All schedules at Hamming-1 / step-1 distance."""
        result = []
        for i in range(self.n_apps):
            for delta in (-1, 1):
                candidate = self.neighbor(i, delta)
                if candidate is not None:
                    result.append(candidate)
        return result

    def __str__(self) -> str:
        return "(" + ", ".join(str(m) for m in self.counts) + ")"


@dataclass(frozen=True)
class InterleavedSchedule:
    """A general interleaved schedule: a sequence of (app, burst) pairs.

    ``bursts = ((0, 2), (1, 1), (0, 1), (2, 3))`` executes two tasks of
    application 0, one of application 1, one more of application 0 and
    three of application 2 per period.
    """

    n_apps: int
    bursts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n_apps < 1:
            raise ScheduleError("need at least one application")
        if not self.bursts:
            raise ScheduleError("interleaved schedule needs at least one burst")
        seen = set()
        previous = None
        for app, count in self.bursts:
            if not 0 <= app < self.n_apps:
                raise ScheduleError(f"app index {app} out of range")
            if count < 1:
                raise ScheduleError(f"burst length must be >= 1, got {count}")
            if app == previous:
                raise ScheduleError(
                    "adjacent bursts of the same application must be merged"
                )
            seen.add(app)
            previous = app
        if len(self.bursts) > 1 and self.bursts[0][0] == self.bursts[-1][0]:
            raise ScheduleError(
                "first and last burst belong to the same application; "
                "merge them across the period boundary"
            )
        if seen != set(range(self.n_apps)):
            missing = sorted(set(range(self.n_apps)) - seen)
            raise ScheduleError(f"applications {missing} never execute")

    @classmethod
    def from_periodic(cls, schedule: PeriodicSchedule) -> "InterleavedSchedule":
        """Embed a periodic schedule as a one-burst-per-app interleaving."""
        bursts = tuple((i, m) for i, m in enumerate(schedule.counts))
        return cls(schedule.n_apps, bursts)

    def tasks_of(self, app_index: int) -> int:
        """Total executions of one application per period."""
        return sum(count for app, count in self.bursts if app == app_index)

    @property
    def tasks_per_period(self) -> int:
        """Total task executions in one schedule period."""
        return sum(count for _, count in self.bursts)

    def flattened(self) -> list[tuple[int, int]]:
        """Per-task list of ``(app, position_in_burst)`` (1-based)."""
        tasks = []
        for app, count in self.bursts:
            for position in range(1, count + 1):
                tasks.append((app, position))
        return tasks

    def __str__(self) -> str:
        parts = [f"C{app + 1}x{count}" for app, count in self.bursts]
        return "[" + " ".join(parts) + "]"
