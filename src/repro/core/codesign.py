"""Two-stage co-design facade (the paper's overall framework).

:class:`CodesignProblem` bundles an application set with a clock and
design options, exposes schedule evaluation (stage 1: holistic
controller design per schedule) and schedule optimization (stage 2: any
registered search strategy — see :mod:`repro.sched.strategies`), and
provides the Table-III style comparison between two schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..control.design import DesignOptions
from ..sched.engine import SearchEngine
from ..sched.evaluator import ScheduleEvaluation, ScheduleEvaluator
from ..sched.feasibility import enumerate_idle_feasible, idle_feasible
from ..sched.results import SearchResult
from ..sched.schedule import PeriodicSchedule
from ..sched.strategies import StrategySpec, get_strategy
from ..units import Clock
from .application import ControlApplication


@dataclass
class CodesignResult:
    """Outcome of a schedule optimization."""

    strategy: str
    search: SearchResult

    @property
    def best_schedule(self) -> PeriodicSchedule:
        """The optimal schedule found."""
        return self.search.best_schedule

    @property
    def best_overall(self) -> float:
        """Overall control performance of the optimum."""
        return self.search.best_value


@dataclass
class AppComparison:
    """Per-application row of a Table-III style comparison."""

    app_name: str
    settling_baseline: float
    settling_candidate: float

    @property
    def improvement(self) -> float:
        """Relative settling-time reduction (the paper's "control
        performance improvement")."""
        if self.settling_baseline <= 0:
            return 0.0
        return 1.0 - self.settling_candidate / self.settling_baseline


class CodesignProblem:
    """An application set sharing one cached processor.

    ``workers`` and ``cache_dir`` configure the search engine: with
    ``workers >= 2`` candidate schedules are evaluated in parallel
    worker processes, and with a ``cache_dir`` every evaluation persists
    to disk so repeated runs warm-start (see
    :mod:`repro.sched.engine`).  The defaults keep everything serial and
    in-memory, exactly as before.  ``platform`` declares the
    :class:`~repro.platform.Platform` the applications' WCETs were
    analyzed on; it becomes part of the persistent-cache keys.
    """

    def __init__(
        self,
        apps: list[ControlApplication],
        clock: Clock,
        design_options: DesignOptions | None = None,
        workers: int = 0,
        cache_dir: str | Path | None = None,
        platform=None,
    ) -> None:
        self.apps = list(apps)
        self.clock = clock
        self.platform = platform
        self.evaluator = ScheduleEvaluator(apps, clock, design_options)
        self.engine = SearchEngine(
            self.evaluator, workers=workers, cache_dir=cache_dir, platform=platform
        )

    def close(self) -> None:
        """Release engine resources (worker pool, cache connection)."""
        self.engine.close()

    def __enter__(self) -> "CodesignProblem":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Stage 1: evaluation
    # ------------------------------------------------------------------
    def evaluate(self, schedule: PeriodicSchedule) -> ScheduleEvaluation:
        """Overall control performance of one schedule (cached)."""
        return self.engine.evaluate(schedule)

    def idle_feasible(self, schedule: PeriodicSchedule) -> bool:
        """Max-idle-time constraint, eq. (4)."""
        return idle_feasible(schedule, self.apps, self.clock)

    def schedule_space(self) -> list[PeriodicSchedule]:
        """The complete idle-feasible schedule space (memoized per
        process by :data:`~repro.sched.feasibility.SPACE_MEMO`)."""
        return enumerate_idle_feasible(self.apps, self.clock)

    # ------------------------------------------------------------------
    # Stage 2: optimization
    # ------------------------------------------------------------------
    def optimize(
        self,
        strategy: str | None = None,
        starts: list[PeriodicSchedule] | None = None,
        n_starts: int = 2,
        seed: int = 2018,
        options: object | None = None,
    ) -> CodesignResult:
        """Find an optimal schedule with a registered search strategy.

        ``strategy`` names any strategy in the registry
        (:func:`repro.sched.strategies.available_strategies`); the
        default is ``"hybrid"``, the paper's algorithm.  ``starts``
        overrides the ``n_starts`` seeded random initializations, and
        ``options`` carries the strategy-specific options dataclass.
        Unknown strategy names raise
        :class:`~repro.errors.ConfigurationError` naming the registered
        strategies.
        """
        strat = get_strategy(strategy if strategy is not None else "hybrid")
        spec = StrategySpec(
            starts=tuple(starts) if starts else None,
            n_starts=n_starts,
            seed=seed,
            options=options,
            feasible=self.idle_feasible,
        )
        search = strat.run(self.engine, self.schedule_space(), spec)
        return CodesignResult(strategy=strat.name, search=search)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def compare(
        self, baseline: PeriodicSchedule, candidate: PeriodicSchedule
    ) -> list[AppComparison]:
        """Per-application settling comparison (the paper's Table III)."""
        base_eval = self.evaluate(baseline)
        cand_eval = self.evaluate(candidate)
        return [
            AppComparison(
                app_name=b.app_name,
                settling_baseline=b.settling,
                settling_candidate=c.settling,
            )
            for b, c in zip(base_eval.apps, cand_eval.apps)
        ]
