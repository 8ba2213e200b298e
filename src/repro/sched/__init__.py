"""Schedules, timing derivation, feasibility and schedule-space search.

Implements Sections II-C and IV of the paper:

* :class:`~repro.sched.schedule.PeriodicSchedule` — the ``(m_1..m_n)``
  periodic schedules the paper optimizes over (plus the interleaved
  generalization the paper leaves to future work);
* :mod:`~repro.sched.timing` — sampling periods and sensing-to-actuation
  delays induced by a schedule (eqs. (6)–(8));
* :mod:`~repro.sched.feasibility` — the maximum-idle-time constraint
  (eq. (4)) and enumeration of the idle-feasible schedule space;
* :mod:`~repro.sched.evaluator` — overall control performance of one
  schedule (eq. (2)) via holistic controller design, with memoization;
* :mod:`~repro.sched.hybrid` — the paper's hybrid gradient/simulated-
  annealing search (Section IV);
* :mod:`~repro.sched.exhaustive`, :mod:`~repro.sched.annealing` —
  baselines;
* :mod:`~repro.sched.strategies` — the pluggable strategy registry all
  entry points dispatch through (``exhaustive`` / ``hybrid`` /
  ``annealing`` / ``interleaved`` builtin, third-party strategies via
  :func:`~repro.sched.strategies.register_strategy`);
* :mod:`~repro.sched.engine` — the parallel batch search engine with a
  persistent evaluation cache (``--workers`` / ``--cache-dir``).
"""

from .schedule import InterleavedSchedule, PeriodicSchedule
from .timing import AppTiming, ScheduleTiming, derive_timing, derive_timing_interleaved
from .feasibility import enumerate_idle_feasible, idle_feasible, max_sampling_periods
from .evaluator import AppEvaluation, ScheduleEvaluation, ScheduleEvaluator
from .results import SearchResult, SearchTrace
from .hybrid import HybridOptions, hybrid_search
from .exhaustive import exhaustive_search
from .annealing import AnnealingOptions, annealing_search
from .strategies import (
    SearchStrategy,
    StrategySpec,
    available_strategies,
    get_strategy,
    register_strategy,
)
from .engine import EngineOptions, EngineStats, SearchEngine

__all__ = [
    "AnnealingOptions",
    "AppEvaluation",
    "AppTiming",
    "EngineOptions",
    "EngineStats",
    "HybridOptions",
    "InterleavedSchedule",
    "PeriodicSchedule",
    "ScheduleEvaluation",
    "ScheduleEvaluator",
    "ScheduleTiming",
    "SearchEngine",
    "SearchResult",
    "SearchStrategy",
    "SearchTrace",
    "StrategySpec",
    "annealing_search",
    "available_strategies",
    "get_strategy",
    "register_strategy",
    "derive_timing",
    "derive_timing_interleaved",
    "enumerate_idle_feasible",
    "exhaustive_search",
    "hybrid_search",
    "idle_feasible",
    "max_sampling_periods",
]
