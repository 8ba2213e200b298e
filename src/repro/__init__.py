"""repro — reproduction of "Cache-Aware Task Scheduling for Maximizing
Control Performance" (Chang, Roy, Hu, Chakraborty; DATE 2018).

The library implements the paper's complete stack from scratch:

* an instruction-cache / WCET substrate (:mod:`repro.cache`,
  :mod:`repro.program`, :mod:`repro.wcet`) that regenerates the paper's
  Table I exactly;
* a discrete-time control substrate with non-uniform sampling,
  sensing-to-actuation delays and the holistic lifted controller design
  (:mod:`repro.control`);
* the schedule model, timing derivation, feasibility constraints and
  the hybrid schedule-space search (:mod:`repro.sched`);
* the automotive case study (:mod:`repro.apps`), the applications and
  performance index of the two-stage co-design (:mod:`repro.core`), the
  pluggable search-strategy registry (:mod:`repro.sched.strategies`)
  and the unified study API with persisted run reports
  (:mod:`repro.study`);
* the paper's named extensions: multi-core partitioning
  (:mod:`repro.multicore`) and interleaved schedules
  (:mod:`repro.sched.interleaved`).

Quickstart::

    from repro import build_case_study, PeriodicSchedule

    case = build_case_study()
    problem = case.evaluator()
    round_robin = problem.evaluate(PeriodicSchedule.round_robin(3))
    cache_aware = problem.evaluate(PeriodicSchedule.of(3, 2, 3))
    print(round_robin.overall, "->", cache_aware.overall)

Every paper artifact has a regeneration entry point:
``python -m repro.experiments all``.
"""

from .apps import build_case_study
from .cache import CacheConfig, InstructionCache
from .control import (
    ControllerDesign,
    DesignOptions,
    LtiPlant,
    TrackingSpec,
    design_controller,
)
from .core import ControlApplication
from .errors import ReproError
from .program import Program, ProgramBuilder, make_control_program
from .sched import (
    EngineOptions,
    HybridOptions,
    InterleavedSchedule,
    PeriodicSchedule,
    ScheduleEvaluator,
    SearchEngine,
    StrategySpec,
    available_strategies,
    derive_timing,
    enumerate_idle_feasible,
    exhaustive_search,
    get_strategy,
    hybrid_search,
    register_strategy,
)
from .platform import Platform, paper_platform
from .study import RunReport, Study
from .units import Clock
from .wcet import (
    analyze_task_wcets,
    available_wcet_models,
    get_wcet_model,
    register_wcet_model,
)

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "Clock",
    "ControlApplication",
    "ControllerDesign",
    "DesignOptions",
    "EngineOptions",
    "HybridOptions",
    "InstructionCache",
    "InterleavedSchedule",
    "LtiPlant",
    "PeriodicSchedule",
    "Platform",
    "Program",
    "ProgramBuilder",
    "ReproError",
    "RunReport",
    "ScheduleEvaluator",
    "SearchEngine",
    "StrategySpec",
    "Study",
    "TrackingSpec",
    "analyze_task_wcets",
    "available_strategies",
    "available_wcet_models",
    "build_case_study",
    "derive_timing",
    "design_controller",
    "enumerate_idle_feasible",
    "exhaustive_search",
    "get_strategy",
    "get_wcet_model",
    "hybrid_search",
    "make_control_program",
    "paper_platform",
    "register_strategy",
    "register_wcet_model",
    "__version__",
]
