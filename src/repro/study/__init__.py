"""Unified study API: one front door for every search run.

:class:`Study` builds a run — from a :class:`RunSpec`
(:meth:`Study.from_spec`; :meth:`Study.from_case_study` and
:meth:`Study.from_suite` are its keyword spellings) or an explicit
scenario list (:meth:`Study.from_scenarios`) — and drives single-core, batch and
multicore scenarios through one code path: the strategy registry
(:mod:`repro.sched.strategies`) over the batch search engine
(:mod:`repro.sched.engine`).  Every scenario yields a
:class:`RunReport`, a JSON round-trippable artifact that persists under
a run directory for resumable, cross-commit-comparable sweeps.

    >>> from repro.study import Study
    >>> reports = Study.from_case_study(strategy="hybrid",
    ...                                 run_dir=".runs").run()
    >>> reports[0].best_schedule, reports[0].overall
    ([3, 2, 3], 0.195...)

Runs are observable while they execute — ``Study.run(on_event=...)``
pushes the typed :mod:`~repro.study.events` (scenario
started/resumed/finished plus engine batch progress) to a callback,
and ``Study.stream()`` yields the same events as an iterator::

    >>> from repro.study.events import ScenarioFinished
    >>> def on_event(event):
    ...     if isinstance(event, ScenarioFinished):
    ...         print(event.scenario, f"{event.throughput:.1f} eval/s")
    >>> reports = Study.from_suite(8, strategy="hybrid").run(on_event=on_event)
"""

from .events import (
    ScenarioFinished,
    ScenarioProgress,
    ScenarioResumed,
    ScenarioStarted,
    SimulationFinished,
    SimulationProgress,
    StudyEvent,
)
from .report import RunReport, scenario_digest
from .spec import RunSpec
from .study import Study

__all__ = [
    "RunReport",
    "RunSpec",
    "ScenarioFinished",
    "ScenarioProgress",
    "ScenarioResumed",
    "ScenarioStarted",
    "SimulationFinished",
    "SimulationProgress",
    "Study",
    "StudyEvent",
    "scenario_digest",
]
