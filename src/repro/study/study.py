"""The unified `Study` facade.

A :class:`Study` is a list of scenarios plus one engine configuration
and an optional run directory.  It is the single front door to the
search machinery: the paper case study, a synthesized workload suite
and explicit scenario lists all run through exactly one code path
(:func:`~repro.sched.engine.batch.scenario_engine` →
:func:`~repro.sched.engine.batch.search_scenario` → strategy registry),
whether the scenarios are single-core searches, batch sweeps or
multicore co-designs; scenarios of one problem share its design memo.
Every run produces a
:class:`~repro.study.report.RunReport`; with a ``run_dir`` the reports
persist as JSON and matching reruns are served from disk (resumable
sweeps, comparable across commits).

Runs are observable while they execute: :meth:`Study.run` accepts an
``on_event`` callback and :meth:`Study.stream` is a generator, both
delivering the typed :mod:`~repro.study.events` — scenario
started/resumed/finished plus the engines' batch-level progress — so a
long sweep reports live throughput instead of going silent until the
final report list.
"""

from __future__ import annotations

import re
import time
from pathlib import Path
from typing import Any, Iterator

from ..control.design import DesignOptions
from ..errors import ConfigurationError
from ..identity import diff, digest
from ..sched.engine import EngineOptions
from ..sched.engine.batch import Scenario, scenario_engine, search_scenario, synthesize_scenarios
from ..sched.evaluator import ScheduleEvaluator
from ..sched.schedule import PeriodicSchedule
from ..sim.report import SimReport
from .events import (
    ScenarioFinished,
    ScenarioProgress,
    ScenarioResumed,
    ScenarioStarted,
    SimulationFinished,
    SimulationProgress,
    StudyEvent,
)
from .report import RunReport, write_artifact
from .spec import RunSpec


def _slug(text: str) -> str:
    """Filesystem-safe fragment of a scenario/strategy name."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)


class Study:
    """A suite of scenarios behind one engine configuration.

    Parameters
    ----------
    scenarios:
        The :class:`~repro.sched.engine.batch.Scenario` list to run.
    engine_options:
        Worker-pool / persistent-cache configuration shared by every
        scenario.  Each scenario runs on its own engine (stats, events,
        pool); the scenarios of one ``problem`` share its design memo.
    run_dir:
        Directory the per-scenario :class:`RunReport` JSON artifacts
        persist under; ``None`` keeps reports in memory only.
    """

    def __init__(
        self,
        scenarios: list[Scenario],
        engine_options: EngineOptions | None = None,
        run_dir: str | Path | None = None,
    ) -> None:
        self.scenarios = list(scenarios)
        self.engine_options = engine_options or EngineOptions()
        self.run_dir = Path(run_dir) if run_dir is not None else None

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec: RunSpec,
        design_options: DesignOptions | None = None,
        engine_options: EngineOptions | None = None,
        run_dir: str | Path | None = None,
        name: str = "casestudy",
    ) -> "Study":
        """The study a :class:`~repro.study.spec.RunSpec` describes.

        The spec is validated first, so a bad run fails before anything
        is built.  A ``kind="search"`` spec is one scenario over the
        paper's case study, called ``name`` — rebuilt on the spec's
        platform (WCETs re-analyzed under it) and replicated to
        ``n_apps`` applications when set; ``n_cores > 1`` makes it a
        multicore co-design.  A ``kind="suite"`` spec is the
        deterministic synthesized suite of
        :func:`~repro.sched.engine.batch.synthesize_scenarios`.
        """
        spec.validate()
        if spec.kind == "suite":
            scenarios = synthesize_scenarios(spec, design_options)
            return cls(scenarios, engine_options=engine_options, run_dir=run_dir)
        # Imported lazily: repro.apps builds on repro.sched.
        from ..apps import build_case_study

        case = build_case_study(platform=spec.platform)
        apps = case.apps
        if spec.n_apps is not None:
            # Lazily imported: repro.multicore builds on repro.sched.
            from ..multicore.allocators import replicate_apps

            apps = replicate_apps(apps, spec.n_apps)
        scenario = Scenario(name, apps, case.clock, design_options, spec)
        return cls([scenario], engine_options=engine_options, run_dir=run_dir)

    @classmethod
    def from_case_study(
        cls,
        design_options: DesignOptions | None = None,
        *,
        starts: list[PeriodicSchedule] | None = None,
        engine_options: EngineOptions | None = None,
        run_dir: str | Path | None = None,
        name: str = "casestudy",
        **run: Any,
    ) -> "Study":
        """:meth:`from_spec` of the case-study :class:`RunSpec` with the
        fields ``run`` (``starts`` given as schedules)."""
        if starts:
            run["starts"] = tuple(start.counts for start in starts)
        return cls.from_spec(RunSpec(**run), design_options, engine_options, run_dir, name)

    @classmethod
    def from_suite(
        cls,
        suite_size: int,
        *,
        design_options: DesignOptions | None = None,
        engine_options: EngineOptions | None = None,
        run_dir: str | Path | None = None,
        dynamic: bool = False,
        **run: Any,
    ) -> "Study":
        """:meth:`from_spec` of the ``kind="suite"`` :class:`RunSpec` with
        the fields ``run`` (``dynamic`` is its ``random_dynamic``)."""
        spec = RunSpec(kind="suite", suite_size=suite_size, random_dynamic=dynamic, **run)
        return cls.from_spec(spec, design_options, engine_options, run_dir)

    @classmethod
    def from_scenarios(
        cls,
        scenarios: list[Scenario],
        engine_options: EngineOptions | None = None,
        run_dir: str | Path | None = None,
    ) -> "Study":
        """Study over an explicit scenario list."""
        return cls(scenarios, engine_options=engine_options, run_dir=run_dir)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def report_path(self, scenario: Scenario) -> Path | None:
        """Where one scenario's report persists (``None`` without a
        run directory).

        The filename is a readable name/strategy/seed/cores prefix plus
        a short digest of the run's whole identity
        (:attr:`Scenario.identity`), so runs differing in any input —
        the design budget included — never collide on (and thrash) a
        single artifact.
        """
        if self.run_dir is None:
            return None
        tag = digest(scenario.identity)[:8]
        spec = scenario.spec
        filename = (
            f"{_slug(scenario.name)}--{_slug(spec.strategy)}"
            f"--seed{spec.seed}--c{spec.n_cores}--{tag}.json"
        )
        return self.run_dir / filename

    def _load_existing(self, scenario: Scenario) -> RunReport | None:
        """The persisted report answering this run, if any."""
        return self._lookup(scenario, resume=True)[0]

    def _lookup(
        self, scenario: Scenario, resume: bool
    ) -> tuple[RunReport | None, str | None]:
        """The persisted report answering this run, else why not.

        Returns ``(report, None)`` for a resumable artifact and
        ``(None, reason)`` otherwise; the reason is ``None`` when no
        artifact exists.  An artifact answers the run exactly when its
        recorded identity equals the scenario's.
        """
        path = self.report_path(scenario)
        if path is None or not path.exists():
            return None, None
        if not resume:
            return None, "resume disabled"
        try:
            report = RunReport.from_json(path.read_text())
        except ConfigurationError as exc:
            return None, f"incompatible artifact: {exc}"
        except (ValueError, KeyError, TypeError) as exc:
            return None, f"corrupt artifact: {type(exc).__name__}: {exc}"
        differs = diff(report.identity, scenario.identity)
        if differs:
            return None, "differs in: " + ", ".join(differs)
        return report, None

    def _run_one(
        self,
        scenario: Scenario,
        resume: bool,
        memos: dict[str, ScheduleEvaluator],
        on_engine_event=None,
        on_sim_event=None,
    ) -> tuple[RunReport, bool, float, str | None]:
        """Run (or resume) one scenario.

        Returns ``(report, resumed, wall_time, recompute_reason)`` (see
        :meth:`_lookup` for the reason); a scenario that runs takes its
        problem's design memo from ``memos``, built on first need; ``on_engine_event``
        receives the engine's progress events while the search runs,
        ``on_sim_event`` the runtime events of a dynamic scenario's
        feedback-scheduling simulation.
        """
        report, reason = self._lookup(scenario, resume)
        if report is not None:
            return report, True, 0.0, None
        memo = memos.get(scenario.problem)
        if memo is None:
            memo = memos[scenario.problem] = ScheduleEvaluator(
                scenario.apps, scenario.clock, scenario.design_options
            )
        started = time.perf_counter()
        with scenario_engine(scenario, self.engine_options, on_engine_event, memo) as engine:
            report = search_scenario(scenario, engine, on_sim_event)
        wall_time = time.perf_counter() - started
        path = self.report_path(scenario)
        if path is not None:
            write_artifact(path, report.to_json() + "\n")
        return report, False, wall_time, reason

    def _started_event(self, index: int, scenario: Scenario) -> ScenarioStarted:
        return ScenarioStarted(
            index=index,
            n_scenarios=len(self.scenarios),
            scenario=scenario.name,
            strategy=scenario.spec.strategy,
            n_cores=scenario.spec.n_cores,
        )

    def _ended_event(
        self,
        index: int,
        scenario: Scenario,
        report: RunReport,
        resumed: bool,
        wall_time: float,
        reason: str | None,
        n_computed_total: int,
        search_seconds_total: float,
    ) -> StudyEvent:
        common = dict(
            index=index, n_scenarios=len(self.scenarios), scenario=scenario.name
        )
        if resumed:
            return ScenarioResumed(report=report, **common)
        return ScenarioFinished(
            report=report,
            wall_time=wall_time,
            n_computed_total=n_computed_total,
            throughput=(
                n_computed_total / search_seconds_total
                if search_seconds_total > 0
                else None
            ),
            recompute_reason=reason,
            **common,
        )

    def _iter_events(self, resume: bool, live_emit=None) -> Iterator[StudyEvent]:
        """The one event-producing driver behind :meth:`run` / :meth:`stream`.

        Yields started / progress / resumed / finished events per
        scenario.  With ``live_emit``, engine progress is *pushed* to
        it while the search runs (and not yielded afterwards); without
        it, engine events are buffered and yielded as
        :class:`ScenarioProgress` once the scenario ends — a generator
        cannot yield from inside the engine's callback.  A problem's
        design memo is dropped after its last scenario, so distinct
        problems hold one at a time.
        """
        n_computed_total = 0
        search_seconds_total = 0.0
        memos: dict[str, ScheduleEvaluator] = {}
        last_use = {scenario.problem: index for index, scenario in enumerate(self.scenarios)}
        for index, scenario in enumerate(self.scenarios):
            yield self._started_event(index, scenario)
            common = dict(
                index=index,
                n_scenarios=len(self.scenarios),
                scenario=scenario.name,
            )
            buffered: list = []
            buffered_sim: list = []
            if live_emit is not None:
                engine_cb = lambda event, common=common: live_emit(
                    ScenarioProgress(engine=event, **common)
                )
                sim_cb = lambda event, common=common: live_emit(
                    SimulationProgress(sim=event, **common)
                )
            else:
                engine_cb = buffered.append
                sim_cb = buffered_sim.append
            report, resumed, wall_time, reason = self._run_one(
                scenario, resume, memos, on_engine_event=engine_cb, on_sim_event=sim_cb
            )
            if last_use[scenario.problem] == index:
                memos.pop(scenario.problem, None)
            for engine_event in buffered:
                yield ScenarioProgress(engine=engine_event, **common)
            for sim_event in buffered_sim:
                yield SimulationProgress(sim=sim_event, **common)
            if not resumed and report.sim is not None:
                sim_report = SimReport.from_dict(report.sim)
                sim_finished = SimulationFinished(
                    report=sim_report,
                    mean_cost=sim_report.mean_cost,
                    n_adaptations=sim_report.n_adaptations,
                    **common,
                )
                if live_emit is not None:
                    live_emit(sim_finished)
                else:
                    yield sim_finished
            if not resumed:
                n_computed_total += int(
                    report.engine_stats.get("n_computed", 0)
                )
                search_seconds_total += wall_time
            yield self._ended_event(
                index,
                scenario,
                report,
                resumed,
                wall_time,
                reason,
                n_computed_total,
                search_seconds_total,
            )

    def run(self, resume: bool = True, on_event=None) -> list[RunReport]:
        """Run every scenario; one :class:`RunReport` per scenario.

        With a run directory, reports persist as JSON after each
        scenario, and (``resume=True``) scenarios whose persisted
        report records the same identity (every scenario input; see
        :func:`~repro.study.report.scenario_identity`) are served from
        disk without re-searching.

        ``on_event`` receives the study's typed progress events
        (:mod:`repro.study.events`) *live*: scenario started /
        resumed / finished, plus a :class:`ScenarioProgress` wrapper
        around every engine batch event, delivered while the search is
        still running.  Prefer :meth:`stream` for a pull-style
        iterator over the same events.
        """
        emit = on_event if on_event is not None else (lambda event: None)
        reports: list[RunReport] = []
        for event in self._iter_events(resume, live_emit=on_event):
            # Engine progress already went out live through live_emit;
            # the driver yields only the started/resumed/finished ones.
            emit(event)
            if isinstance(event, (ScenarioResumed, ScenarioFinished)):
                reports.append(event.report)
        return reports

    def stream(self, resume: bool = True) -> Iterator[StudyEvent]:
        """Iterate the study's progress events, running it lazily.

        Yields :class:`ScenarioStarted` *before* each scenario runs;
        the scenario's engine events are buffered while its search
        executes and yielded as :class:`ScenarioProgress` right after
        it, followed by :class:`ScenarioResumed` or
        :class:`ScenarioFinished` carrying the report.  Collect the
        reports from those terminal events::

            reports = [e.report for e in study.stream()
                       if isinstance(e, (ScenarioResumed, ScenarioFinished))]

        For strictly-live engine events use :meth:`run` with
        ``on_event``.
        """
        return self._iter_events(resume)
