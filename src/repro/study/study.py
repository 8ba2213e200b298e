"""The unified `Study` facade.

A :class:`Study` is a list of scenarios plus one engine configuration
and an optional run directory.  It is the single front door to the
search machinery: the paper case study, a synthesized workload suite
and explicit scenario lists all run through exactly one code path
(:func:`repro.sched.engine.batch.run_scenario` → strategy registry →
engine), whether the scenarios are single-core searches, batch sweeps
or multicore co-designs.  Every run produces a
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
from typing import Iterator

from ..control.design import DesignOptions
from ..identity import diff, digest
from ..platform import Platform
from ..sched.engine import EngineOptions
from ..sched.engine.batch import Scenario, run_scenario, synthesize_scenarios
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
from .report import RunReport, scenario_identity, write_artifact


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
        scenario (each scenario still gets its own engine instance).
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
    def from_case_study(
        cls,
        design_options: DesignOptions | None = None,
        strategy: str | None = None,
        starts: list[PeriodicSchedule] | None = None,
        n_starts: int = 2,
        seed: int = 2018,
        n_cores: int = 1,
        options: object | None = None,
        max_count_per_core: int = 6,
        platform: Platform | None = None,
        shared_cache: bool = False,
        allocator: str | None = None,
        allocator_options: object | None = None,
        n_apps: int | None = None,
        dynamic: object | None = None,
        engine_options: EngineOptions | None = None,
        run_dir: str | Path | None = None,
        name: str = "casestudy",
    ) -> "Study":
        """One-scenario study over the paper's automotive case study.

        ``n_cores > 1`` makes it a multicore co-design of the case
        study (the CLI's ``multicore`` command); otherwise it is the
        single-core search (the CLI's ``search`` command).

        ``platform`` rebuilds the case study on a different execution
        platform (cache geometry, clock, WCET model); the WCETs are
        re-analyzed under it.  ``shared_cache=True`` makes the
        multicore co-design way-partition that platform's shared cache.

        ``allocator`` selects the partition allocator of a multicore
        co-design (see :mod:`repro.multicore.allocators`).  ``n_apps``
        replicates the case-study workload up to that many applications
        (round-robin copies with re-normalized weights) so many-core
        runs — where ``n_cores`` must not exceed the application
        count — have enough work to partition.

        ``dynamic`` attaches a
        :class:`~repro.sim.profiles.DynamicProfile`: after the static
        search the feedback-scheduling simulation runs on the same warm
        engine and the report carries its
        :class:`~repro.sim.report.SimReport` (the CLI's ``simulate``
        command; single-core only).
        """
        # Imported lazily: repro.apps builds on repro.sched.
        from ..apps import build_case_study

        case = build_case_study(platform=platform)
        apps = case.apps
        if n_apps is not None:
            # Lazily imported: repro.multicore builds on repro.sched.
            from ..multicore.allocators import replicate_apps

            apps = replicate_apps(apps, n_apps)
        scenario = Scenario(
            name=name,
            apps=apps,
            clock=case.clock,
            design_options=design_options,
            strategy=strategy,
            starts=tuple(starts) if starts else None,
            n_starts=n_starts,
            seed=seed,
            n_cores=n_cores,
            options=options,
            max_count_per_core=max_count_per_core,
            platform=platform,
            shared_cache=shared_cache,
            allocator=allocator,
            allocator_options=allocator_options,
            dynamic=dynamic,
        )
        return cls([scenario], engine_options=engine_options, run_dir=run_dir)

    @classmethod
    def from_suite(
        cls,
        suite_size: int,
        seed: int = 2018,
        strategy: str | None = None,
        design_options: DesignOptions | None = None,
        n_apps_choices: tuple[int, ...] = (2, 3),
        n_cores: int = 1,
        platform: Platform | None = None,
        jitter_platform: bool = False,
        shared_cache: bool = False,
        allocator: str | None = None,
        allocator_options: object | None = None,
        dynamic: bool = False,
        engine_options: EngineOptions | None = None,
        run_dir: str | Path | None = None,
    ) -> "Study":
        """Study over a deterministic synthesized workload suite.

        ``platform``/``jitter_platform``/``shared_cache`` open the
        platform axis of the synthesis — see
        :func:`~repro.sched.engine.batch.synthesize_scenarios`.
        ``allocator`` selects the partition allocator of the multicore
        scenarios (ignored by scenarios the synthesis clamps down to a
        single core).  ``dynamic=True`` attaches a seeded random
        :class:`~repro.sim.profiles.DynamicProfile` to every scenario,
        so each static search is followed by a feedback-scheduling
        simulation on the same warm engine (single-core suites only).
        """
        scenarios = synthesize_scenarios(
            suite_size,
            seed=seed,
            strategy=strategy,
            design_options=design_options,
            n_apps_choices=n_apps_choices,
            n_cores=n_cores,
            platform=platform,
            jitter_platform=jitter_platform,
            shared_cache=shared_cache,
            allocator=allocator,
            allocator_options=allocator_options,
            dynamic=dynamic,
        )
        return cls(scenarios, engine_options=engine_options, run_dir=run_dir)

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
        a short digest of the run's whole :func:`scenario_identity`, so
        runs differing in any input — the design budget included —
        never collide on (and thrash) a single artifact.
        """
        if self.run_dir is None:
            return None
        tag = digest(scenario_identity(scenario))[:8]
        filename = (
            f"{_slug(scenario.name)}--{_slug(scenario.strategy)}"
            f"--seed{scenario.seed}--c{scenario.n_cores}--{tag}.json"
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
        except (ValueError, KeyError, TypeError) as exc:
            return None, f"corrupt artifact: {type(exc).__name__}: {exc}"
        differs = diff(report.identity, scenario_identity(scenario))
        if differs:
            return None, "differs in: " + ", ".join(differs)
        return report, None

    def _run_one(
        self,
        scenario: Scenario,
        resume: bool,
        on_engine_event=None,
        on_sim_event=None,
    ) -> tuple[RunReport, bool, float, str | None]:
        """Run (or resume) one scenario.

        Returns ``(report, resumed, wall_time, recompute_reason)`` (see
        :meth:`_lookup` for the reason); ``on_engine_event``
        receives the engine's progress events while the search runs,
        ``on_sim_event`` the runtime events of a dynamic scenario's
        feedback-scheduling simulation.
        """
        report, reason = self._lookup(scenario, resume)
        if report is not None:
            return report, True, 0.0, None
        started = time.perf_counter()
        outcome = run_scenario(
            scenario,
            self.engine_options,
            on_event=on_engine_event,
            on_sim_event=on_sim_event,
        )
        wall_time = time.perf_counter() - started
        report = RunReport.from_outcome(scenario, outcome)
        path = self.report_path(scenario)
        if path is not None:
            write_artifact(path, report.to_json() + "\n")
        return report, False, wall_time, reason

    def _started_event(self, index: int, scenario: Scenario) -> ScenarioStarted:
        return ScenarioStarted(
            index=index,
            n_scenarios=len(self.scenarios),
            scenario=scenario.name,
            strategy=scenario.strategy,
            n_cores=scenario.n_cores,
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
        cannot yield from inside the engine's callback.
        """
        n_computed_total = 0
        search_seconds_total = 0.0
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
                scenario, resume, on_engine_event=engine_cb, on_sim_event=sim_cb
            )
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
