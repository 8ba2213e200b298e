"""Experiment E6 — multicore extension (paper Section VI).

The paper notes the framework "can be naturally extended to a
multi-core architecture, where each core has its own cache".  This
experiment quantifies that extension on the case study: partition the
three applications onto ``n_cores`` private-cache cores (through the
search engine's per-core blocks), and compare the best partition's overall
control performance against the best single-core schedule of the same
sweep — the single-core problem is just the one-block partition, so the
comparison comes from one engine run and one shared cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from ..apps.casestudy import CaseStudy, build_case_study
from ..control.design import DesignOptions
from ..core.report import render_table
from ..multicore.partition import (
    CoreAssignment,
    MulticoreEvaluation,
    MulticoreProblem,
)
from ..platform import Platform
from ..sched.engine.batch import Scenario, ScenarioOutcome
from ..sched.schedule import PeriodicSchedule
from ..study.report import RunReport
from .profiles import design_options_for_profile
from .registry import ExperimentRequest, register_experiment
from .report import ExperimentReport, new_report


@dataclass
class MulticoreSummary:
    """Multicore co-design next to the single-core baseline."""

    n_cores: int
    app_names: list[str]
    best: MulticoreEvaluation
    single_schedule: PeriodicSchedule | None
    single_overall: float | None
    engine_stats: dict
    engine_summary: str
    backend: str = "serial"
    wall_time: float = 0.0
    max_count_per_core: int = 6

    @property
    def improvement(self) -> float | None:
        """Absolute P_all gain of partitioning over one shared core."""
        if self.single_overall is None:
            return None
        return self.best.overall - self.single_overall

    def render(self) -> str:
        rows = []
        for core_index, core in enumerate(self.best.cores):
            names = ", ".join(self.app_names[i] for i in core.app_indices)
            rows.append(
                [
                    str(core_index),
                    names,
                    str(core.schedule),
                    ", ".join(
                        f"{self.best.settling[i] * 1e3:.2f}"
                        for i in core.app_indices
                    ),
                ]
            )
        table = render_table(
            ["core", "apps", "schedule", "settling (ms)"],
            rows,
            title=f"Section VI: {self.n_cores}-core co-design",
        )
        if self.single_overall is None:
            single = "single core: no feasible schedule under the burst cap"
        else:
            single = (
                f"single core best: {self.single_schedule} "
                f"P_all = {self.single_overall:.4f}"
            )
        return (
            table
            + f"\n\nmulticore P_all = {self.best.overall:.4f} "
            f"({self.best.n_cores_used} cores used)"
            + f"\n{single}"
            + (
                f"\npartitioning gain: {self.improvement:+.4f}"
                if self.improvement is not None
                else ""
            )
            + f"\nengine: {self.engine_summary}"
        )


def run(
    case: CaseStudy | None = None,
    design_options: DesignOptions | None = None,
    n_cores: int = 2,
    max_count_per_core: int = 6,
    workers: int = 0,
    cache_dir: str | Path | None = None,
    platform: Platform | None = None,
    strategy: str | None = None,
    on_event=None,
) -> MulticoreSummary:
    """Run the multicore partition sweep (and its single-core baseline).

    ``workers``/``cache_dir`` route the sweep through the partitioned
    engine's worker pool and persistent cache, exactly like the CLI's
    ``python -m repro multicore --workers N --cache-dir D``.
    ``strategy`` picks the per-core schedule search (default
    ``exhaustive``); ``platform`` rebuilds the case study on a
    different execution platform when no ``case`` is given;
    ``on_event`` receives the engine's typed progress events.
    """
    case = case or build_case_study(platform=platform)
    options = design_options or design_options_for_profile()
    started = time.perf_counter()
    with MulticoreProblem(
        case.apps,
        case.clock,
        n_cores=n_cores,
        design_options=options,
        max_count_per_core=max_count_per_core,
        workers=workers,
        cache_dir=cache_dir,
        platform=platform,
        on_event=on_event,
    ) as problem:
        best = problem.optimize(strategy=strategy or "exhaustive")
        # The one-block partition *is* the single-core problem; after
        # optimize() its evaluations are memoized, so this is free.
        single_block = tuple(range(len(case.apps)))
        single = problem.best_schedule_for_core(single_block)
        if single is None:
            single_schedule, single_overall = None, None
        else:
            single_schedule = single[0]
            single_overall = sum(
                case.apps[i].weight * performance
                for i, performance in single[2].items()
            )
        return MulticoreSummary(
            n_cores=n_cores,
            app_names=[app.name for app in case.apps],
            best=best,
            single_schedule=single_schedule,
            single_overall=single_overall,
            engine_stats=problem.engine.stats.as_dict(),
            engine_summary=problem.engine.stats.summary(),
            backend=problem.engine.backend_name,
            wall_time=time.perf_counter() - started,
            max_count_per_core=max_count_per_core,
        )


def evaluation_to_data(evaluation: MulticoreEvaluation) -> dict:
    """JSON-safe form of one :class:`MulticoreEvaluation`."""
    return {
        "cores": [
            {
                "app_indices": [int(i) for i in core.app_indices],
                "schedule": [int(m) for m in core.schedule.counts],
                "ways": core.ways,
            }
            for core in evaluation.cores
        ],
        "settling": {str(k): float(v) for k, v in evaluation.settling.items()},
        "performances": {
            str(k): float(v) for k, v in evaluation.performances.items()
        },
        "overall": float(evaluation.overall),
        "feasible": bool(evaluation.feasible),
    }


def evaluation_from_data(data: dict) -> MulticoreEvaluation:
    """Inverse of :func:`evaluation_to_data`."""
    return MulticoreEvaluation(
        cores=tuple(
            CoreAssignment(
                app_indices=tuple(int(i) for i in core["app_indices"]),
                schedule=PeriodicSchedule(tuple(int(m) for m in core["schedule"])),
                ways=core["ways"],
            )
            for core in data["cores"]
        ),
        settling={int(k): float(v) for k, v in data["settling"].items()},
        performances={
            int(k): float(v) for k, v in data["performances"].items()
        },
        overall=float(data["overall"]),
        feasible=bool(data["feasible"]),
    )


def summary_run_report(
    summary: MulticoreSummary,
    case: CaseStudy,
    options: DesignOptions,
    platform: Platform | None,
    strategy: str | None,
    shared_cache: bool = False,
    name: str = "casestudy-multicore",
) -> RunReport:
    """The partition sweep recorded as a structured run report.

    Rebuilds the :class:`~repro.sched.engine.batch.Scenario` /
    :class:`~repro.sched.engine.batch.ScenarioOutcome` pair the
    ``Study`` facade would have produced for the same co-design, so
    the experiment's embedded reports are directly comparable with
    ``python -m repro multicore`` artifacts.  (The shared-cache
    experiment records each of its two sweeps by passing a per-side
    proxy ``summary``.)
    """
    evaluation = summary.best
    stats = summary.engine_stats
    scenario = Scenario(
        name=name,
        apps=case.apps,
        clock=case.clock,
        design_options=options,
        strategy=strategy or "exhaustive",
        n_cores=summary.n_cores,
        max_count_per_core=summary.max_count_per_core,
        platform=platform,
        shared_cache=shared_cache,
    )
    outcome = ScenarioOutcome(
        name=name,
        strategy=scenario.strategy,
        result=None,
        wall_time=summary.wall_time,
        n_space=int(stats.get("n_requested", 0)),
        engine_stats=stats,
        backend=summary.backend,
        n_apps=len(case.apps),
        n_cores=summary.n_cores,
        multicore=evaluation,
    )
    return RunReport.from_outcome(scenario, outcome)


@register_experiment
class MulticoreExperiment:
    """Multicore extension — partitioning gain over one core."""

    name = "multicore"
    supports_out = False
    supports_strategy = True  # per-core schedule search
    supports_max_count = True  # per-core burst-length cap

    def build(self, request: ExperimentRequest) -> ExperimentReport:
        case = build_case_study(platform=request.platform)
        options = request.design_options or design_options_for_profile()
        summary = run(
            case=case,
            design_options=options,
            max_count_per_core=request.max_count_per_core,
            workers=request.workers,
            cache_dir=request.cache_dir,
            platform=request.platform,
            strategy=request.strategy,
            on_event=request.on_event,
        )
        data = {
            "n_cores": int(summary.n_cores),
            "app_names": list(summary.app_names),
            "best": evaluation_to_data(summary.best),
            "single_schedule": (
                [int(m) for m in summary.single_schedule.counts]
                if summary.single_schedule is not None
                else None
            ),
            "single_overall": (
                float(summary.single_overall)
                if summary.single_overall is not None
                else None
            ),
            "engine_stats": summary.engine_stats,
            "engine_summary": summary.engine_summary,
            "backend": summary.backend,
            "wall_time": float(summary.wall_time),
            "max_count_per_core": int(summary.max_count_per_core),
        }
        report = summary_run_report(
            summary, case, options, request.platform, request.strategy
        )
        return new_report(
            self.name,
            data=data,
            run_reports=[report],
            platform=request.platform,
        )

    def render(self, report: ExperimentReport) -> str:
        return self.result_from(report).render()

    @staticmethod
    def result_from(report: ExperimentReport) -> MulticoreSummary:
        """Rebuild the summary from a (possibly resumed) report."""
        data = report.data
        return MulticoreSummary(
            n_cores=int(data["n_cores"]),
            app_names=list(data["app_names"]),
            best=evaluation_from_data(data["best"]),
            single_schedule=(
                PeriodicSchedule(tuple(data["single_schedule"]))
                if data["single_schedule"] is not None
                else None
            ),
            single_overall=data["single_overall"],
            engine_stats=dict(data["engine_stats"]),
            engine_summary=str(data["engine_summary"]),
            backend=str(data["backend"]),
            wall_time=float(data["wall_time"]),
            max_count_per_core=int(data["max_count_per_core"]),
        )
