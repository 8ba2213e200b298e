"""Experiment E6 — multicore extension (paper Section VI).

The paper notes the framework "can be naturally extended to a
multi-core architecture, where each core has its own cache".  This
experiment quantifies that extension on the case study: partition the
three applications onto two private-cache cores (through the
search engine's per-core blocks), and compare the best partition's overall
control performance against the best single-core schedule of the same
sweep — the single-core problem is just the one-block partition, so the
comparison comes from one engine run and one shared cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.casestudy import build_case_study
from ..core.report import render_table
from ..multicore import MulticoreProblem
from ..sched.engine.batch import scenario_engine, search_scenario
from ..sched.schedule import PeriodicSchedule
from ..study import RunReport
from .registry import ExperimentRequest, register_experiment
from .report import ExperimentReport, new_report


@dataclass
class MulticoreSummary:
    """Multicore co-design next to the single-core baseline.

    ``sweep`` is the partition sweep's :class:`~repro.study.RunReport`;
    ``engine_summary`` accounts the whole experiment engine, baseline
    query included.
    """

    sweep: RunReport
    single_schedule: PeriodicSchedule | None
    single_overall: float | None
    engine_summary: str

    @property
    def improvement(self) -> float | None:
        """Absolute P_all gain of partitioning over one shared core."""
        if self.single_overall is None:
            return None
        return self.sweep.overall - self.single_overall

    def render(self) -> str:
        settling = [app["settling"] for app in self.sweep.apps]
        rows = [
            [
                str(core_index),
                ", ".join(core["apps"]),
                str(PeriodicSchedule(tuple(core["schedule"]))),
                ", ".join(f"{settling[i] * 1e3:.2f}" for i in core["app_indices"]),
            ]
            for core_index, core in enumerate(self.sweep.cores)
        ]
        table = render_table(
            ["core", "apps", "schedule", "settling (ms)"],
            rows,
            title=f"Section VI: {self.sweep.spec.n_cores}-core co-design",
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
            + f"\n\nmulticore P_all = {self.sweep.overall:.4f} "
            f"({len(self.sweep.cores)} cores used)"
            + f"\n{single}"
            + (
                f"\npartitioning gain: {self.improvement:+.4f}"
                if self.improvement is not None
                else ""
            )
            + f"\nengine: {self.engine_summary}"
        )


@register_experiment
class MulticoreExperiment:
    """Multicore extension — partitioning gain over one core."""

    name = "multicore"
    supports_out = False
    #: The per-core schedule search and burst-length cap.
    run_fields = ("platform", "strategy", "max_count_per_core")

    def build(self, request: ExperimentRequest) -> ExperimentReport:
        """Run the multicore partition sweep (and its single-core baseline).

        ``workers``/``cache_dir`` route the sweep through the
        scenario engine's worker pool and persistent cache, exactly
        like ``python -m repro multicore --workers N --cache-dir D``;
        ``strategy`` picks the per-core schedule search (default
        ``exhaustive``); ``on_event`` receives the engine's typed
        progress events.
        """
        case = build_case_study(platform=request.platform)
        scenario = request.scenario("casestudy-multicore", case, n_cores=2)
        with scenario_engine(
            scenario, request.engine_options(), request.on_event
        ) as engine:
            sweep = search_scenario(scenario, engine)
            # The one-block partition *is* the single-core problem; after
            # the sweep its evaluations are memoized, so this is free.
            single = MulticoreProblem(engine, scenario.spec).best_schedule_for_core(
                tuple(range(len(case.apps)))
            )
            engine_summary = engine.stats.summary()
        if single is None:
            single_schedule, single_overall = None, None
        else:
            single_schedule = list(single[0].counts)
            single_overall = sum(
                case.apps[i].weight * performance
                for i, performance in single[2].items()
            )
        data = {
            "single_schedule": single_schedule,
            "single_overall": single_overall,
            "engine_summary": engine_summary,
        }
        return new_report(self.name, data=data, run_reports=[sweep])

    def render(self, report: ExperimentReport) -> str:
        return self.result_from(report).render()

    @staticmethod
    def result_from(report: ExperimentReport) -> MulticoreSummary:
        """Rebuild the summary from a (possibly resumed) report."""
        data = report.data
        (sweep,) = report.run_reports
        single = data["single_schedule"]
        return MulticoreSummary(
            sweep=sweep,
            single_schedule=PeriodicSchedule(tuple(single)) if single else None,
            single_overall=data["single_overall"],
            engine_summary=str(data["engine_summary"]),
        )
