"""Experiment E5 — Section V search statistics.

Reruns the paper's schedule-space experiment:

* enumerate the idle-feasible space (paper: 76 schedules) and evaluate
  all of them exhaustively (paper: 74 turn out feasible);
* run the hybrid search from the paper's two start schedules (4,2,2)
  and (1,2,1) (paper: 9 and 18 evaluations, both reaching the optimum
  (3,2,3) with overall performance 0.195).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..apps.casestudy import CaseStudy, PAPER_BEST_OVERALL, build_case_study
from ..control.design import DesignOptions
from ..core.report import render_table
from ..platform import Platform
from ..sched.engine import EngineOptions
from ..sched.engine.batch import Scenario, scenario_engine, search_scenario
from ..sched.feasibility import enumerate_idle_feasible
from ..sched.schedule import PeriodicSchedule
from ..study import RunReport, RunSpec, Study
from .profiles import design_options_for_profile
from .registry import ExperimentRequest, register_experiment
from .report import ExperimentReport, new_report

#: The paper's two random hybrid-search starts.
PAPER_STARTS = (PeriodicSchedule.of(4, 2, 2), PeriodicSchedule.of(1, 2, 1))

#: Paper Section V statistics for comparison.
PAPER_STATS = {
    "n_enumerated": 76,
    "n_feasible": 74,
    "optimum": PeriodicSchedule.of(3, 2, 3),
    "best_overall": PAPER_BEST_OVERALL,
    "hybrid_evaluations": {PAPER_STARTS[0].counts: 9, PAPER_STARTS[1].counts: 18},
}


@dataclass
class SearchResultSummary:
    """Our statistics next to the paper's."""

    n_enumerated: int
    n_feasible: int
    optimum: PeriodicSchedule
    best_overall: float
    round_robin_overall: float
    hybrid_evaluations: dict[tuple[int, ...], int]
    hybrid_optima: dict[tuple[int, ...], PeriodicSchedule]
    infeasible_schedules: list[PeriodicSchedule]
    #: One :class:`~repro.study.RunReport` per search that ran — the
    #: exhaustive sweep plus one hybrid search per start.
    run_reports: list[RunReport] = field(default_factory=list)

    @property
    def hybrid_found_optimum(self) -> bool:
        """Whether every hybrid start reached the exhaustive optimum."""
        return all(s == self.optimum for s in self.hybrid_optima.values())

    @property
    def hybrid_cheaper_than_exhaustive(self) -> bool:
        """The paper's efficiency claim."""
        return all(
            count < self.n_enumerated
            for count in self.hybrid_evaluations.values()
        )

    def render(self) -> str:
        rows = [
            ["idle-feasible schedules enumerated", str(self.n_enumerated),
             str(PAPER_STATS["n_enumerated"])],
            ["feasible after evaluation", str(self.n_feasible),
             str(PAPER_STATS["n_feasible"])],
            ["optimal schedule", str(self.optimum), str(PAPER_STATS["optimum"])],
            ["best overall performance", f"{self.best_overall:.4f}",
             f"{PAPER_STATS['best_overall']:.3f}"],
            ["round-robin overall performance", f"{self.round_robin_overall:.4f}", "-"],
        ]
        for start, count in self.hybrid_evaluations.items():
            paper_count = PAPER_STATS["hybrid_evaluations"].get(start, "-")
            rows.append(
                [
                    f"hybrid evaluations from {PeriodicSchedule(start)}",
                    f"{count} -> {self.hybrid_optima[start]}",
                    str(paper_count),
                ]
            )
        table = render_table(
            ["statistic", "this reproduction", "paper"],
            rows,
            title="Section V: schedule-space search",
        )
        extras = (
            "\nhybrid reached the global optimum from every start: "
            f"{self.hybrid_found_optimum}"
            "\nsettling-infeasible schedules: "
            f"{[str(s) for s in self.infeasible_schedules]}"
        )
        return table + extras


def _start_label(start: PeriodicSchedule) -> str:
    return "x".join(str(count) for count in start.counts)


def run(
    case: CaseStudy | None = None,
    design_options: DesignOptions | None = None,
    starts: tuple[PeriodicSchedule, ...] = PAPER_STARTS,
    workers: int = 0,
    cache_dir: str | Path | None = None,
    platform: Platform | None = None,
    on_event=None,
) -> SearchResultSummary:
    """Rerun the schedule-space experiment.

    ``workers``/``cache_dir`` route every evaluation through the batch
    search engine (parallel workers, persistent cache); the default is
    the original serial in-memory path.  With a shared ``cache_dir`` the
    exhaustive sweep warms the per-start hybrid searches and any later
    rerun of the whole experiment.  ``platform`` rebuilds the case
    study on a different execution platform when no ``case`` is given.

    The exhaustive sweep runs on one warm engine, which afterwards
    answers the infeasible list and the round-robin baseline from its
    memo.  The hybrid searches run through one
    :class:`~repro.study.Study`, one scenario per start on a fresh
    engine each, so every evaluation count is that of a standalone
    search (the paper reports per-start counts).  ``on_event`` receives
    the exhaustive engine's typed progress events and the study's
    events.  Every search that ran is recorded as a
    :class:`~repro.study.RunReport` in
    :attr:`SearchResultSummary.run_reports`.
    """
    case = case or build_case_study(platform=platform)
    options = design_options or design_options_for_profile()
    engine_options = EngineOptions(workers=workers, cache_dir=cache_dir)

    def scenario(name: str, **run) -> Scenario:
        spec = RunSpec(platform=platform, **run)
        return Scenario(name, case.apps, case.clock, options, spec)

    exhaustive_scenario = scenario("casestudy-exhaustive", strategy="exhaustive")
    hybrids = Study.from_scenarios(
        [
            scenario(
                f"casestudy-hybrid-{_start_label(start)}",
                strategy="hybrid",
                starts=(start.counts,),
            )
            for start in starts
        ],
        engine_options,
    )
    with scenario_engine(exhaustive_scenario, engine_options, on_event) as engine:
        # Reported before the infeasibility/round-robin extras below, so
        # the report accounts the exhaustive sweep alone.
        exhaustive = search_scenario(exhaustive_scenario, engine)
        hybrid_reports = hybrids.run(on_event=on_event)
        space = enumerate_idle_feasible(case.apps, case.clock)
        infeasible = [
            schedule for schedule in space if not engine.evaluate(schedule).feasible
        ]
        round_robin = engine.evaluate(PeriodicSchedule.round_robin(len(case.apps)))
    return SearchResultSummary(
        n_enumerated=len(space),
        n_feasible=exhaustive.search_stats["n_feasible"],
        optimum=PeriodicSchedule(tuple(exhaustive.best_schedule)),
        best_overall=exhaustive.overall,
        round_robin_overall=round_robin.overall,
        hybrid_evaluations={
            start.counts: report.search_stats["n_evaluations"]
            for start, report in zip(starts, hybrid_reports)
        },
        hybrid_optima={
            start.counts: PeriodicSchedule(tuple(report.best_schedule))
            for start, report in zip(starts, hybrid_reports)
        },
        infeasible_schedules=infeasible,
        run_reports=[exhaustive, *hybrid_reports],
    )


@register_experiment
class SearchExperiment:
    """Section V search statistics — exhaustive vs hybrid."""

    name = "search"
    supports_out = False

    def build(self, request: ExperimentRequest) -> ExperimentReport:
        result = run(
            design_options=request.design_options,
            workers=request.workers,
            cache_dir=request.cache_dir,
            platform=request.platform,
            on_event=request.on_event,
        )
        data = {
            "n_enumerated": int(result.n_enumerated),
            "n_feasible": int(result.n_feasible),
            "optimum": list(result.optimum.counts),
            "best_overall": float(result.best_overall),
            "round_robin_overall": float(result.round_robin_overall),
            "hybrid": [
                {
                    "start": list(start),
                    "evaluations": int(result.hybrid_evaluations[start]),
                    "optimum": list(result.hybrid_optima[start].counts),
                }
                for start in result.hybrid_evaluations
            ],
            "infeasible": [
                list(schedule.counts)
                for schedule in result.infeasible_schedules
            ],
        }
        return new_report(
            self.name,
            data=data,
            run_reports=result.run_reports,
            platform=request.platform,
        )

    def render(self, report: ExperimentReport) -> str:
        return self.result_from(report).render()

    @staticmethod
    def result_from(report: ExperimentReport) -> SearchResultSummary:
        """Rebuild the summary from a (possibly resumed) report."""
        data = report.data
        return SearchResultSummary(
            n_enumerated=int(data["n_enumerated"]),
            n_feasible=int(data["n_feasible"]),
            optimum=PeriodicSchedule(tuple(data["optimum"])),
            best_overall=float(data["best_overall"]),
            round_robin_overall=float(data["round_robin_overall"]),
            hybrid_evaluations={
                tuple(entry["start"]): int(entry["evaluations"])
                for entry in data["hybrid"]
            },
            hybrid_optima={
                tuple(entry["start"]): PeriodicSchedule(tuple(entry["optimum"]))
                for entry in data["hybrid"]
            },
            infeasible_schedules=[
                PeriodicSchedule(tuple(counts)) for counts in data["infeasible"]
            ],
            run_reports=list(report.run_reports),
        )

