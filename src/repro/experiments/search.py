"""Experiment E5 — Section V search statistics.

Reruns the paper's schedule-space experiment:

* enumerate the idle-feasible space (paper: 76 schedules) and evaluate
  all of them exhaustively (paper: 74 turn out feasible);
* run the hybrid search from the paper's two start schedules (4,2,2)
  and (1,2,1) (paper: 9 and 18 evaluations, both reaching the optimum
  (3,2,3) with overall performance 0.195).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.casestudy import PAPER_BEST_OVERALL, build_case_study
from ..core.report import render_table
from ..sched.schedule import PeriodicSchedule
from ..study import RunReport, Study
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
    """Our statistics next to the paper's.

    ``exhaustive`` and ``hybrids`` are the
    :class:`~repro.study.RunReport` of the exhaustive sweep and of one
    hybrid search per start; every statistic is read from them.
    """

    exhaustive: RunReport
    hybrids: list[RunReport]

    @property
    def n_enumerated(self) -> int:
        """Size of the idle-feasible schedule space."""
        return self.exhaustive.n_space

    @property
    def n_feasible(self) -> int:
        """Schedules the exhaustive sweep found feasible."""
        return self.exhaustive.search_stats["n_feasible"]

    @property
    def optimum(self) -> PeriodicSchedule:
        return PeriodicSchedule(tuple(self.exhaustive.best_schedule))

    @property
    def best_overall(self) -> float:
        return self.exhaustive.overall

    @property
    def infeasible_schedules(self) -> list[PeriodicSchedule]:
        """Schedules of the sweep that miss a settling deadline."""
        return [
            PeriodicSchedule(tuple(counts))
            for counts in self.exhaustive.search_stats["infeasible"]
        ]

    @property
    def round_robin_overall(self) -> float:
        """Overall performance of round robin, which the sweep evaluated
        (it is in every non-empty idle-feasible space)."""
        round_robin = PeriodicSchedule.round_robin(len(self.exhaustive.apps))
        return self.exhaustive.search_stats["overalls"][round_robin.text]

    @property
    def hybrid_evaluations(self) -> dict[tuple[int, ...], int]:
        """Evaluations of the hybrid search, per start."""
        return {
            report.spec.starts[0]: report.search_stats["n_evaluations"]
            for report in self.hybrids
        }

    @property
    def hybrid_optima(self) -> dict[tuple[int, ...], PeriodicSchedule]:
        """Schedule the hybrid search ended on, per start."""
        return {
            report.spec.starts[0]: PeriodicSchedule(tuple(report.best_schedule))
            for report in self.hybrids
        }

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


@register_experiment
class SearchExperiment:
    """Section V search statistics — exhaustive vs hybrid."""

    name = "search"
    supports_out = False

    def build(self, request: ExperimentRequest) -> ExperimentReport:
        """Rerun the schedule-space experiment.

        The exhaustive sweep and one hybrid search per paper start are
        the three scenarios of one :class:`~repro.study.Study`.  They
        share one problem, so the hybrids are served from the designs
        the sweep computed; each still counts its own evaluations, as
        the paper reports per-start counts.  The infeasible list and
        the round-robin baseline come from the sweep's report.
        ``on_event`` receives the study's events.
        """
        case = build_case_study(platform=request.platform)
        exhaustive = request.scenario("casestudy-exhaustive", case, strategy="exhaustive")
        hybrids = [
            request.scenario(
                f"casestudy-hybrid-{_start_label(start)}",
                case,
                strategy="hybrid",
                starts=(start.counts,),
            )
            for start in PAPER_STARTS
        ]
        study = Study.from_scenarios([exhaustive, *hybrids], request.engine_options())
        return new_report(
            self.name, data={}, run_reports=study.run(on_event=request.on_event)
        )

    def render(self, report: ExperimentReport) -> str:
        return self.result_from(report).render()

    @staticmethod
    def result_from(report: ExperimentReport) -> SearchResultSummary:
        """Rebuild the summary from a (possibly resumed) report."""
        exhaustive, *hybrids = report.run_reports
        return SearchResultSummary(exhaustive=exhaustive, hybrids=hybrids)
