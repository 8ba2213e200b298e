"""Experiment E3 — paper Table III: control performance comparison.

Evaluates the cache-oblivious round-robin schedule (1,1,1) and the
paper's optimal cache-aware schedule (3,2,3) with the holistic
controller design, and reports per-application settling times and the
relative improvement (the paper's "control performance improvement").
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..apps.casestudy import PAPER_TABLE3, CaseStudy, build_case_study
from ..control.design import DesignOptions
from ..core.report import format_percent, format_seconds_ms, render_table
from ..sched.schedule import PeriodicSchedule
from .profiles import design_options_for_profile
from .registry import ExperimentRequest, register_experiment
from .report import ExperimentReport, new_report


@dataclass
class Table3Row:
    """One application's settling comparison."""

    app_name: str
    settling_rr: float
    settling_ca: float
    paper_rr: float
    paper_ca: float
    paper_improvement: float

    @property
    def improvement(self) -> float:
        """Relative settling reduction of the cache-aware schedule."""
        return 1.0 - self.settling_ca / self.settling_rr


@dataclass
class Table3Result:
    """All rows plus the overall performances."""

    rows: list[Table3Row]
    overall_rr: float
    overall_ca: float
    rr_feasible: bool
    ca_feasible: bool

    @property
    def all_improved(self) -> bool:
        """Whether the cache-aware schedule improved every application."""
        return all(row.improvement > 0 for row in self.rows)

    def render(self) -> str:
        table = render_table(
            ["Application", "Settling (1,1,1)", "Settling (3,2,3)", "Improvement",
             "paper (1,1,1)", "paper (3,2,3)", "paper impr."],
            [
                [
                    row.app_name,
                    format_seconds_ms(row.settling_rr),
                    format_seconds_ms(row.settling_ca),
                    format_percent(row.improvement),
                    format_seconds_ms(row.paper_rr),
                    format_seconds_ms(row.paper_ca),
                    format_percent(row.paper_improvement),
                ]
                for row in self.rows
            ],
            title="Table III: control performance comparison",
        )
        return (
            table
            + f"\noverall performance: (1,1,1) {self.overall_rr:.4f}"
            + f" -> (3,2,3) {self.overall_ca:.4f}"
            + f"\nboth schedules feasible: {self.rr_feasible and self.ca_feasible}"
        )


def run(
    case: CaseStudy | None = None,
    design_options: DesignOptions | None = None,
) -> Table3Result:
    """Regenerate Table III."""
    case = case or build_case_study()
    evaluator = case.evaluator(design_options or design_options_for_profile())
    rr_eval = evaluator.evaluate(PeriodicSchedule.round_robin(len(case.apps)))
    ca_eval = evaluator.evaluate(PeriodicSchedule.of(3, 2, 3))
    rows = []
    for rr_app, ca_app in zip(rr_eval.apps, ca_eval.apps):
        paper_rr, paper_ca, paper_impr = PAPER_TABLE3[rr_app.app_name]
        rows.append(
            Table3Row(
                app_name=rr_app.app_name,
                settling_rr=rr_app.settling,
                settling_ca=ca_app.settling,
                paper_rr=paper_rr,
                paper_ca=paper_ca,
                paper_improvement=paper_impr,
            )
        )
    return Table3Result(
        rows=rows,
        overall_rr=rr_eval.overall,
        overall_ca=ca_eval.overall,
        rr_feasible=rr_eval.feasible,
        ca_feasible=ca_eval.feasible,
    )


@register_experiment
class Table3Experiment:
    """Table III — settling-time comparison (1,1,1) vs (3,2,3)."""

    name = "table3"
    supports_out = False

    def build(self, request: ExperimentRequest) -> ExperimentReport:
        case = (
            build_case_study(platform=request.platform)
            if request.platform
            else None
        )
        result = run(case, request.design_options)
        return new_report(
            self.name,
            data={
                "rows": [asdict(row) for row in result.rows],
                "overall_rr": float(result.overall_rr),
                "overall_ca": float(result.overall_ca),
                "rr_feasible": bool(result.rr_feasible),
                "ca_feasible": bool(result.ca_feasible),
            },
        )

    def render(self, report: ExperimentReport) -> str:
        return self.result_from(report).render()

    @staticmethod
    def result_from(report: ExperimentReport) -> Table3Result:
        """Rebuild the result object from a (possibly resumed) report."""
        data = report.data
        return Table3Result(
            rows=[Table3Row(**row) for row in data["rows"]],
            overall_rr=float(data["overall_rr"]),
            overall_ca=float(data["overall_ca"]),
            rr_feasible=bool(data["rr_feasible"]),
            ca_feasible=bool(data["ca_feasible"]),
        )
