"""Experiment E2 — paper Table II: application parameters.

Table II is configuration, not measurement; this experiment verifies the
built case study carries exactly the paper's weights, settling deadlines
and maximum allowed idle times, and renders them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.casestudy import PAPER_TABLE2, build_case_study
from ..core.report import render_table
from .registry import ExperimentRequest, register_experiment
from .report import ExperimentReport, new_report


@dataclass
class Table2Result:
    """Rendered parameters plus the exact-match flag."""

    rows: list[list[str]]
    matches_paper: bool

    def render(self) -> str:
        table = render_table(
            ["Application", "Weight", "Settling deadline", "Max idle time"],
            self.rows,
            title="Table II: application parameters",
        )
        return table + f"\nmatches paper: {self.matches_paper}"


def run() -> Table2Result:
    """Regenerate Table II from the built case study."""
    case = build_case_study()
    rows = []
    matches = True
    for app in case.apps:
        paper_weight, paper_deadline, paper_idle = PAPER_TABLE2[app.name]
        matches = matches and (
            app.weight == paper_weight
            and app.spec.deadline == paper_deadline
            and app.max_idle == paper_idle
        )
        rows.append(
            [
                app.name,
                f"{app.weight:.1f}",
                f"{app.spec.deadline * 1e3:.1f} ms",
                f"{app.max_idle * 1e3:.1f} ms",
            ]
        )
    return Table2Result(rows=rows, matches_paper=matches)


@register_experiment
class Table2Experiment:
    """Table II — application parameters."""

    name = "table2"
    supports_out = False
    #: Table II is the case study's configuration: no run field moves it.
    run_fields = ()

    def build(self, request: ExperimentRequest) -> ExperimentReport:
        result = run()
        return new_report(
            self.name,
            data={
                "rows": [list(row) for row in result.rows],
                "matches_paper": bool(result.matches_paper),
            },
        )

    def render(self, report: ExperimentReport) -> str:
        return self.result_from(report).render()

    @staticmethod
    def result_from(report: ExperimentReport) -> Table2Result:
        """Rebuild the result object from a (possibly resumed) report."""
        return Table2Result(
            rows=[list(row) for row in report.data["rows"]],
            matches_paper=bool(report.data["matches_paper"]),
        )
