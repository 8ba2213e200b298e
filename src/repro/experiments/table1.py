"""Experiment E1 — paper Table I: WCETs with and without cache reuse.

Regenerates the three applications' cold WCET, guaranteed WCET reduction
and warm WCET from the instruction programs through both the static
(must/may) analysis and the concrete trace simulation, and compares with
the paper's microsecond values.  The calibrated programs reproduce the
table exactly (deviation 0.00 us).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from ..apps.casestudy import PAPER_TABLE1_US, build_case_study
from ..cache.config import CacheConfig
from ..core.report import render_table
from ..errors import ConfigurationError
from ..identity import diff
from ..platform import Platform
from ..units import Clock
from ..wcet.reuse import analyze_task_wcets
from .registry import ExperimentRequest, register_experiment
from .report import ExperimentReport, new_report


@dataclass
class Table1Row:
    """One application's WCET triple, ours vs the paper's."""

    app_name: str
    cold_us: float
    reduction_us: float
    warm_us: float
    paper_cold_us: float
    paper_reduction_us: float
    paper_warm_us: float

    @property
    def max_deviation_us(self) -> float:
        """Largest absolute difference to the paper, in microseconds."""
        return max(
            abs(self.cold_us - self.paper_cold_us),
            abs(self.reduction_us - self.paper_reduction_us),
            abs(self.warm_us - self.paper_warm_us),
        )


@dataclass
class Table1Result:
    """All rows plus the analysis method agreement flag."""

    rows: list[Table1Row]
    methods_agree: bool

    @property
    def max_deviation_us(self) -> float:
        """Largest deviation across the whole table."""
        return max(row.max_deviation_us for row in self.rows)

    def render(self) -> str:
        table = render_table(
            ["Application", "WCET w/o reuse", "Guaranteed reduction", "WCET w/ reuse",
             "paper w/o", "paper red.", "paper w/"],
            [
                [
                    row.app_name,
                    f"{row.cold_us:.2f} us",
                    f"{row.reduction_us:.2f} us",
                    f"{row.warm_us:.2f} us",
                    f"{row.paper_cold_us:.2f}",
                    f"{row.paper_reduction_us:.2f}",
                    f"{row.paper_warm_us:.2f}",
                ]
                for row in self.rows
            ],
            title="Table I: WCET results with and without cache reuse",
        )
        return (
            table
            + f"\nmax deviation from paper: {self.max_deviation_us:.2f} us"
            + f"\nstatic and concrete analyses agree: {self.methods_agree}"
        )


def run(cache_config: CacheConfig | None = None) -> Table1Result:
    """Regenerate Table I."""
    case = build_case_study(cache_config)
    clock = Clock(20e6)
    rows = []
    agree = True
    for program in case.programs:
        static = analyze_task_wcets(program, case.cache_config, "static")
        concrete = analyze_task_wcets(program, case.cache_config, "concrete")
        agree = agree and (
            static.cold_cycles == concrete.cold_cycles
            and static.warm_cycles == concrete.warm_cycles
        )
        paper = PAPER_TABLE1_US[program.name]
        rows.append(
            Table1Row(
                app_name=program.name,
                cold_us=clock.cycles_to_us(static.cold_cycles),
                reduction_us=clock.cycles_to_us(static.reduction_cycles),
                warm_us=clock.cycles_to_us(static.warm_cycles),
                paper_cold_us=paper[0],
                paper_reduction_us=paper[1],
                paper_warm_us=paper[2],
            )
        )
    return Table1Result(rows=rows, methods_agree=agree)


@register_experiment
class Table1Experiment:
    """Table I — WCETs with and without cache reuse."""

    name = "table1"
    supports_out = False

    def check_request(self, request: ExperimentRequest) -> None:
        """Only the platform's cache moves Table I: it reports at the
        paper's 20 MHz clock through both WCET models, so any other
        platform change would fork the artifact without changing it."""
        if request.platform is None:
            return
        default = Platform()
        differs = diff(replace(request.platform, cache=default.cache), default)
        if differs:
            raise ConfigurationError(
                f"experiment 'table1' takes only the platform's cache (it "
                f"reports at the paper's 20 MHz clock through both WCET "
                f"models); got a non-default {', '.join(differs)}"
            )

    def build(self, request: ExperimentRequest) -> ExperimentReport:
        result = run(request.platform.cache if request.platform else None)
        return new_report(
            self.name,
            data={
                "rows": [asdict(row) for row in result.rows],
                "methods_agree": bool(result.methods_agree),
            },
        )

    def render(self, report: ExperimentReport) -> str:
        return self.result_from(report).render()

    @staticmethod
    def result_from(report: ExperimentReport) -> Table1Result:
        """Rebuild the result object from a (possibly resumed) report."""
        return Table1Result(
            rows=[Table1Row(**row) for row in report.data["rows"]],
            methods_agree=bool(report.data["methods_agree"]),
        )
