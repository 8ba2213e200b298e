"""Experiment E4 — paper Figure 6: system-output responses.

Simulates every application's worst-case tracking response under the
cache-oblivious (1,1,1) and cache-aware (3,2,3) schedules using the
controllers the holistic design produces, and renders the trajectories
as ASCII plots (the environment has no matplotlib) plus CSV files for
external plotting.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..apps.casestudy import CaseStudy, build_case_study
from ..control.design import DesignOptions
from ..control.simulate import build_simulation_plan, simulate_tracking
from ..sched.schedule import PeriodicSchedule
from ..viz.ascii_plot import plot_series
from .profiles import design_options_for_profile
from .registry import ExperimentRequest, register_experiment
from .report import ExperimentReport, new_report

#: Simulated duration after the reference step, matching the figure.
FIGURE_HORIZON = 0.05

#: Axis labels per application, matching the paper's figure.
OUTPUT_LABELS = {
    "C1": "system output y[k] [rad]",
    "C2": "system output y[k] [round/s]",
    "C3": "system output y[k] [N]",
}


@dataclass
class ResponseSeries:
    """One application's pair of trajectories."""

    app_name: str
    reference: float
    times_rr: np.ndarray
    outputs_rr: np.ndarray
    times_ca: np.ndarray
    outputs_ca: np.ndarray
    settling_rr: float
    settling_ca: float


@dataclass
class Fig6Result:
    """All six trajectories."""

    series: list[ResponseSeries]

    def render(self) -> str:
        blocks = []
        for entry in self.series:
            blocks.append(
                plot_series(
                    {
                        "cache-oblivious (1,1,1)": (entry.times_rr, entry.outputs_rr),
                        "optimal cache-aware": (entry.times_ca, entry.outputs_ca),
                    },
                    title=(
                        f"Fig. 6 — application {entry.app_name}: settling "
                        f"{entry.settling_rr * 1e3:.2f} ms -> {entry.settling_ca * 1e3:.2f} ms"
                    ),
                    y_label=OUTPUT_LABELS[entry.app_name],
                    x_label="time [s]",
                )
            )
        return "\n\n".join(blocks)

    def write_csv(self, directory: str | Path) -> list[Path]:
        """Dump each trajectory pair as ``fig6_<app>.csv``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for entry in self.series:
            path = directory / f"fig6_{entry.app_name.lower()}.csv"
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["schedule", "time_s", "output"])
                for t, y in zip(entry.times_rr, entry.outputs_rr):
                    writer.writerow(["(1,1,1)", f"{t:.6e}", f"{y:.6e}"])
                for t, y in zip(entry.times_ca, entry.outputs_ca):
                    writer.writerow(["(3,2,3)", f"{t:.6e}", f"{y:.6e}"])
            paths.append(path)
        return paths


def _trajectory(case: CaseStudy, evaluator, schedule, app_index):
    evaluation = evaluator.evaluate(schedule)
    app_eval = evaluation.apps[app_index]
    app = case.apps[app_index]
    timing = app_eval.timing
    plan = build_simulation_plan(
        app.plant.a, app.plant.b, app.plant.c,
        list(timing.periods), list(timing.delays), nsub=8,
    )
    x0, u0 = app.plant.equilibrium(app.spec.y0)
    result = simulate_tracking(
        plan,
        app_eval.design.gains,
        app_eval.design.feedforward,
        r=app.spec.r,
        x0=x0,
        u0=u0,
        horizon=FIGURE_HORIZON,
        band=app.spec.band,
        record=True,
    )
    return result.times, result.outputs[0], app_eval.settling


def run(
    case: CaseStudy | None = None,
    design_options: DesignOptions | None = None,
) -> Fig6Result:
    """Regenerate Figure 6's trajectories."""
    case = case or build_case_study()
    evaluator = case.evaluator(design_options or design_options_for_profile())
    rr = PeriodicSchedule.round_robin(len(case.apps))
    ca = PeriodicSchedule.of(3, 2, 3)
    series = []
    for index, app in enumerate(case.apps):
        t_rr, y_rr, s_rr = _trajectory(case, evaluator, rr, index)
        t_ca, y_ca, s_ca = _trajectory(case, evaluator, ca, index)
        series.append(
            ResponseSeries(
                app_name=app.name,
                reference=app.spec.r,
                times_rr=t_rr,
                outputs_rr=y_rr,
                times_ca=t_ca,
                outputs_ca=y_ca,
                settling_rr=s_rr,
                settling_ca=s_ca,
            )
        )
    return Fig6Result(series=series)


@register_experiment
class Fig6Experiment:
    """Figure 6 — system-output responses under both schedules."""

    name = "fig6"
    supports_out = True
    #: Historical CLI default for the CSV directory.
    default_out = "fig6_out"

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
                "series": [
                    {
                        "app_name": entry.app_name,
                        "reference": float(entry.reference),
                        "times_rr": [float(t) for t in entry.times_rr],
                        "outputs_rr": [float(y) for y in entry.outputs_rr],
                        "times_ca": [float(t) for t in entry.times_ca],
                        "outputs_ca": [float(y) for y in entry.outputs_ca],
                        "settling_rr": float(entry.settling_rr),
                        "settling_ca": float(entry.settling_ca),
                    }
                    for entry in result.series
                ]
            },
        )

    def render(self, report: ExperimentReport) -> str:
        return self.result_from(report).render()

    def write_outputs(self, report: ExperimentReport, directory) -> list[Path]:
        """Write the CSV files from a (possibly resumed) report."""
        return self.result_from(report).write_csv(directory)

    @staticmethod
    def result_from(report: ExperimentReport) -> Fig6Result:
        """Rebuild the result object from a (possibly resumed) report."""
        return Fig6Result(
            series=[
                ResponseSeries(
                    app_name=entry["app_name"],
                    reference=entry["reference"],
                    times_rr=np.asarray(entry["times_rr"]),
                    outputs_rr=np.asarray(entry["outputs_rr"]),
                    times_ca=np.asarray(entry["times_ca"]),
                    outputs_ca=np.asarray(entry["outputs_ca"]),
                    settling_rr=entry["settling_rr"],
                    settling_ca=entry["settling_ca"],
                )
                for entry in report.data["series"]
            ]
        )
