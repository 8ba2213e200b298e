"""Experiment E8 — feedback scheduling under a load transient.

The paper's co-design is a one-shot offline optimization for nominal
load.  This experiment asks what that choice costs once the load moves:
the case study runs through the discrete-event simulator
(:mod:`repro.sim`) under the canonical load transient — nominal demand,
an overload burst that pushes the static optimum past its scaled idle
budget, then recovery — twice:

* **static**: the offline optimum stays in place for the whole horizon
  (``adapt=False``), paying full cost wherever the overload makes it
  infeasible;
* **adaptive**: the feedback loop re-optimizes on every load change
  through the registered ``online`` strategy (warm engine, so each
  adaptation is cache hits, not fresh co-design) and switches schedules
  after the simulated adaptation latency.

The gap between the two time-averaged costs is what feedback
scheduling buys on this workload.  Both simulations are deterministic
and wall-clock-free, so reruns — and ``--run-dir`` resumes — are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from ..apps.casestudy import build_case_study
from ..core.report import render_table
from ..sim.profiles import load_transient
from ..sim.report import SimReport
from ..study import RunReport, Study
from .registry import ExperimentRequest, register_experiment
from .report import ExperimentReport, new_report

#: Demand multiplier of the overload burst and the simulated horizon (s).
STRESS, HORIZON = 1.46, 1.0


@dataclass
class FeedbackSummary:
    """Adaptive feedback scheduling next to the static baseline: the
    :class:`~repro.study.RunReport` of each run, which records its load
    transient (``spec.dynamic``) and its simulation (``sim``)."""

    static: RunReport
    adaptive: RunReport

    @property
    def stress(self) -> float:
        """Demand multiplier of the overload burst."""
        return max(
            max(demands) for _at, demands in self.adaptive.spec.dynamic.disturbances
        )

    @property
    def horizon(self) -> float:
        """Simulated horizon (s)."""
        return self.adaptive.spec.dynamic.horizon

    @cached_property
    def static_sim(self) -> SimReport:
        return SimReport.from_dict(self.static.sim)

    @cached_property
    def adaptive_sim(self) -> SimReport:
        return SimReport.from_dict(self.adaptive.sim)

    @property
    def static_cost(self) -> float:
        """Time-averaged cost of holding the offline optimum."""
        return self.static_sim.mean_cost

    @property
    def adaptive_cost(self) -> float:
        """Time-averaged cost with the feedback loop adapting."""
        return self.adaptive_sim.mean_cost

    @property
    def improvement(self) -> float:
        """Cost the feedback loop saves (static minus adaptive)."""
        return self.static_cost - self.adaptive_cost

    def render(self) -> str:
        rows = []
        for record in self.adaptive_sim.adaptations:
            to = record.get("to")
            rows.append(
                [
                    f"{record['at']:.3f}",
                    "(" + ", ".join(f"{d:g}" for d in record["demands"]) + ")",
                    str(tuple(record["from"])),
                    str(tuple(to)) if to is not None else "failed",
                    "yes" if record.get("switched") else "no",
                    f"{record['latency'] * 1e3:.2f}",
                    str(record["engine"].get("n_requested", 0)),
                ]
            )
        adaptation_table = render_table(
            ["t (s)", "demands", "from", "to", "switched",
             "latency (ms)", "requested"],
            rows,
            title=(
                f"adaptations ({self.adaptive_sim.adapt_strategy} strategy, "
                f"stress x{self.stress:g})"
            ),
        )
        return (
            adaptation_table
            + f"\n\nstatic   optimum {tuple(self.adaptive.best_schedule)}"
            f" (P_all = {self.adaptive.overall:.4f})"
            + f"\nstatic   mean cost = {self.static_cost:.4f}"
            " (schedule held for the whole horizon)"
            + f"\nadaptive mean cost = {self.adaptive_cost:.4f}"
            f" ({self.adaptive_sim.n_adaptations} adaptations)"
            + f"\nfeedback-scheduling gain: {self.improvement:+.4f}"
            + "\nengine: "
            + "; ".join(
                f"{name}: {report.engine_stats['n_requested']} requested / "
                f"{report.engine_stats['n_computed']} computed"
                for name, report in (("static", self.static), ("adaptive", self.adaptive))
            )
        )


@register_experiment
class FeedbackExperiment:
    """Feedback scheduling vs the static optimum under a load transient."""

    name = "feedback"
    supports_out = False
    #: ``strategy`` is the offline search the simulation starts from.
    run_fields = ("platform", "strategy")

    def build(self, request: ExperimentRequest) -> ExperimentReport:
        """Run the static-vs-adaptive comparison on the case study.

        Both runs simulate the *same* load transient; only ``adapt``
        differs.  They are the two scenarios of one
        :class:`~repro.study.Study`, so ``on_event`` receives the
        study's events — scenario started/finished, engine progress and
        every runtime simulation event as a
        :class:`~repro.study.events.SimulationProgress`.  The two runs
        share one problem, so the adaptive run's offline search is
        served from the static run's design memo and only its
        re-optimizations can compute.
        """
        case = build_case_study(platform=request.platform)
        profile = load_transient(len(case.apps), horizon=HORIZON, stress=STRESS)
        study = Study.from_scenarios(
            [
                request.scenario(
                    f"casestudy-{name}", case, dynamic=replace(profile, adapt=adapt)
                )
                for name, adapt in (("static", False), ("adaptive", True))
            ],
            request.engine_options(),
        )
        # Everything the summary shows is read from the two reports.
        return new_report(
            self.name, data={}, run_reports=study.run(on_event=request.on_event)
        )

    def render(self, report: ExperimentReport) -> str:
        return self.result_from(report).render()

    @staticmethod
    def result_from(report: ExperimentReport) -> FeedbackSummary:
        """Rebuild the summary from a (possibly resumed) report."""
        return FeedbackSummary(*report.run_reports)
