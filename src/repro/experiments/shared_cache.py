"""Experiment E7 — private caches vs one way-partitioned shared cache.

The paper's Section-VI extension gives every core a private copy of the
instruction cache.  Real multicore microcontrollers often share one
set-associative cache instead; partitioning its *ways* between the
cores (Sun et al.'s cache-partitioning / task-scheduling co-design)
isolates them again, at the price of smaller per-core capacity.  This
experiment quantifies that price on the case study: the same
set-associative platform is co-designed twice —

* **private**: every core owns the full cache (the classic sweep);
* **shared**: the cores split the cache's ways, and the way allocation
  is co-optimized with the partition and the per-core schedules —

and the gap between the two optima is the capacity cost of sharing
(equivalently: the gain private caches buy).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.casestudy import build_case_study
from ..core.report import render_table
from ..platform import shared_paper_platform
from ..sched.engine import stats_summary
from ..sched.schedule import PeriodicSchedule
from ..study import RunReport, Study
from .registry import ExperimentRequest, register_experiment
from .report import ExperimentReport, new_report


@dataclass
class SharedCacheSummary:
    """Shared-cache co-design next to the private-cache baseline: the
    :class:`~repro.study.RunReport` of each sweep."""

    private: RunReport
    shared: RunReport

    @property
    def partitioning_gain(self) -> float:
        """P_all advantage of private caches over the shared cache."""
        return self.private.overall - self.shared.overall

    def render(self) -> str:
        def rows_for(report: RunReport) -> list[list[str]]:
            settling = [app["settling"] for app in report.apps]
            return [
                [
                    str(core_index),
                    ", ".join(core["apps"]),
                    "full" if core["ways"] is None else str(core["ways"]),
                    str(PeriodicSchedule(tuple(core["schedule"]))),
                    ", ".join(
                        f"{settling[i] * 1e3:.2f}" for i in core["app_indices"]
                    ),
                ]
                for core_index, core in enumerate(report.cores)
            ]

        cache = self.private.spec.platform.cache
        header = ["core", "apps", "ways", "schedule", "settling (ms)"]
        private_table = render_table(
            header,
            rows_for(self.private),
            title=f"private caches ({cache.n_sets} x {cache.associativity} ways each)",
        )
        shared_table = render_table(
            header,
            rows_for(self.shared),
            title=f"shared cache ({cache.associativity} ways partitioned)",
        )
        return (
            private_table
            + f"\nprivate P_all = {self.private.overall:.4f}"
            + "\n\n"
            + shared_table
            + f"\nshared  P_all = {self.shared.overall:.4f}"
            + "\n\nprivate-vs-shared partitioning gain: "
            f"{self.partitioning_gain:+.4f}"
            + f"\nengine: private: {stats_summary(self.private.engine_stats)}; "
            f"shared: {stats_summary(self.shared.engine_stats)}"
        )


@register_experiment
class SharedCacheExperiment:
    """Private caches vs one way-partitioned shared cache."""

    name = "shared_cache"
    supports_out = False
    #: The per-core schedule search and burst-length cap.
    run_fields = ("platform", "strategy", "max_count_per_core")
    #: Without an explicit platform the co-design needs ways to
    #: partition, so it runs on the shared paper platform — declared
    #: here so run-dir resume compares against the right fingerprint.
    default_platform = staticmethod(shared_paper_platform)

    def build(self, request: ExperimentRequest) -> ExperimentReport:
        """Run the private-vs-shared comparison on one 2-core platform.

        The two sweeps are the two scenarios of one
        :class:`~repro.study.Study`; with a ``cache_dir`` they share
        disk entries wherever a block's way allocation equals the full
        geometry.  ``strategy`` picks the per-core schedule search
        (default ``exhaustive``); ``on_event`` receives the study's
        events.
        """
        platform = request.platform or shared_paper_platform()
        case = build_case_study(platform=platform)
        study = Study.from_scenarios(
            [
                request.scenario(
                    f"casestudy-{side}",
                    case,
                    platform=platform,
                    n_cores=2,
                    shared_cache=side == "shared",
                )
                for side in ("private", "shared")
            ],
            request.engine_options(),
        )
        summary = SharedCacheSummary(*study.run(on_event=request.on_event))
        return new_report(
            self.name,
            data={"partitioning_gain": summary.partitioning_gain},
            run_reports=[summary.private, summary.shared],
        )

    def render(self, report: ExperimentReport) -> str:
        return self.result_from(report).render()

    @staticmethod
    def result_from(report: ExperimentReport) -> SharedCacheSummary:
        """Rebuild the summary from a (possibly resumed) report."""
        return SharedCacheSummary(*report.run_reports)
