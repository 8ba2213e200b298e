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

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..apps.casestudy import CaseStudy, build_case_study
from ..control.design import DesignOptions
from ..core.report import render_table
from ..multicore.partition import MulticoreEvaluation, MulticoreProblem
from ..platform import Platform, platform_from_fingerprint, shared_paper_platform
from ..study.report import RunReport
from .multicore import (
    MulticoreSummary,
    evaluation_from_data,
    evaluation_to_data,
    summary_run_report,
)
from .profiles import design_options_for_profile
from .registry import ExperimentRequest, register_experiment
from .report import ExperimentReport, new_report


@dataclass
class SharedCacheSummary:
    """Shared-cache co-design next to the private-cache baseline."""

    n_cores: int
    app_names: list[str]
    platform: Platform
    private: MulticoreEvaluation
    shared: MulticoreEvaluation
    engine_summary: str
    backend: str = "serial"
    private_stats: dict = field(default_factory=dict)
    shared_stats: dict = field(default_factory=dict)
    private_wall: float = 0.0
    shared_wall: float = 0.0
    max_count_per_core: int = 6

    @property
    def partitioning_gain(self) -> float:
        """P_all advantage of private caches over the shared cache."""
        return self.private.overall - self.shared.overall

    def render(self) -> str:
        def rows_for(evaluation: MulticoreEvaluation) -> list[list[str]]:
            rows = []
            for core_index, core in enumerate(evaluation.cores):
                names = ", ".join(self.app_names[i] for i in core.app_indices)
                rows.append(
                    [
                        str(core_index),
                        names,
                        "full" if core.ways is None else str(core.ways),
                        str(core.schedule),
                        ", ".join(
                            f"{evaluation.settling[i] * 1e3:.2f}"
                            for i in core.app_indices
                        ),
                    ]
                )
            return rows

        cache = self.platform.cache
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
            + f"\nengine: {self.engine_summary}"
        )


def run(
    case: CaseStudy | None = None,
    design_options: DesignOptions | None = None,
    n_cores: int = 2,
    platform: Platform | None = None,
    max_count_per_core: int = 6,
    workers: int = 0,
    cache_dir: str | Path | None = None,
    strategy: str | None = None,
    on_event=None,
) -> SharedCacheSummary:
    """Run the private-vs-shared comparison on one platform.

    Both sweeps run through the search engine; with a
    ``cache_dir`` they share disk entries wherever a block's way
    allocation equals the full geometry.  ``strategy`` picks the
    per-core schedule search (default ``exhaustive``); ``on_event``
    receives both engines' typed progress events.
    """
    platform = platform or shared_paper_platform()
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
        private = problem.optimize(strategy=strategy or "exhaustive")
        private_summary = problem.engine.stats.summary()
        private_stats = problem.engine.stats.as_dict()
        backend = problem.engine.backend_name
    private_wall = time.perf_counter() - started
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
        shared_cache=True,
        on_event=on_event,
    ) as problem:
        shared = problem.optimize(strategy=strategy or "exhaustive")
        shared_summary = problem.engine.stats.summary()
        shared_stats = problem.engine.stats.as_dict()
    shared_wall = time.perf_counter() - started
    return SharedCacheSummary(
        n_cores=n_cores,
        app_names=[app.name for app in case.apps],
        platform=platform,
        private=private,
        shared=shared,
        engine_summary=f"private: {private_summary}; shared: {shared_summary}",
        backend=backend,
        private_stats=private_stats,
        shared_stats=shared_stats,
        private_wall=private_wall,
        shared_wall=shared_wall,
        max_count_per_core=max_count_per_core,
    )


@register_experiment
class SharedCacheExperiment:
    """Private caches vs one way-partitioned shared cache."""

    name = "shared_cache"
    supports_out = False
    supports_strategy = True  # per-core schedule search
    supports_max_count = True  # per-core burst-length cap
    #: Without an explicit platform the co-design needs ways to
    #: partition, so it runs on the shared paper platform — declared
    #: here so run-dir resume compares against the right fingerprint.
    default_platform = staticmethod(shared_paper_platform)

    def build(self, request: ExperimentRequest) -> ExperimentReport:
        platform = request.platform or shared_paper_platform()
        case = build_case_study(platform=platform)
        options = request.design_options or design_options_for_profile()
        summary = run(
            case=case,
            design_options=options,
            platform=platform,
            max_count_per_core=request.max_count_per_core,
            workers=request.workers,
            cache_dir=request.cache_dir,
            strategy=request.strategy,
            on_event=request.on_event,
        )
        data = {
            "n_cores": int(summary.n_cores),
            "app_names": list(summary.app_names),
            "private": evaluation_to_data(summary.private),
            "shared": evaluation_to_data(summary.shared),
            "engine_summary": summary.engine_summary,
            "backend": summary.backend,
            "private_stats": summary.private_stats,
            "shared_stats": summary.shared_stats,
            "private_wall": float(summary.private_wall),
            "shared_wall": float(summary.shared_wall),
            "max_count_per_core": int(summary.max_count_per_core),
        }
        run_reports = [
            self._run_report(summary, case, options, platform, request.strategy,
                             shared_cache=False),
            self._run_report(summary, case, options, platform, request.strategy,
                             shared_cache=True),
        ]
        return new_report(
            self.name, data=data, run_reports=run_reports, platform=platform
        )

    @staticmethod
    def _run_report(
        summary: SharedCacheSummary,
        case: CaseStudy,
        options: DesignOptions,
        platform: Platform,
        strategy: str | None,
        shared_cache: bool,
    ) -> RunReport:
        """One sweep (private or shared) as a structured run report."""
        side = "shared" if shared_cache else "private"
        proxy = MulticoreSummary(
            n_cores=summary.n_cores,
            app_names=summary.app_names,
            best=summary.shared if shared_cache else summary.private,
            single_schedule=None,
            single_overall=None,
            engine_stats=(
                summary.shared_stats if shared_cache else summary.private_stats
            ),
            engine_summary=summary.engine_summary,
            backend=summary.backend,
            wall_time=(
                summary.shared_wall if shared_cache else summary.private_wall
            ),
            max_count_per_core=summary.max_count_per_core,
        )
        return summary_run_report(
            proxy,
            case,
            options,
            platform,
            strategy,
            shared_cache=shared_cache,
            name=f"casestudy-{side}",
        )

    def render(self, report: ExperimentReport) -> str:
        return self.result_from(report).render()

    @staticmethod
    def result_from(report: ExperimentReport) -> SharedCacheSummary:
        """Rebuild the summary from a (possibly resumed) report."""
        data = report.data
        return SharedCacheSummary(
            n_cores=int(data["n_cores"]),
            app_names=list(data["app_names"]),
            platform=platform_from_fingerprint(report.platform),
            private=evaluation_from_data(data["private"]),
            shared=evaluation_from_data(data["shared"]),
            engine_summary=str(data["engine_summary"]),
            backend=str(data["backend"]),
            private_stats=dict(data["private_stats"]),
            shared_stats=dict(data["shared_stats"]),
            private_wall=float(data["private_wall"]),
            shared_wall=float(data["shared_wall"]),
            max_count_per_core=int(data["max_count_per_core"]),
        )
