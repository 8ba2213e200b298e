"""The unified Study API: strategies, structured reports, resumable runs.

Builds a study over the paper's case study, runs the hybrid strategy
through the engine, persists the structured RunReport under .runs/ and
shows the JSON round-trip.  A rerun of this script resumes the search
from the persisted artifact instead of recomputing it.

Run:  python examples/study_api.py
"""

import os

os.environ.setdefault("REPRO_PROFILE", "quick")

from repro import PeriodicSchedule
from repro.experiments.profiles import design_options_for_profile
from repro.sched.strategies import available_strategies
from repro.study import RunReport, Study


def main() -> None:
    print(f"registered strategies: {', '.join(available_strategies())}")

    study = Study.from_case_study(
        design_options_for_profile(),
        strategy="hybrid",
        starts=[PeriodicSchedule.of(4, 2, 2), PeriodicSchedule.of(1, 2, 1)],
        run_dir=".runs",
    )
    report = study.run()[0]

    print(f"strategy: {report.spec.strategy}  backend: {report.backend}")
    print(f"best schedule: {report.best_schedule}  P_all = {report.overall:.4f}")
    for app in report.apps:
        print(f"  {app['name']}: settling {app['settling'] * 1e3:.2f} ms, "
              f"P_i = {app['performance']:.3f}")
    print(f"engine: {report.engine_stats['n_computed']} computed, "
          f"{report.engine_stats['n_memo_hits']} memo hits")

    # The report round-trips losslessly through JSON; the same artifact
    # now lives under .runs/ and will serve the next identical run.
    assert RunReport.from_json(report.to_json()) == report
    print(f"report persisted under {study.run_dir}/ "
          "(rerun this script to see the resume)")


if __name__ == "__main__":
    main()
