"""Multi-core extension demo (paper Section VI).

Partitions the three applications across two cores with private caches
and jointly optimizes the partition and the per-core schedules.  The
run is a scenario whose ``RunSpec`` asks for two cores; the sweep runs
on the scenario's search engine: pass ``EngineOptions(workers=2,
cache_dir=...)`` to ``scenario_engine`` to fan candidate evaluations
out to worker processes and persist them for warm-started reruns
(``python -m repro multicore --cores 2 --workers 2 --cache-dir D`` is
the CLI spelling).

Run:  python examples/multicore_codesign.py
"""

import os

os.environ.setdefault("REPRO_PROFILE", "quick")

from repro import PeriodicSchedule, build_case_study
from repro.experiments.profiles import design_options_for_profile
from repro.multicore import MulticoreProblem
from repro.sched.engine.batch import Scenario, scenario_engine
from repro.study import RunSpec


def main() -> None:
    case = build_case_study()
    options = design_options_for_profile()

    single = case.evaluator(options).evaluate(PeriodicSchedule.of(3, 2, 3))
    print(f"single core, schedule (3, 2, 3): P_all = {single.overall:.4f}")

    scenario = Scenario("two-cores", case.apps, case.clock, options, RunSpec(n_cores=2))
    with scenario_engine(scenario) as engine:
        result = MulticoreProblem(engine, scenario.spec).optimize()
        print(f"two cores (private caches): P_all = {result.overall:.4f}")
        for core in result.cores:
            names = ", ".join(case.apps[i].name for i in core.app_indices)
            print(f"  core: [{names}] schedule {core.schedule}")
        for i, app in enumerate(case.apps):
            print(f"  {app.name}: settling {result.settling[i] * 1e3:.2f} ms "
                  f"(P = {result.performances[i]:.3f})")
        stats = engine.stats
        print(f"  engine: {stats.n_computed} evaluations over "
              f"{stats.as_dict()['n_batches']} batches "
              f"({engine.n_subproblems} distinct core blocks)")


if __name__ == "__main__":
    main()
