"""Many-core co-design with heuristic partition allocators.

Sixteen cores is far past exhaustive partition enumeration (the Bell
number B(16) exceeds 10 billion partitions).  This example replicates
the paper's three applications to sixteen weight-scaled copies, then
lets the ``greedy`` allocator stream a cache-sensitivity-guided
fraction of the partition space instead of sweeping all of it
(``python -m repro multicore --apps 16 --cores 16 --allocator greedy``
is the CLI spelling; ``python -m repro allocators`` lists the
registry).

Run:  python examples/manycore_codesign.py
"""

import os

os.environ.setdefault("REPRO_PROFILE", "quick")

from repro import build_case_study
from repro.experiments.profiles import design_options_for_profile
from repro.multicore import MulticoreProblem, replicate_apps
from repro.multicore.allocators import GreedyAllocatorOptions, available_allocators
from repro.sched.engine.batch import Scenario, scenario_engine
from repro.study import RunSpec

N_APPS = 16
N_CORES = 16


def main() -> None:
    case = build_case_study()
    options = design_options_for_profile()
    apps = replicate_apps(case.apps, N_APPS)

    print(f"registered allocators: {', '.join(available_allocators())}")
    print(f"{N_APPS} applications on {N_CORES} cores (private caches)")

    spec = RunSpec(
        n_cores=N_CORES,
        max_count_per_core=2,
        allocator="greedy",
        allocator_options=GreedyAllocatorOptions(max_partitions=24, patience=8),
    )
    scenario = Scenario("manycore", apps, case.clock, options, spec)
    with scenario_engine(scenario) as engine:
        result = MulticoreProblem(engine, scenario.spec).optimize()
        print(f"best of {result.n_partitions} streamed partitions: "
              f"P_all = {result.overall:.4f}")
        for core in result.cores:
            names = ", ".join(apps[i].name for i in core.app_indices)
            print(f"  core: [{names}] schedule {core.schedule}")
        stats = engine.stats
        print(f"  engine: {stats.n_computed} evaluations over "
              f"{stats.as_dict()['n_batches']} batches "
              f"({engine.n_subproblems} distinct core blocks)")


if __name__ == "__main__":
    main()
