"""Shared-cache way-partitioned co-design demo.

Real multicore microcontrollers often share one set-associative
instruction cache instead of giving every core a private copy.  This
example re-organizes the paper's 2 KiB capacity as 32 sets x 4 ways,
then co-designs the application-to-core partition *together with* the
allocation of the cache's ways to the cores: every ``(core block,
ways)`` candidate re-analyzes the block's WCETs under its slice of the
cache (``CacheConfig.with_ways``), and the whole sweep is batched
through the search engine.  The private-cache optimum on
the same platform quantifies what sharing costs
(``python -m repro multicore --cores 2 --shared-cache`` and
``python -m repro experiment shared_cache`` are the CLI spellings).

Run:  python examples/shared_cache_codesign.py
"""

import os

os.environ.setdefault("REPRO_PROFILE", "quick")

from repro import build_case_study
from repro.experiments.profiles import design_options_for_profile
from repro.multicore import MulticoreProblem
from repro.platform import shared_paper_platform
from repro.sched.engine.batch import Scenario, scenario_engine
from repro.study import RunSpec

#: The paper's capacity with ways to partition: 32 sets x 4 ways x 16 B.
PLATFORM = shared_paper_platform()


def main() -> None:
    case = build_case_study(platform=PLATFORM)
    options = design_options_for_profile()

    def optimize(name, **run):
        """Best two-core co-design on ``PLATFORM`` and its engine's accounting."""
        # Keep the lone-app schedule spaces small so the demo stays quick.
        spec = RunSpec(n_cores=2, max_count_per_core=2, platform=PLATFORM, **run)
        scenario = Scenario(name, case.apps, case.clock, options, spec)
        with scenario_engine(scenario) as engine:
            result = MulticoreProblem(engine, scenario.spec).optimize()
            return result, (
                f"{engine.stats.summary()} "
                f"({engine.n_subproblems} distinct (block, ways) sub-problems)"
            )

    private, _ = optimize("private")
    print(f"two cores, private caches:  P_all = {private.overall:.4f}")

    shared, accounting = optimize("shared", shared_cache=True)
    print(f"two cores, shared 4 ways:   P_all = {shared.overall:.4f}")
    for core in shared.cores:
        names = ", ".join(case.apps[i].name for i in core.app_indices)
        print(f"  core: [{names}] ways={core.ways} schedule {core.schedule}")
    print(f"  engine: {accounting}")

    print("capacity cost of sharing:   "
          f"{private.overall - shared.overall:+.4f} P_all")


if __name__ == "__main__":
    main()
