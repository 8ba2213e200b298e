"""Batch scenario runner: synthesis determinism and suite execution."""

import pytest

from repro.cache import CacheConfig
from repro.errors import ConfigurationError, SearchError
from repro.platform import Platform
from repro.sched.engine import EngineOptions
from repro.sched.engine.batch import (
    Scenario,
    run_batch,
    run_scenario,
    synthesize_scenarios,
)
from repro.sched.engine.keys import problem_digest

#: Golden values of the default suite for seed 2018 captured before the
#: platform became a parameter: ``synthesize_scenarios`` must reproduce
#: them bit-exactly (the ``platform=`` lift is a pure parameter lift).
GOLDEN_DEFAULT_SUITE = [
    ("synth-000", "C3s0", 13335, 3534, 0.4859879395193516,
     0.00418882579985506, 0.018835949985674012),
    ("synth-000", "C1s0", 20053, 10747, 0.5140120604806484,
     0.0034030306515914635, 0.04652326094380681),
    ("synth-001", "C1s1", 18386, 8981, 0.21227286559585493,
     0.004035143150769526, 0.05650626177272576),
    ("synth-001", "C2s1", 12110, 3101, 0.31837663471546346,
     0.004444984803696733, 0.022449267568264545),
    ("synth-001", "C3s1", 14777, 4877, 0.4693504996886816,
     0.004059937262058876, 0.021658834163761864),
]


class TestSynthesis:
    def test_deterministic_for_seed(self, tiny_design_options):
        first = synthesize_scenarios(3, seed=5, design_options=tiny_design_options)
        second = synthesize_scenarios(3, seed=5, design_options=tiny_design_options)
        assert len(first) == len(second) == 3
        for a, b in zip(first, second):
            assert a.name == b.name
            assert problem_digest(a.apps, a.clock, tiny_design_options) == \
                problem_digest(b.apps, b.clock, tiny_design_options)

    def test_seeds_differ(self, tiny_design_options):
        a = synthesize_scenarios(1, seed=5, design_options=tiny_design_options)[0]
        b = synthesize_scenarios(1, seed=6, design_options=tiny_design_options)[0]
        assert problem_digest(a.apps, a.clock, tiny_design_options) != \
            problem_digest(b.apps, b.clock, tiny_design_options)

    def test_weights_sum_to_one(self):
        for scenario in synthesize_scenarios(4, seed=9):
            total = sum(app.weight for app in scenario.apps)
            assert abs(total - 1.0) <= 1e-9

    def test_apps_within_choices(self):
        scenarios = synthesize_scenarios(4, seed=3, n_apps_choices=(2,))
        assert all(len(s.apps) == 2 for s in scenarios)

    def test_bad_count_rejected(self):
        with pytest.raises(SearchError):
            synthesize_scenarios(0)

    def test_default_suite_bit_identical_to_pre_platform_era(self):
        """The ``platform=`` parameter lift changed no default bit."""
        scenarios = synthesize_scenarios(2, seed=2018)
        got = [
            (s.name, app.name, app.wcets.cold_cycles, app.wcets.warm_cycles,
             app.weight, app.max_idle, app.spec.deadline)
            for s in scenarios
            for app in s.apps
        ]
        assert got == GOLDEN_DEFAULT_SUITE

    def test_explicit_paper_platform_equals_default(self, tiny_design_options):
        default = synthesize_scenarios(2, seed=11, design_options=tiny_design_options)
        explicit = synthesize_scenarios(
            2, seed=11, design_options=tiny_design_options, platform=Platform()
        )
        for a, b in zip(default, explicit):
            assert problem_digest(a.apps, a.clock, tiny_design_options, a.platform) \
                == problem_digest(b.apps, b.clock, tiny_design_options, b.platform)

    def test_custom_platform_moves_the_problems(self, tiny_design_options):
        default = synthesize_scenarios(1, seed=11, design_options=tiny_design_options)[0]
        slower = synthesize_scenarios(
            1,
            seed=11,
            design_options=tiny_design_options,
            platform=Platform(cache=CacheConfig(miss_cycles=200)),
        )[0]
        assert slower.platform.cache.miss_cycles == 200
        assert slower.apps[0].wcets.cold_cycles > default.apps[0].wcets.cold_cycles
        assert problem_digest(
            slower.apps, slower.clock, tiny_design_options, slower.platform
        ) != problem_digest(
            default.apps, default.clock, tiny_design_options, default.platform
        )

    def test_jittered_platforms_vary_and_are_deterministic(self):
        first = synthesize_scenarios(6, seed=4, jitter_platform=True)
        second = synthesize_scenarios(6, seed=4, jitter_platform=True)
        assert [s.platform for s in first] == [s.platform for s in second]
        assert len({s.platform for s in first}) > 1
        for scenario in first:
            assert scenario.platform.cache.n_sets >= 16
            cache = scenario.platform.cache
            assert cache.miss_cycles > cache.hit_cycles

    def test_shared_cache_synthesis_needs_multicore(self):
        with pytest.raises(ConfigurationError):
            synthesize_scenarios(1, shared_cache=True)  # n_cores defaults to 1

    def test_bad_strategy_rejected_with_listing(self, tiny_design_options):
        scenario = synthesize_scenarios(1, design_options=tiny_design_options)[0]
        with pytest.raises(ConfigurationError) as excinfo:
            Scenario(
                name="bad",
                apps=scenario.apps,
                clock=scenario.clock,
                strategy="gradient-descent",
            )
        assert "hybrid" in str(excinfo.value)

    def test_typo_strategy_never_runs_silently(self, tiny_design_options):
        """Regression: a typo like 'anealing' must raise, not silently
        dispatch to annealing (the old `_dispatch` trailing-else bug)."""
        scenario = synthesize_scenarios(1, design_options=tiny_design_options)[0]
        scenario.strategy = "anealing"  # bypasses __post_init__ validation
        with pytest.raises(ConfigurationError) as excinfo:
            run_scenario(scenario)
        message = str(excinfo.value)
        assert "anealing" in message and "annealing" in message

    def test_default_strategy_per_run_type(self, tiny_design_options):
        single = synthesize_scenarios(1, design_options=tiny_design_options)[0]
        multi = synthesize_scenarios(
            1, design_options=tiny_design_options, n_cores=2
        )[0]
        assert single.strategy == "hybrid"
        assert multi.strategy == "exhaustive"

    def test_bad_core_count_rejected(self, tiny_design_options):
        scenario = synthesize_scenarios(1, design_options=tiny_design_options)[0]
        with pytest.raises(ConfigurationError):
            Scenario(
                name="bad",
                apps=scenario.apps,
                clock=scenario.clock,
                n_cores=0,
            )
        with pytest.raises(ConfigurationError):
            Scenario(
                name="bad",
                apps=scenario.apps,
                clock=scenario.clock,
                n_cores=len(scenario.apps) + 1,
            )

    def test_allocator_rejected_on_single_core(self, tiny_design_options):
        scenario = synthesize_scenarios(1, design_options=tiny_design_options)[0]
        with pytest.raises(ConfigurationError):
            Scenario(
                name="bad",
                apps=scenario.apps,
                clock=scenario.clock,
                allocator="greedy",
            )

    def test_multicore_scenario_defaults_exhaustive_allocator(
        self, tiny_design_options
    ):
        scenario = synthesize_scenarios(
            1, design_options=tiny_design_options, n_cores=2
        )[0]
        assert scenario.allocator == "exhaustive"

    def test_multicore_synthesis_shares_apps_with_single_core(
        self, tiny_design_options
    ):
        """n_cores only changes the co-design, never the workload."""
        single = synthesize_scenarios(2, seed=5, design_options=tiny_design_options)
        multi = synthesize_scenarios(
            2, seed=5, design_options=tiny_design_options, n_cores=2
        )
        for a, b in zip(single, multi):
            assert a.n_cores == 1 and b.n_cores == 2
            assert problem_digest(a.apps, a.clock, tiny_design_options) == \
                problem_digest(b.apps, b.clock, tiny_design_options)


@pytest.mark.slow
class TestRunBatch:
    def test_suite_runs_and_reports(self, tiny_design_options, tmp_path):
        scenarios = synthesize_scenarios(
            2, seed=11, design_options=tiny_design_options, n_apps_choices=(2,)
        )
        outcomes = run_batch(scenarios, EngineOptions(cache_dir=tmp_path))
        assert [o.name for o in outcomes] == ["synth-000", "synth-001"]
        for outcome in outcomes:
            assert outcome.strategy == "hybrid"
            assert outcome.result.best.feasible
            assert outcome.wall_time > 0
            assert outcome.n_space > 0
            assert outcome.engine_stats["n_computed"] > 0

    def test_rerun_is_disk_served(self, tiny_design_options, tmp_path):
        scenarios = synthesize_scenarios(
            1, seed=11, design_options=tiny_design_options, n_apps_choices=(2,)
        )
        cold = run_scenario(scenarios[0], EngineOptions(cache_dir=tmp_path))
        warm = run_scenario(scenarios[0], EngineOptions(cache_dir=tmp_path))
        assert warm.engine_stats["n_computed"] == 0
        assert warm.engine_stats["n_disk_hits"] > 0
        assert warm.best_schedule == cold.best_schedule
        assert warm.best_overall == cold.best_overall

    def test_multicore_scenario_dispatch(self, tiny_design_options, tmp_path):
        scenario = synthesize_scenarios(
            1, seed=11, design_options=tiny_design_options,
            n_apps_choices=(2,), n_cores=2,
        )[0]
        cold = run_scenario(scenario, EngineOptions(cache_dir=tmp_path))
        assert cold.strategy == "exhaustive"
        assert cold.result is None
        assert cold.multicore is not None
        assert cold.multicore.feasible
        assert cold.n_apps == 2
        assert len(cold.best_schedule) == cold.multicore.n_cores_used
        warm = run_scenario(scenario, EngineOptions(cache_dir=tmp_path))
        assert warm.engine_stats["n_computed"] == 0
        assert warm.best_schedule == cold.best_schedule
        assert warm.best_overall == cold.best_overall
