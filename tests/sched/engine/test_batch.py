"""Scenario runner: synthesis determinism and suite execution."""

from dataclasses import replace

import pytest

from repro.cache import CacheConfig
from repro.errors import ConfigurationError
from repro.platform import Platform
from repro.sched.engine import EngineOptions
from repro.sched.engine.batch import Scenario, synthesize_scenarios
from repro.sched.engine.keys import problem_digest
from repro.study import RunSpec, Study


def suite(size: int = 1, design_options=None, **run) -> list[Scenario]:
    """The scenarios of the ``kind="suite"`` spec with fields ``run``."""
    return synthesize_scenarios(
        RunSpec(kind="suite", suite_size=size, **run), design_options
    )


def run_alone(scenario: Scenario, engine_options: EngineOptions):
    """The report of ``scenario`` run by a study of its own (its own
    design memo, so a rerun reads the disk cache)."""
    return Study.from_scenarios([scenario], engine_options).run()[0]


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
        first = suite(3, seed=5, design_options=tiny_design_options)
        second = suite(3, seed=5, design_options=tiny_design_options)
        assert len(first) == len(second) == 3
        for a, b in zip(first, second):
            assert a.name == b.name
            assert problem_digest(a.apps, a.clock, tiny_design_options) == \
                problem_digest(b.apps, b.clock, tiny_design_options)

    def test_seeds_differ(self, tiny_design_options):
        a = suite(1, seed=5, design_options=tiny_design_options)[0]
        b = suite(1, seed=6, design_options=tiny_design_options)[0]
        assert problem_digest(a.apps, a.clock, tiny_design_options) != \
            problem_digest(b.apps, b.clock, tiny_design_options)

    def test_weights_sum_to_one(self):
        for scenario in suite(4, seed=9):
            total = sum(app.weight for app in scenario.apps)
            assert abs(total - 1.0) <= 1e-9

    def test_apps_within_choices(self):
        scenarios = suite(4, seed=3, n_apps_choices=(2,))
        assert all(len(s.apps) == 2 for s in scenarios)

    def test_bad_count_rejected(self):
        with pytest.raises(ConfigurationError, match="suite_size must be >= 1"):
            suite(0)

    def test_default_suite_bit_identical_to_pre_platform_era(self):
        """The ``platform=`` parameter lift changed no default bit."""
        scenarios = suite(2, seed=2018)
        got = [
            (s.name, app.name, app.wcets.cold_cycles, app.wcets.warm_cycles,
             app.weight, app.max_idle, app.spec.deadline)
            for s in scenarios
            for app in s.apps
        ]
        assert got == GOLDEN_DEFAULT_SUITE

    def test_explicit_paper_platform_equals_default(self, tiny_design_options):
        default = suite(2, seed=11, design_options=tiny_design_options)
        explicit = suite(
            2, seed=11, design_options=tiny_design_options, platform=Platform()
        )
        for a, b in zip(default, explicit):
            assert problem_digest(a.apps, a.clock, tiny_design_options, a.spec.platform) \
                == problem_digest(b.apps, b.clock, tiny_design_options, b.spec.platform)

    def test_custom_platform_moves_the_problems(self, tiny_design_options):
        default = suite(1, seed=11, design_options=tiny_design_options)[0]
        slower = suite(
            1,
            seed=11,
            design_options=tiny_design_options,
            platform=Platform(cache=CacheConfig(miss_cycles=200)),
        )[0]
        assert slower.spec.platform.cache.miss_cycles == 200
        assert slower.apps[0].wcets.cold_cycles > default.apps[0].wcets.cold_cycles
        assert problem_digest(
            slower.apps, slower.clock, tiny_design_options, slower.spec.platform
        ) != problem_digest(
            default.apps, default.clock, tiny_design_options, default.spec.platform
        )

    def test_jittered_platforms_vary_and_are_deterministic(self):
        first = suite(6, seed=4, jitter_platform=True)
        second = suite(6, seed=4, jitter_platform=True)
        assert [s.spec.platform for s in first] == [s.spec.platform for s in second]
        assert len({s.spec.platform for s in first}) > 1
        for scenario in first:
            assert scenario.spec.platform.cache.n_sets >= 16
            cache = scenario.spec.platform.cache
            assert cache.miss_cycles > cache.hit_cycles

    def test_shared_cache_synthesis_needs_multicore(self):
        with pytest.raises(ConfigurationError):
            suite(1, shared_cache=True)  # n_cores defaults to 1

    def test_bad_strategy_rejected_with_listing(self, tiny_design_options):
        scenario = suite(1, design_options=tiny_design_options)[0]
        with pytest.raises(ConfigurationError) as excinfo:
            Scenario(
                "bad", scenario.apps, scenario.clock, None, RunSpec(strategy="gradient-descent")
            )
        assert "hybrid" in str(excinfo.value)

    def test_typo_strategy_never_runs_silently(self, tiny_design_options):
        """Regression: a typo like 'anealing' must raise, not silently
        dispatch to annealing (the old `_dispatch` trailing-else bug)."""
        scenario = suite(1, design_options=tiny_design_options)[0]
        # replace() on the spec bypasses the Scenario's resolution
        scenario.spec = replace(scenario.spec, strategy="anealing")
        with pytest.raises(ConfigurationError) as excinfo:
            Study.from_scenarios([scenario]).run()
        message = str(excinfo.value)
        assert "anealing" in message and "annealing" in message

    def test_default_strategy_per_run_type(self, tiny_design_options):
        single = suite(1, design_options=tiny_design_options)[0]
        multi = suite(
            1, design_options=tiny_design_options, n_cores=2
        )[0]
        assert single.spec.strategy == "hybrid"
        assert multi.spec.strategy == "exhaustive"

    def test_bad_core_count_rejected(self, tiny_design_options):
        scenario = suite(1, design_options=tiny_design_options)[0]
        with pytest.raises(ConfigurationError):
            Scenario(
                "bad", scenario.apps, scenario.clock, None, RunSpec(n_cores=0)
            )
        with pytest.raises(ConfigurationError):
            Scenario(
                "bad", scenario.apps, scenario.clock, None, RunSpec(n_cores=len(scenario.apps) + 1)
            )

    def test_allocator_rejected_on_single_core(self, tiny_design_options):
        scenario = suite(1, design_options=tiny_design_options)[0]
        with pytest.raises(ConfigurationError):
            Scenario(
                "bad", scenario.apps, scenario.clock, None, RunSpec(allocator="greedy")
            )

    def test_multicore_scenario_defaults_exhaustive_allocator(
        self, tiny_design_options
    ):
        scenario = suite(
            1, design_options=tiny_design_options, n_cores=2
        )[0]
        assert scenario.spec.allocator == "exhaustive"

    def test_multicore_synthesis_shares_apps_with_single_core(
        self, tiny_design_options
    ):
        """n_cores only changes the co-design, never the workload."""
        single = suite(2, seed=5, design_options=tiny_design_options)
        multi = suite(
            2, seed=5, design_options=tiny_design_options, n_cores=2
        )
        for a, b in zip(single, multi):
            assert a.spec.n_cores == 1 and b.spec.n_cores == 2
            assert problem_digest(a.apps, a.clock, tiny_design_options) == \
                problem_digest(b.apps, b.clock, tiny_design_options)


class TestMulticoreSpecRules:
    """A multicore run's configuration is checked once, by its spec,
    when the scenario is built."""

    def test_validation(self, case_study):
        with pytest.raises(ConfigurationError):
            Scenario("bad", case_study.apps, case_study.clock, None, RunSpec(n_cores=0))

    def test_more_cores_than_apps_fails_fast(self, case_study):
        with pytest.raises(ConfigurationError) as excinfo:
            Scenario(
                "bad", case_study.apps, case_study.clock, None,
                RunSpec(n_cores=len(case_study.apps) + 1),
            )
        assert str(len(case_study.apps)) in str(excinfo.value)

    def test_unknown_allocator_rejected(self, case_study):
        with pytest.raises(ConfigurationError) as excinfo:
            Scenario(
                "bad", case_study.apps, case_study.clock, None,
                RunSpec(n_cores=2, allocator="oracle"),
            )
        assert "greedy" in str(excinfo.value)

    def test_unknown_strategy_rejected(self, case_study):
        with pytest.raises(ConfigurationError) as excinfo:
            Scenario(
                "bad", case_study.apps, case_study.clock, None,
                RunSpec(n_cores=2, strategy="oracle"),
            )
        assert "exhaustive" in str(excinfo.value)


class TestWholeProblemDigest:
    @pytest.mark.parametrize(
        "run",
        [{"starts": ((2, 2, 2),)}, {"n_cores": 2, "max_count_per_core": 2}],
        ids=["single-core", "two-core"],
    )
    def test_study_digests_the_whole_problem_once(
        self, run, tiny_design_options, monkeypatch
    ):
        """The scenario's digest keys its engine too: a run hashes the
        whole application set once, multicore sweeps included."""
        import repro.sched.engine.engine as engine_module
        import repro.study.report as report_module

        whole = []

        def counted(apps, *args, **kwargs):
            whole.append(len(apps) == 3)
            return problem_digest(apps, *args, **kwargs)

        for module in (engine_module, report_module):
            monkeypatch.setattr(module, "problem_digest", counted)
        (report,) = Study.from_spec(RunSpec(**run), tiny_design_options).run()
        assert report.feasible
        assert sum(whole) == 1


@pytest.mark.slow
class TestRunBatch:
    def test_suite_runs_and_reports(self, tiny_design_options, tmp_path):
        scenarios = suite(
            2, seed=11, design_options=tiny_design_options, n_apps_choices=(2,)
        )
        reports = Study.from_scenarios(scenarios, EngineOptions(cache_dir=tmp_path)).run()
        assert [r.scenario for r in reports] == ["synth-000", "synth-001"]
        for report in reports:
            assert report.spec.strategy == "hybrid"
            assert report.feasible
            assert report.wall_time > 0
            assert report.n_space > 0
            assert report.engine_stats["n_computed"] > 0

    def test_rerun_is_disk_served(self, tiny_design_options, tmp_path):
        scenarios = suite(
            1, seed=11, design_options=tiny_design_options, n_apps_choices=(2,)
        )
        cold = run_alone(scenarios[0], EngineOptions(cache_dir=tmp_path))
        warm = run_alone(scenarios[0], EngineOptions(cache_dir=tmp_path))
        assert warm.engine_stats["n_computed"] == 0
        assert warm.engine_stats["n_disk_hits"] > 0
        assert warm.best_schedule == cold.best_schedule
        assert warm.overall == cold.overall

    def test_multicore_scenario_dispatch(self, tiny_design_options, tmp_path):
        scenario = suite(
            1, seed=11, design_options=tiny_design_options,
            n_apps_choices=(2,), n_cores=2,
        )[0]
        cold = run_alone(scenario, EngineOptions(cache_dir=tmp_path))
        assert cold.spec.strategy == "exhaustive"
        assert cold.best_schedule is None
        assert cold.cores and cold.feasible
        assert len(cold.apps) == 2
        warm = run_alone(scenario, EngineOptions(cache_dir=tmp_path))
        assert warm.engine_stats["n_computed"] == 0
        assert warm.cores == cold.cores
        assert warm.overall == cold.overall
