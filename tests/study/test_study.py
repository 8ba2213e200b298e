"""The unified Study facade: one code path, persisted resumable reports."""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.sched import PeriodicSchedule, SearchEngine
from repro.sched.annealing import annealing_search
from repro.sched.engine.batch import synthesize_scenarios
from repro.sched.evaluator import ScheduleEvaluator
from repro.sched.exhaustive import exhaustive_search
from repro.sched.feasibility import enumerate_idle_feasible, idle_feasible
from repro.sched.hybrid import hybrid_search
from repro.study import RunReport, RunSpec, ScenarioStarted, Study, scenario_digest
from repro.study import study as study_module


def synthesized(design_options, **run):
    """The first scenario of a one-scenario suite with fields ``run``."""
    spec = RunSpec(kind="suite", suite_size=1, seed=11, n_apps_choices=(2,), **run)
    return synthesize_scenarios(spec, design_options)[0]


def respec(scenario, **changes):
    """``scenario`` with its spec's fields ``changes`` (re-resolved)."""
    return replace(scenario, spec=replace(scenario.spec, **changes))


@pytest.fixture(scope="module")
def case():
    from repro.apps import build_case_study

    return build_case_study()


def fresh_engine(case, design_options) -> SearchEngine:
    return SearchEngine(case.evaluator(design_options))


class TestIdenticalResults:
    """`Study.run()` reproduces a direct call of each strategy's search
    function on a fresh engine."""

    def test_hybrid_matches_pre_redesign_search(self, case, quick_design_options):
        starts = [PeriodicSchedule.of(4, 2, 2), PeriodicSchedule.of(1, 2, 1)]
        legacy = hybrid_search(
            fresh_engine(case, quick_design_options),
            starts,
            lambda s: idle_feasible(s, case.apps, case.clock),
        )
        report = Study.from_case_study(
            quick_design_options, strategy="hybrid", starts=starts
        ).run()[0]
        assert report.best_schedule == list(legacy.best_schedule.counts)
        assert report.overall == legacy.best_value

    def test_annealing_matches_pre_redesign_search(self, case, quick_design_options):
        start = PeriodicSchedule.of(1, 1, 1)
        legacy = annealing_search(
            fresh_engine(case, quick_design_options),
            start,
            lambda s: idle_feasible(s, case.apps, case.clock),
        )
        report = Study.from_case_study(
            quick_design_options, strategy="annealing", starts=[start]
        ).run()[0]
        assert report.best_schedule == list(legacy.best_schedule.counts)
        assert report.overall == legacy.best_value

    @pytest.mark.slow
    def test_exhaustive_matches_pre_redesign_search(self, case, tiny_design_options):
        space = enumerate_idle_feasible(case.apps, case.clock)
        legacy = exhaustive_search(
            fresh_engine(case, tiny_design_options), schedules=space
        )
        report = Study.from_case_study(
            tiny_design_options, strategy="exhaustive"
        ).run()[0]
        assert report.best_schedule == list(legacy.best_schedule.counts)
        assert report.overall == legacy.best_value
        assert report.n_space == len(space)
        assert report.search_stats["n_enumerated"] == len(space)


@pytest.mark.slow
class TestStudyRuns:
    def test_report_from_real_run(self, tiny_design_options):
        scenario = synthesized(tiny_design_options)
        report = Study.from_scenarios([scenario]).run()[0]
        assert report.scenario == "synth-000"
        assert report.spec.strategy == "hybrid"
        assert report.spec.n_cores == 1 and report.cores is None
        assert report.problem == scenario_digest(scenario)
        assert len(report.best_schedule) == 2
        assert report.feasible
        assert report.engine_stats["n_computed"] > 0
        assert report.wall_time > 0
        assert {app["name"] for app in report.apps} == {
            app.name for app in scenario.apps
        }
        assert RunReport.from_json(report.to_json()) == report

    def test_multicore_report(self, tiny_design_options):
        scenario = respec(
            synthesized(tiny_design_options, n_cores=2), max_count_per_core=2
        )
        report = Study.from_scenarios([scenario]).run()[0]
        assert report.spec.strategy == "exhaustive"
        assert report.spec.n_cores == 2
        assert report.best_schedule is None
        assert report.cores, "multicore report must carry the partition"
        for core in report.cores:
            assert set(core) == {"app_indices", "apps", "schedule", "ways"}
            assert core["ways"] is None  # private caches: nothing allocated
        assert RunReport.from_json(report.to_json()) == report

    def test_run_dir_persists_and_resumes(self, tiny_design_options, tmp_path):
        scenario = synthesized(tiny_design_options)
        first = Study.from_scenarios([scenario], run_dir=tmp_path).run()[0]
        path = Study.from_scenarios([scenario], run_dir=tmp_path).report_path(
            scenario
        )
        assert path.exists()
        assert RunReport.from_json(path.read_text()) == first

        # A fresh Study resumes from the persisted artifact: the report
        # comes back identical, including its creation timestamp.
        resumed = Study.from_scenarios([scenario], run_dir=tmp_path).run()[0]
        assert resumed == first

        # resume=False recomputes (fresh timestamp, same result).
        recomputed = Study.from_scenarios([scenario], run_dir=tmp_path).run(
            resume=False
        )[0]
        assert recomputed.created_at != first.created_at
        assert recomputed.best_schedule == first.best_schedule
        assert recomputed.overall == first.overall

    def test_resume_rejects_stale_artifacts(self, tiny_design_options, tmp_path):
        scenario = synthesized(tiny_design_options)
        study = Study.from_scenarios([scenario], run_dir=tmp_path)
        first = study.run()[0]
        # Tamper with the persisted problem digest: the artifact no
        # longer answers this scenario, so the study recomputes.
        path = study.report_path(scenario)
        path.write_text(path.read_text().replace(first.problem, "0" * 64))
        again = Study.from_scenarios([scenario], run_dir=tmp_path).run()[0]
        assert again.problem == first.problem
        assert again.created_at != first.created_at

    def test_report_paths_distinct_per_configuration(
        self, tiny_design_options, tmp_path
    ):
        """Different starts/options of one scenario must not share (and
        thrash) a single artifact file."""
        from repro.sched.hybrid import HybridOptions

        base = synthesized(tiny_design_options)
        study = Study.from_scenarios([base], run_dir=tmp_path)
        default_path = study.report_path(base)
        base = respec(base, starts=((1, 1),))
        with_starts = study.report_path(base)
        base = respec(base, options=HybridOptions(max_steps=1))
        with_options = study.report_path(base)
        assert len({default_path, with_starts, with_options}) == 3

    def test_resume_rejects_changed_options(self, tiny_design_options, tmp_path):
        """Changing strategy options must invalidate the persisted report."""
        from repro.sched.hybrid import HybridOptions

        scenario = synthesized(tiny_design_options)
        first = Study.from_scenarios([scenario], run_dir=tmp_path).run()[0]
        scenario = respec(scenario, options=HybridOptions(max_steps=1))
        limited = Study.from_scenarios([scenario], run_dir=tmp_path).run()[0]
        assert limited.created_at != first.created_at
        assert limited.spec.options == HybridOptions(tolerance=0.0, max_steps=1)

    def test_report_records_platform(self, tiny_design_options):
        from repro.cache import CacheConfig
        from repro.platform import Platform

        platform = Platform(
            cache=CacheConfig(n_sets=64), wcet_model="analytic"
        )
        scenario = synthesized(tiny_design_options, platform=platform)
        report = Study.from_scenarios([scenario]).run()[0]
        assert report.spec.platform == platform
        assert report.spec.to_dict()["platform"]["wcet_model"] == "analytic"
        assert RunReport.from_json(report.to_json()) == report

    def test_resume_rejects_changed_platform(self, tiny_design_options, tmp_path):
        """A persisted report must not answer a run on another platform."""
        from repro.cache import CacheConfig
        from repro.platform import Platform

        def scenario_for(platform):
            return synthesized(tiny_design_options, platform=platform)

        first = Study.from_scenarios(
            [scenario_for(None)], run_dir=tmp_path
        ).run()[0]
        moved = Study.from_scenarios(
            [scenario_for(Platform(cache=CacheConfig(miss_cycles=150)))],
            run_dir=tmp_path,
        ).run()[0]
        assert moved.created_at != first.created_at
        assert moved.spec.platform != first.spec.platform
        # And the paper-default platform resumes the original artifact.
        resumed = Study.from_scenarios(
            [scenario_for(None)], run_dir=tmp_path
        ).run()[0]
        assert resumed == first

    def test_interleaved_strategy_reports_refinement(self, tiny_design_options):
        from repro.sched.strategies import InterleavedOptions

        scenario = synthesized(tiny_design_options)
        scenario = respec(
            scenario,
            strategy="interleaved",
            starts=((1, 1), (2, 1)),
            options=InterleavedOptions(max_schedules=20),
        )
        report = Study.from_scenarios([scenario]).run()[0]
        assert report.spec.strategy == "interleaved"
        refinement = report.search_stats["interleaved"]
        assert refinement["n_evaluated"] > 0
        assert refinement["base_schedule"] == report.best_schedule
        assert isinstance(refinement["interleaving_helps"], bool)
        assert RunReport.from_json(report.to_json()) == report


def accounted(report: RunReport) -> bool:
    """The engine accounting identity, read from one report."""
    stats = report.engine_stats
    return stats["n_requested"] == (
        stats["n_memo_hits"] + stats["n_disk_hits"]
        + stats["n_duplicates"] + stats["n_computed"]
    )


def outcome(report: RunReport) -> RunReport:
    """``report`` without what depends on the memo's state or the clock."""
    return replace(report, engine_stats={}, wall_time=0.0, created_at=0.0)


class TestSharedDesignMemo:
    """Scenarios of one problem share one design memo; each still runs
    on its own engine, with its own stats."""

    def test_a_later_search_of_the_problem_computes_nothing(self, tiny_design_options):
        sweep = respec(synthesized(tiny_design_options), strategy="exhaustive")
        hybrid = respec(sweep, strategy="hybrid")
        first, second = Study.from_scenarios([sweep, hybrid]).run()
        assert first.engine_stats["n_computed"] == first.n_space
        assert second.engine_stats["n_computed"] == 0
        assert second.engine_stats["n_requested"] > 0
        assert accounted(first) and accounted(second)

    def test_reports_equal_standalone_runs(self, tiny_design_options):
        a, b = synthesize_scenarios(
            RunSpec(kind="suite", suite_size=2, seed=11, n_apps_choices=(2,)),
            tiny_design_options,
        )
        assert a.problem != b.problem
        a_again = respec(a, strategy="annealing", starts=((1, 1),))
        shared = Study.from_scenarios([a, b, a_again]).run()
        alone = [Study.from_scenarios([s]).run()[0] for s in (a, b, a_again)]
        assert [outcome(r) for r in shared] == [outcome(r) for r in alone]
        assert shared[2].engine_stats["n_computed"] < alone[2].engine_stats["n_computed"]
        assert all(accounted(r) for r in shared)

    def test_memo_is_released_after_its_last_scenario(
        self, tiny_design_options, tmp_path, monkeypatch
    ):
        built = []

        def recording(*args):
            memo = ScheduleEvaluator(*args)
            built.append(weakref.ref(memo))
            return memo

        monkeypatch.setattr(study_module, "ScheduleEvaluator", recording)
        scenarios = synthesize_scenarios(
            RunSpec(kind="suite", suite_size=2, seed=11, n_apps_choices=(2,)),
            tiny_design_options,
        )
        study = Study.from_scenarios(scenarios, run_dir=tmp_path)
        for event in study.stream():
            if isinstance(event, ScenarioStarted) and event.index == 1:
                gc.collect()
                assert len(built) == 1 and built[0]() is None
        assert len(built) == 2
        # A resumed scenario builds no memo.
        Study.from_scenarios(scenarios, run_dir=tmp_path).run()
        assert len(built) == 2
