"""Run-dir edge cases: slug collisions and per-axis resume rejection."""

from dataclasses import replace

import pytest

from repro.cache import CacheConfig
from repro.platform import Platform
from repro.sched.engine.batch import synthesize_scenarios
from repro.study import RunSpec, Study


def respec(scenario, **changes):
    """``scenario`` with its spec's fields ``changes`` (re-resolved)."""
    return replace(scenario, spec=replace(scenario.spec, **changes))


@pytest.fixture()
def scenario(tiny_design_options):
    spec = RunSpec(kind="suite", suite_size=1, seed=11, n_apps_choices=(2,))
    return synthesize_scenarios(spec, tiny_design_options)[0]


class TestReportPathCollisions:
    def test_slug_colliding_names_get_distinct_paths(self, scenario, tmp_path):
        """Names that collapse to one filesystem slug ("synth 000" vs
        "synth_000") must not share (and thrash) one artifact file."""
        study = Study.from_scenarios([scenario], run_dir=tmp_path)
        spaced = replace(scenario, name="synth 000")
        underscored = replace(scenario, name="synth_000")
        assert study.report_path(spaced) != study.report_path(underscored)
        # Both slugs still render identically in the human-readable prefix.
        assert (
            study.report_path(spaced).name.split("--")[0]
            == study.report_path(underscored).name.split("--")[0]
        )

    @pytest.mark.slow
    def test_resume_never_serves_a_renamed_scenario(
        self, scenario, tmp_path, monkeypatch
    ):
        """Even a forced path collision must not resume across names."""
        study = Study.from_scenarios([scenario], run_dir=tmp_path)
        report = study.run()[0]
        renamed = replace(scenario, name="synth 000")
        real_path = study.report_path(scenario)
        monkeypatch.setattr(Study, "report_path", lambda self, s: real_path)
        assert Study.from_scenarios(
            [renamed], run_dir=tmp_path
        )._load_existing(renamed) is None
        assert report.scenario == scenario.name


@pytest.mark.slow
class TestResumeRejectionPerAxis:
    """One regression test per resume axis: strategy, seed, platform."""

    def test_changed_strategy_recomputes(self, scenario, tmp_path):
        first = Study.from_scenarios([scenario], run_dir=tmp_path).run()[0]
        assert first.spec.strategy == "hybrid"
        moved = respec(scenario, strategy="annealing")
        second = Study.from_scenarios([moved], run_dir=tmp_path).run()[0]
        assert second.spec.strategy == "annealing"
        assert second.created_at != first.created_at
        # And the original strategy still resumes its own artifact.
        resumed = Study.from_scenarios([scenario], run_dir=tmp_path).run()[0]
        assert resumed == first

    def test_changed_seed_recomputes(self, scenario, tmp_path):
        first = Study.from_scenarios([scenario], run_dir=tmp_path).run()[0]
        moved = respec(scenario, seed=scenario.spec.seed + 1)
        second = Study.from_scenarios([moved], run_dir=tmp_path).run()[0]
        assert second.spec.seed == scenario.spec.seed + 1
        assert second.created_at != first.created_at
        resumed = Study.from_scenarios([scenario], run_dir=tmp_path).run()[0]
        assert resumed == first

    def test_changed_platform_recomputes(self, scenario, tmp_path):
        first = Study.from_scenarios([scenario], run_dir=tmp_path).run()[0]
        moved = respec(scenario, platform=Platform(cache=CacheConfig(miss_cycles=150)))
        second = Study.from_scenarios([moved], run_dir=tmp_path).run()[0]
        assert second.spec.platform != first.spec.platform
        assert second.created_at != first.created_at
        resumed = Study.from_scenarios([scenario], run_dir=tmp_path).run()[0]
        assert resumed == first
