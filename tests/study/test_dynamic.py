"""Dynamic scenarios through the Study front door: sim wiring, resume."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.sched.engine.batch import Scenario, synthesize_scenarios
from repro.sched.schedule import PeriodicSchedule
from repro.sim import DynamicProfile, SimReport, load_transient
from repro.study import (
    RunReport,
    RunSpec,
    SimulationFinished,
    SimulationProgress,
    Study,
)


def suite(design_options, **run):
    return synthesize_scenarios(RunSpec(kind="suite", **run), design_options)


@pytest.fixture(scope="module")
def case():
    from repro.apps import build_case_study

    return build_case_study()


class TestScenarioValidation:
    def test_dynamic_must_be_a_profile(self, case, tiny_design_options):
        with pytest.raises(ConfigurationError):
            Scenario(
                "bad", case.apps, case.clock, tiny_design_options,
                RunSpec(dynamic={"horizon": 1.0}),
            )

    def test_dynamic_rejects_multicore(self, case, tiny_design_options):
        with pytest.raises(ConfigurationError):
            Scenario(
                "bad", case.apps, case.clock, tiny_design_options,
                RunSpec(n_cores=2, dynamic=load_transient(len(case.apps))),
            )

    def test_dynamic_profile_checked_against_apps(
        self, case, tiny_design_options
    ):
        with pytest.raises(ConfigurationError):
            Scenario(
                "bad", case.apps, case.clock, tiny_design_options,
                RunSpec(dynamic=load_transient(len(case.apps) + 1)),
            )


class TestSynthesizedDynamicSuites:
    def test_dynamic_suite_draws_identical_apps(self, tiny_design_options):
        static = suite(tiny_design_options, suite_size=3, seed=5)
        dynamic = suite(
            tiny_design_options, suite_size=3, seed=5, random_dynamic=True
        )
        for s, d in zip(static, dynamic):
            # Same seed, same applications — the profile rides along.
            assert [a.name for a in s.apps] == [a.name for a in d.apps]
            assert [a.max_idle for a in s.apps] == [a.max_idle for a in d.apps]
            assert s.spec.dynamic is None
            assert isinstance(d.spec.dynamic, DynamicProfile)
            d.spec.dynamic.check_apps(len(d.apps))

    def test_dynamic_profiles_differ_per_scenario(self, tiny_design_options):
        drawn = suite(
            tiny_design_options, suite_size=2, seed=5, random_dynamic=True
        )
        assert drawn[0].spec.dynamic != drawn[1].spec.dynamic

    def test_dynamic_multicore_suite_rejected(self, tiny_design_options):
        with pytest.raises(ConfigurationError):
            suite(
                tiny_design_options, suite_size=1, seed=5, n_cores=2,
                random_dynamic=True,
            )


class TestDynamicStudyRuns:
    @pytest.fixture(scope="class")
    def run_dir(self, tiny_design_options, tmp_path_factory):
        return tmp_path_factory.mktemp("dynamic-runs")

    @pytest.fixture(scope="class")
    def study(self, tiny_design_options, run_dir):
        return Study.from_case_study(
            tiny_design_options,
            strategy="hybrid",
            starts=[PeriodicSchedule.of(2, 2, 2)],
            dynamic=load_transient(3),
            run_dir=run_dir,
            name="casestudy-sim",
        )

    @pytest.fixture(scope="class")
    def events_and_report(self, study):
        events = []
        report = study.run(on_event=events.append)[0]
        return events, report

    def test_report_embeds_profile_and_sim(self, events_and_report):
        _, report = events_and_report
        assert report.spec.dynamic == load_transient(3)
        sim = SimReport.from_dict(report.sim)
        assert sim.adapt and sim.adapt_strategy == "online"
        assert sim.horizon == 1.0
        assert RunReport.from_dict(json.loads(report.to_json())) == report

    def test_sim_events_stream_through_study(self, events_and_report):
        events, report = events_and_report
        progress = [e for e in events if isinstance(e, SimulationProgress)]
        finished = [e for e in events if isinstance(e, SimulationFinished)]
        sim = SimReport.from_dict(report.sim)
        assert len(progress) == len(sim.timeline)
        assert [e.sim.to_dict() for e in progress] == [
            {**entry, "demands": tuple(entry["demands"])}
            if entry["event"] == "LoadDisturbance"
            else {**entry, "counts": tuple(entry["counts"])}
            if entry["event"] == "ScheduleSwitch"
            else entry
            for entry in sim.timeline
        ]
        (done,) = finished
        assert done.mean_cost == sim.mean_cost
        assert done.n_adaptations == sim.n_adaptations
        assert done.report == sim

    def test_resume_round_trips_the_simulation(self, study, events_and_report):
        _, original = events_and_report
        events = []
        resumed = study.run(on_event=events.append)[0]
        assert resumed == original
        # A resumed scenario re-runs nothing: no simulation progress.
        assert not [e for e in events if isinstance(e, SimulationProgress)]

    def test_profile_change_invalidates_resume(
        self, tiny_design_options, run_dir, events_and_report
    ):
        changed = Study.from_case_study(
            tiny_design_options,
            strategy="hybrid",
            starts=[PeriodicSchedule.of(2, 2, 2)],
            dynamic=load_transient(3, stress=1.2),
            run_dir=run_dir,
            name="casestudy-sim",
        )
        report = changed.run()[0]
        assert report.spec.dynamic == load_transient(3, stress=1.2)
        _, original = events_and_report
        assert report.sim != original.sim
