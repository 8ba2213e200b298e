"""SimReport: schema-versioned, JSON round-trippable, wall-clock-free."""

from dataclasses import fields

import pytest

from repro.errors import ConfigurationError
from repro.sim import SimReport, load_transient
from repro.sim.report import SCHEMA_VERSION


def sample_report() -> SimReport:
    profile = load_transient(2)
    return SimReport(
        scenario="casestudy-sim",
        horizon=1.0,
        n_apps=2,
        app_names=["C1", "C2"],
        strategy="hybrid",
        adapt=True,
        adapt_strategy="online",
        profile=profile.to_dict(),
        initial_schedule=[2, 2],
        initial_overall=0.65,
        timeline=[
            {"event": "ScheduleSwitch", "time": 0.0, "counts": [2, 2],
             "overall": 0.65, "reason": "initial"},
            {"event": "LoadDisturbance", "time": 0.25,
             "demands": [1.46, 1.46]},
        ],
        segments=[
            {"start": 0.0, "end": 0.25, "schedule": [2, 2],
             "demands": [1.0, 1.0], "load_feasible": True,
             "feasible": True, "cost": 0.35},
            {"start": 0.25, "end": 1.0, "schedule": [2, 2],
             "demands": [1.46, 1.46], "load_feasible": False,
             "feasible": False, "cost": 1.0},
        ],
        apps=[{"name": "C1", "trace": []}, {"name": "C2", "trace": []}],
        adaptations=[
            {"at": 0.25, "from": [2, 2], "to": [1, 1], "ok": True,
             "switched": True, "latency": 0.0058, "completed_at": 0.2558,
             "engine": {"n_requested": 8}},
        ],
        mean_cost=0.8375,
        engine_stats={"n_requested": 76, "n_computed": 33},
    )


class TestRoundTrip:
    def test_json_identity(self):
        report = sample_report()
        assert SimReport.from_json(report.to_json()) == report

    def test_schema_version_travels(self):
        data = sample_report().to_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        assert SimReport.from_dict(data).schema_version == SCHEMA_VERSION

    def test_missing_schema_version_defaults(self):
        data = sample_report().to_dict()
        del data["schema_version"]
        assert SimReport.from_dict(data).schema_version == SCHEMA_VERSION

    def test_json_is_stable_sorted(self):
        one, two = sample_report().to_json(), sample_report().to_json()
        assert one == two


class TestContract:
    def test_no_wall_clock_fields(self):
        # Byte-identical reruns are the contract: nothing in the report
        # may record when (in wall time) the simulation happened.
        names = {f.name for f in fields(SimReport)}
        assert not names & {"created_at", "wall_time", "timestamp"}

    def test_n_adaptations(self):
        assert sample_report().n_adaptations == 1

    def test_unknown_field_is_rejected(self):
        data = {**sample_report().to_dict(), "extra": 1}
        with pytest.raises(ConfigurationError, match="unknown SimReport field"):
            SimReport.from_dict(data)

    def test_other_schema_version_is_rejected(self):
        data = {**sample_report().to_dict(), "schema_version": 99}
        with pytest.raises(ConfigurationError, match="schema_version 99"):
            SimReport.from_dict(data)

    def test_bad_payloads_fail_fast(self):
        with pytest.raises(ConfigurationError):
            SimReport.from_dict("not a dict")
        with pytest.raises(ConfigurationError):
            SimReport.from_dict({"scenario": "x"})


class TestRows:
    def test_timeline_rows(self):
        assert sample_report().timeline_rows() == [
            ["0.0000", "ScheduleSwitch", "-> (2, 2) (initial)"],
            ["0.2500", "LoadDisturbance", "demands (1.46, 1.46)"],
        ]

    def test_segment_rows(self):
        assert sample_report().segment_rows() == [
            ["0.0000-0.2500", "(2, 2)", "(1, 1)", "yes", "0.3500"],
            ["0.2500-1.0000", "(2, 2)", "(1.46, 1.46)", "no", "1.0000"],
        ]

    def test_adaptation_rows(self):
        report = sample_report()
        report.adaptations[0]["demands"] = [1.46, 1.46]
        failed = dict(report.adaptations[0], to=None, switched=False)
        report.adaptations.append(failed)
        assert report.adaptation_rows() == [
            ["0.250", "(1.46, 1.46)", "(2, 2)", "(1, 1)", "yes", "5.80", "8"],
            ["0.250", "(1.46, 1.46)", "(2, 2)", "failed", "no", "5.80", "8"],
        ]
