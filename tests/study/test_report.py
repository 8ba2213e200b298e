"""RunReport JSON round-tripping and schema stability."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.multicore.allocators import GreedyAllocatorOptions
from repro.platform import Platform, shared_paper_platform
from repro.sched.hybrid import HybridOptions
from repro.sim.profiles import load_transient
from repro.sim.report import SimReport, json_safe
from repro.study import RunReport, RunSpec
from repro.study.report import SCHEMA_VERSION

STATS = {
    "n_requested": 30,
    "n_memo_hits": 10,
    "n_disk_hits": 5,
    "n_duplicates": 1,
    "n_computed": 14,
    "n_batches": 4,
    "max_batch": 6,
    "serial_fallback": False,
}

APPS = [
    {"name": "C1", "settling": 0.0101, "performance": 0.776},
    {"name": "C2", "settling": 0.0102, "performance": 0.494},
    {"name": "C3", "settling": 0.0081, "performance": 0.535},
]


def single_core_report() -> RunReport:
    return RunReport(
        scenario="casestudy",
        spec=RunSpec(
            strategy="hybrid",
            options=HybridOptions(tolerance=0.0, max_steps=64),
            starts=((4, 2, 2), (1, 2, 1)),
            platform=Platform(),
        ),
        problem="ab" * 32,
        n_space=77,
        backend="process-pool",
        engine_stats=dict(STATS),
        best_schedule=[3, 2, 3],
        cores=None,
        overall=0.195,
        feasible=True,
        apps=[dict(app) for app in APPS],
        wall_time=12.5,
        created_at=1700000000.25,
        search_stats={"n_evaluations": 9, "n_enumerated": 77, "n_feasible": 74},
    )


def multicore_report() -> RunReport:
    return RunReport(
        scenario="casestudy",
        spec=RunSpec(
            strategy="exhaustive",
            n_cores=2,
            max_count_per_core=2,
            platform=shared_paper_platform(),
            shared_cache=True,
            allocator="greedy",
            allocator_options=GreedyAllocatorOptions(max_partitions=64),
        ),
        problem="cd" * 32,
        n_space=140,
        backend="serial",
        engine_stats=dict(STATS, n_requested=140, n_computed=140),
        best_schedule=None,
        cores=[
            {"app_indices": [0, 2], "apps": ["C1", "C3"], "schedule": [2, 2],
             "ways": 3},
            {"app_indices": [1], "apps": ["C2"], "schedule": [4], "ways": 1},
        ],
        overall=0.31,
        feasible=True,
        apps=[dict(app) for app in APPS],
        wall_time=33.0,
        created_at=1700000001.75,
        search_stats={"n_partitions": 3},
    )


def dynamic_report() -> RunReport:
    profile = load_transient(3, horizon=0.5, stress=1.3)
    return RunReport(
        scenario="casestudy-sim",
        spec=RunSpec(strategy="hybrid", dynamic=profile),
        problem="ef" * 32,
        n_space=77,
        backend="serial",
        engine_stats=dict(STATS),
        best_schedule=[2, 2, 2],
        cores=None,
        overall=0.61,
        feasible=True,
        apps=[dict(app, settling=float("inf")) for app in APPS],
        wall_time=1.5,
        created_at=1700000002.5,
        sim=SimReport(
            scenario="casestudy-sim", horizon=0.5, n_apps=3, app_names=["C1", "C2", "C3"],
            strategy="hybrid", adapt=True, adapt_strategy="online",
            profile=json_safe(profile.to_dict()), initial_schedule=[2, 2, 2],
            initial_overall=0.61, timeline=[], segments=[], apps=[], adaptations=[],
            mean_cost=0.4,
        ).to_dict(),
        identity={"seed": "00" * 32},
    )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "report", [single_core_report(), multicore_report()],
        ids=["single-core", "multicore"],
    )
    def test_json_identity(self, report):
        assert RunReport.from_json(report.to_json()) == report

    def test_engine_stats_survive(self):
        report = single_core_report()
        loaded = RunReport.from_json(report.to_json())
        assert loaded.engine_stats == report.engine_stats
        assert loaded.search_stats == report.search_stats

    def test_allocator_fields_survive(self):
        report = multicore_report()
        loaded = RunReport.from_json(report.to_json())
        assert loaded.spec.allocator == "greedy"
        assert loaded.spec.allocator_options == GreedyAllocatorOptions(max_partitions=64)
        assert loaded.search_stats["n_partitions"] == 3

    def test_pre_spec_artifact_is_rejected(self):
        """A schema-3 artifact (the per-field header before the spec)
        fails loudly, naming both versions, instead of loading with
        guessed defaults."""
        data = single_core_report().to_dict()
        data["schema_version"] = 3
        with pytest.raises(ConfigurationError) as excinfo:
            RunReport.from_dict(data)
        message = str(excinfo.value)
        assert "schema_version 3" in message and f"speaks {SCHEMA_VERSION}" in message

    def test_unknown_field_is_rejected(self):
        data = single_core_report().to_dict()
        data["strategy"] = "hybrid"
        with pytest.raises(ConfigurationError, match="unknown RunReport field"):
            RunReport.from_dict(data)

    def test_multicore_partition_fields_survive(self):
        report = multicore_report()
        loaded = RunReport.from_json(report.to_json())
        assert loaded.cores == report.cores
        assert loaded.best_schedule is None
        assert loaded.spec.n_cores == 2
        assert loaded.cores[0]["ways"] == 3
        assert loaded.spec.shared_cache is True

    def test_platform_survives(self):
        report = single_core_report()
        loaded = RunReport.from_json(report.to_json())
        assert loaded.spec.platform == Platform()
        assert json.loads(report.to_json())["spec"]["platform"]["cache"]["n_sets"] == 128

    def test_dict_round_trip(self):
        report = single_core_report()
        assert RunReport.from_dict(report.to_dict()) == report


class TestRows:
    def test_schedule_cell(self):
        assert single_core_report().schedule_cell() == "(3, 2, 3)"
        assert multicore_report().schedule_cell() == "(2, 2) + (4)"

    def test_app_rows(self):
        apps = [*APPS[:2], dict(APPS[2], settling=float("inf"))]
        report = replace(single_core_report(), apps=apps)
        assert report.app_rows() == [
            ["C1", "10.10 ms", "0.776"],
            ["C2", "10.20 ms", "0.494"],
            ["C3", "unsettled", "0.535"],
        ]

    def test_core_rows(self):
        assert multicore_report().core_rows() == [
            ("0", "C1, C3", 3, "(2, 2)", ("10.10", "8.10")),
            ("1", "C2", 1, "(4)", ("10.20",)),
        ]

    def test_single_core_run_is_one_core(self):
        assert single_core_report().core_rows() == [
            ("0", "C1, C2, C3", None, "(3, 2, 3)", ("10.10", "10.20", "8.10")),
        ]

    def test_engine_summary(self):
        assert single_core_report().engine_summary() == (
            "30 requested = 14 computed + 10 memo + 5 disk + 1 duplicate"
        )

    def test_a_corrupt_sim_is_rejected(self):
        data = dict(dynamic_report().to_dict(), sim={"foo": 1})
        with pytest.raises(ConfigurationError, match="unknown SimReport field"):
            RunReport.from_dict(data)


class TestRoundTripProperty:
    """``RunReport.from_json(r.to_json()) == r`` for single-core,
    multicore and dynamic reports, whatever their outcome values."""

    floats = st.floats(allow_nan=False, allow_infinity=True, width=64)

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.sampled_from([single_core_report, multicore_report, dynamic_report]),
        overall=st.floats(allow_nan=False, allow_infinity=False),
        settling=st.lists(floats, min_size=3, max_size=3),
        seed=st.integers(min_value=0, max_value=2**31),
        n_computed=st.integers(min_value=0, max_value=10**6),
        wall_time=st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    )
    def test_json_round_trip(self, base, overall, settling, seed, n_computed, wall_time):
        report = base()
        report = replace(
            report,
            spec=replace(report.spec, seed=seed),
            overall=overall,
            apps=[dict(app, settling=value) for app, value in zip(report.apps, settling)],
            engine_stats=dict(report.engine_stats, n_computed=n_computed),
            wall_time=wall_time,
        )
        assert RunReport.from_json(report.to_json()) == report


class TestSchema:
    EXPECTED_KEYS = {
        "scenario", "spec", "problem", "n_space",
        "backend", "engine_stats", "best_schedule", "cores", "overall",
        "feasible", "apps", "wall_time", "created_at", "search_stats",
        "sim", "identity", "schema_version",
    }

    def test_stable_key_set(self):
        data = json.loads(single_core_report().to_json())
        assert set(data) == self.EXPECTED_KEYS

    def test_sorted_and_parseable(self):
        text = single_core_report().to_json()
        data = json.loads(text)
        assert list(data) == sorted(data)
        assert data["schema_version"] == 4
