"""RunReport JSON round-tripping and schema stability."""

import json

import pytest

from repro.platform import Platform
from repro.study import RunReport


def single_core_report() -> RunReport:
    return RunReport(
        scenario="casestudy",
        strategy="hybrid",
        options={"tolerance": 0.0, "max_steps": 64},
        seed=2018,
        n_starts=2,
        starts=[[4, 2, 2], [1, 2, 1]],
        n_cores=1,
        max_count_per_core=6,
        platform=Platform().fingerprint(),
        shared_cache=False,
        n_apps=3,
        problem="ab" * 32,
        n_space=77,
        backend="process-pool",
        engine_stats={
            "n_requested": 30,
            "n_memo_hits": 10,
            "n_disk_hits": 5,
            "n_duplicates": 1,
            "n_computed": 14,
            "n_batches": 4,
            "max_batch": 6,
            "serial_fallback": False,
        },
        best_schedule=[3, 2, 3],
        cores=None,
        overall=0.195,
        feasible=True,
        apps=[
            {"name": "C1", "settling": 0.0101, "performance": 0.776},
            {"name": "C2", "settling": 0.0102, "performance": 0.494},
            {"name": "C3", "settling": 0.0081, "performance": 0.535},
        ],
        wall_time=12.5,
        created_at=1700000000.25,
        search_stats={"n_enumerated": 77, "n_feasible": 74},
    )


def multicore_report() -> RunReport:
    return RunReport(
        scenario="casestudy",
        strategy="exhaustive",
        options={},
        seed=2018,
        n_starts=2,
        starts=None,
        n_cores=2,
        max_count_per_core=2,
        platform=Platform().fingerprint(),
        shared_cache=True,
        n_apps=3,
        problem="cd" * 32,
        n_space=140,
        backend="serial",
        engine_stats={
            "n_requested": 140,
            "n_memo_hits": 0,
            "n_disk_hits": 0,
            "n_duplicates": 0,
            "n_computed": 140,
            "n_batches": 1,
            "max_batch": 140,
            "serial_fallback": False,
        },
        best_schedule=None,
        cores=[
            {"app_indices": [0, 2], "apps": ["C1", "C3"], "schedule": [2, 2],
             "ways": 3},
            {"app_indices": [1], "apps": ["C2"], "schedule": [4], "ways": 1},
        ],
        overall=0.31,
        feasible=True,
        apps=[
            {"name": "C1", "settling": 0.0101, "performance": 0.776},
            {"name": "C2", "settling": 0.0102, "performance": 0.494},
            {"name": "C3", "settling": 0.0081, "performance": 0.535},
        ],
        wall_time=33.0,
        created_at=1700000001.75,
        search_stats={"allocator": "greedy", "n_partitions": 3},
        allocator="greedy",
        allocator_options={"max_partitions": 64, "refine_rounds": 4,
                           "patience": 0},
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
        assert loaded.allocator == "greedy"
        assert loaded.allocator_options["max_partitions"] == 64
        assert loaded.search_stats["n_partitions"] == 3

    def test_pre_allocator_artifact_loads_with_defaults(self):
        """v2 artifacts written before the allocator fields existed
        still load (additive fields, same schema version)."""
        data = single_core_report().to_dict()
        del data["allocator"], data["allocator_options"]
        loaded = RunReport.from_dict(data)
        assert loaded.allocator is None
        assert loaded.allocator_options == {}

    def test_multicore_partition_fields_survive(self):
        report = multicore_report()
        loaded = RunReport.from_json(report.to_json())
        assert loaded.cores == report.cores
        assert loaded.best_schedule is None
        assert loaded.n_cores == 2
        assert loaded.cores[0]["ways"] == 3
        assert loaded.shared_cache is True

    def test_platform_survives(self):
        report = single_core_report()
        loaded = RunReport.from_json(report.to_json())
        assert loaded.platform == Platform().fingerprint()
        assert loaded.platform["cache"]["n_sets"] == 128

    def test_dict_round_trip(self):
        report = single_core_report()
        assert RunReport.from_dict(report.to_dict()) == report


class TestSchema:
    EXPECTED_KEYS = {
        "scenario", "strategy", "options", "seed", "n_starts", "starts",
        "n_cores", "max_count_per_core", "platform", "shared_cache",
        "n_apps", "problem", "n_space",
        "backend", "engine_stats", "best_schedule", "cores", "overall",
        "feasible", "apps", "wall_time", "created_at", "search_stats",
        "allocator", "allocator_options", "dynamic", "sim",
        "identity", "schema_version",
    }

    def test_stable_key_set(self):
        data = json.loads(single_core_report().to_json())
        assert set(data) == self.EXPECTED_KEYS

    def test_sorted_and_parseable(self):
        text = single_core_report().to_json()
        data = json.loads(text)
        assert list(data) == sorted(data)
        assert data["schema_version"] == 3
