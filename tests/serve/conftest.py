"""Shared fixtures for the serve test suite."""

from __future__ import annotations

import pytest

from repro.study import RunReport, RunSpec


@pytest.fixture(autouse=True)
def quick_profile(monkeypatch):
    """Server-side searches use the quick design budget."""
    monkeypatch.setenv("REPRO_PROFILE", "quick")


@pytest.fixture()
def legacy_record() -> str:
    """A ledger record as written before the evaluation-backend switch
    was removed: its spec still carries ``eval_backend``."""
    return (
        '{"error": null, "finished_at": 15.0, "id": "job-000003", "reports": '
        '[{"overall": 0.6, "scenario": "casestudy"}], "schema_version": 1, '
        '"spec": {"allocator": null, "allocator_options": null, "dynamic": null, '
        '"eval_backend": "serial", "jitter_platform": false, "kind": "search", '
        '"max_count_per_core": 6, "n_apps": null, "n_apps_choices": [2, 3], '
        '"n_cores": 1, "n_starts": 2, "options": null, "platform": null, '
        '"random_dynamic": false, "resume": true, "schema_version": 1, '
        '"seed": 2018, "shared_cache": false, "starts": null, '
        '"strategy": "hybrid", "suite_size": 4}, "started_at": 11.0, '
        '"state": "done", "submitted_at": 10.0}'
    )


@pytest.fixture()
def synthetic_report() -> RunReport:
    """A small, fully-populated report for round-trip tests."""
    return RunReport(
        scenario="casestudy",
        spec=RunSpec(strategy="hybrid", starts=((4, 2, 2),), n_starts=1),
        problem="deadbeef",
        n_space=77,
        backend="vectorized",
        engine_stats={"n_computed": 5, "n_requested": 9},
        best_schedule=[4, 2, 2],
        cores=None,
        overall=0.61,
        feasible=True,
        apps=[{"name": "C1", "settling": 0.01, "performance": 0.2}],
        wall_time=1.25,
        created_at=1700000000.0,
    )
