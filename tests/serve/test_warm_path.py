"""The warm path of a long-lived server: bounded per-job memory,
process-wide analysis memos that never serve one job another's inputs,
and one shared evaluation store whose decoded-row memo changes no
report.

Searches run under the quick design profile (conftest).
"""

import json

import pytest

from repro.cache import CacheConfig
from repro.experiments.profiles import design_options_for_profile
from repro.platform import Platform
from repro.sched.engine import EngineOptions, PersistentCache
from repro.sched.feasibility import SPACE_MEMO
from repro.serve import JobRecord, JobRecordGoneError, JobSpec, ServeClient
from repro.serve.service import RETAINED_FINISHED_JOBS
from repro.serve.testing import ServerThread
from repro.serve.wire import StatusMessage
from repro.study import Study
from repro.wcet.reuse import WCET_MEMO


def _spec(start=(4, 2, 2), **fields) -> JobSpec:
    """A small, fast case-study search job."""
    return JobSpec(strategy="hybrid", starts=(start,), n_starts=1, **fields)


#: Two platforms that differ from the paper's (and from each other)
#: in one field each: the memo key must see both.  Half the sets lengthen
#: every warm WCET, which moves the idle-feasible space; ``(2, 2, 2)``
#: stays feasible on both.
PLATFORMS = (
    Platform(cache=CacheConfig(n_sets=64)),
    Platform(wcet_model="analytic"),
)

#: Report fields that record how and when a run happened, not what it
#: computed.
_RUN_FIELDS = ("wall_time", "created_at", "engine_stats")


def _computed(report: dict) -> dict:
    return {key: value for key, value in report.items() if key not in _RUN_FIELDS}


@pytest.fixture()
def serve_dir(tmp_path):
    return tmp_path / "serve"


def _clear_memos() -> None:
    WCET_MEMO.clear()
    SPACE_MEMO.clear()


class TestRetention:
    def test_finished_jobs_past_the_window_shrink_to_summaries(self, serve_dir):
        n_jobs = RETAINED_FINISHED_JOBS + 3
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            ids = [client.wait(client.submit(_spec()).id).id for _ in range(n_jobs)]
            service = server.service
            full = [r.id for r in service.records() if r.reports is not None]
            assert full == ids[-RETAINED_FINISHED_JOBS:]
            evicted = ids[:-RETAINED_FINISHED_JOBS]
            for job_id in evicted:
                [line] = service._history[job_id]
                assert line["type"] == "status" and line["state"] == "done"
            assert all(len(service._history[job_id]) > 1 for job_id in full)

            # An evicted job reads back from its ledger file, reports
            # included, and its replay ends on the terminal status.
            oldest = evicted[0]
            ledger = JobRecord.from_json(
                (serve_dir / "jobs" / f"{oldest}.json").read_text()
            )
            assert client.job(oldest) == ledger
            assert ledger.reports and ledger.reports == client.job(ids[-1]).reports
            replay = list(client.watch(oldest))
            assert len(replay) == 1
            assert isinstance(replay[0], StatusMessage)
            assert replay[0].state == "done"
            # The listing still names every job.
            assert [record.id for record in client.jobs()] == ids

            # A missing or corrupt ledger file is a clear 410, not a 500.
            (serve_dir / "jobs" / f"{evicted[1]}.json").unlink()
            (serve_dir / "jobs" / f"{evicted[2]}.json").write_text("{torn")
            for job_id in evicted[1:3]:
                with pytest.raises(JobRecordGoneError) as excinfo:
                    client.job(job_id)
                assert job_id in str(excinfo.value)
            # The summary and the replay need no ledger file.
            assert list(client.watch(evicted[1]))[-1].state == "done"


class TestMemoAcrossJobs:
    def test_platform_switches_and_concurrent_jobs_match_direct_runs(
        self, serve_dir, tmp_path
    ):
        specs = [_spec((2, 2, 2), platform=platform) for platform in PLATFORMS]
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            serial = [client.wait(client.submit(spec).id) for spec in specs]
        assert all(record.state == "done" for record in serial)
        reports = [record.reports[0] for record in serial]
        assert reports[0]["problem"] != reports[1]["problem"]
        assert reports[0]["n_space"] != reports[1]["n_space"]

        # Each served report is what a direct run computes from scratch
        # (fresh memos, fresh run dir; the evaluations come from the
        # server's disk cache, keyed by the platform-aware problem).
        for spec, report in zip(specs, reports):
            _clear_memos()
            study = Study.from_spec(
                spec,
                design_options_for_profile(),
                EngineOptions(cache_dir=str(serve_dir / "cache")),
                run_dir=tmp_path / f"direct-{spec.digest()}",
            )
            [direct] = study.run(resume=False)
            assert _computed(direct.to_dict()) == _computed(report)

        # Two jobs on two platforms racing through cold memos on a
        # two-job server return the serial reports.
        _clear_memos()
        with ServerThread(
            run_dir=tmp_path / "concurrent", cache_dir=serve_dir / "cache", max_jobs=2
        ) as server:
            client = ServeClient(server.url)
            submitted = [client.submit(spec) for spec in specs]
            concurrent = [client.wait(record.id) for record in submitted]
        for record, report in zip(concurrent, reports):
            assert record.state == "done"
            assert json.dumps(_computed(record.reports[0]), sort_keys=True) == json.dumps(
                _computed(report), sort_keys=True
            )


class TestSharedStore:
    def test_the_service_holds_one_store_for_its_lifetime(self, serve_dir):
        with ServerThread(run_dir=serve_dir) as server:
            store = server.service.store
            assert store is not None and not store.closed
            assert PersistentCache.shared(serve_dir / "cache") is store
            store.release()
            client = ServeClient(server.url)
            # Computed, then decoded from disk, then served by the memo.
            for _ in range(3):
                assert client.wait(client.submit(_spec(resume=False)).id).state == "done"
            # Every job released its engine's reference; the service's
            # own keeps the store (and its decoded-row memo) open.
            assert server.service.store is store and not store.closed
            assert store.decoded.get_stats()["hits"] > 0
        assert store.closed

    def test_racing_jobs_return_the_serial_reports(self, serve_dir, tmp_path):
        """Exhaustive and hybrid resubmits racing on a two-job server
        return what one job at a time returns, with equal engine stats —
        and both equal a direct run through a store nobody holds, which
        reads and decodes every row from SQLite (memo-served rows count
        as disk hits)."""
        specs = [
            JobSpec(strategy="exhaustive", resume=False),
            JobSpec(strategy="hybrid", starts=((4, 2, 2),), resume=False),
        ]
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            for spec in specs:  # cold: computes and fills the cache
                assert client.wait(client.submit(spec).id).state == "done"
            serial = [client.wait(client.submit(spec).id).reports[0] for spec in specs]
        assert all(report["engine_stats"]["n_computed"] == 0 for report in serial)

        direct = []
        for spec in specs:
            study = Study.from_spec(
                spec,
                design_options_for_profile(),
                EngineOptions(cache_dir=str(serve_dir / "cache")),
                run_dir=tmp_path / "direct",
            )
            [report] = study.run(resume=False)
            direct.append(report.to_dict())

        with ServerThread(
            run_dir=tmp_path / "race", cache_dir=serve_dir / "cache", max_jobs=2
        ) as server:
            client = ServeClient(server.url)
            for _ in range(2):  # cold memo, then warm memo
                submitted = [client.submit(spec) for spec in specs]
                racing = [client.wait(record.id) for record in submitted]
                for record, expected, plain in zip(racing, serial, direct):
                    assert record.state == "done"
                    report = record.reports[0]
                    assert report["engine_stats"] == expected["engine_stats"]
                    assert report["engine_stats"] == plain["engine_stats"]
                    assert _computed(report) == _computed(expected) == _computed(plain)
