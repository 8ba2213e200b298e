"""HTTP integration: the full submit/stream/fetch loop over sockets.

Every test runs a real :class:`~repro.serve.server.ReproServer` on a
daemon thread (:class:`~repro.serve.testing.ServerThread`) and talks
to it through the stdlib client — the exact path production clients
use.  Searches run under the quick design profile (conftest).
"""

import http.client
import json

import pytest

from repro.errors import ConfigurationError, ServeError
from repro.experiments.profiles import design_options_for_profile
from repro.sched.engine import EngineOptions
from repro.serve import (
    JobService,
    JobSpec,
    QueueFullError,
    ServeClient,
    ServerDrainingError,
    UnknownJobError,
)
from repro.serve.testing import ServerThread
from repro.serve.wire import EventMessage, StatusMessage
from repro.study import Study
from repro.study.events import ScenarioFinished, ScenarioResumed


def _spec() -> JobSpec:
    """A small, fast case-study search job."""
    return JobSpec(strategy="hybrid", starts=((4, 2, 2),), n_starts=1)


@pytest.fixture()
def serve_dir(tmp_path):
    return tmp_path / "serve"


class TestHttpBasics:
    def test_health_and_routing(self, serve_dir):
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            health = client.health()
            assert health["status"] == "ok"
            assert health["draining"] is False
            assert client.jobs() == []
            with pytest.raises(UnknownJobError) as exc:
                client.job("job-999999")
            assert "job-999999" in str(exc.value)
            # Unknown route -> 404 ServeError; bad method -> 405.
            with pytest.raises(ServeError):
                client._request("GET", "/nope")
            with pytest.raises(ServeError):
                client._request("DELETE", "/jobs")

    def test_unknown_strategy_fails_over_http_with_registry(self, serve_dir):
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            with pytest.raises(ConfigurationError) as exc:
                client.submit(JobSpec(strategy="anealing"))
            message = str(exc.value)
            assert "anealing" in message
            assert "annealing" in message and "exhaustive" in message
            assert client.jobs() == []  # nothing was enqueued

    def test_malformed_body_is_a_400(self, serve_dir):
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            conn = http.client.HTTPConnection(
                client.host, client.port, timeout=30
            )
            try:
                conn.request("POST", "/jobs", body=b"{not json")
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 400
            assert payload["kind"] == "ConfigurationError"

    def test_invalid_run_is_a_400_before_the_ledger(self, serve_dir):
        # 4 cores for the case study's 3 applications fails at submit,
        # naming the constraint, instead of failing the job at run time.
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            conn = http.client.HTTPConnection(
                client.host, client.port, timeout=30
            )
            try:
                conn.request("POST", "/jobs", body=json.dumps({"n_cores": 4}))
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 400
            assert payload["kind"] == "ConfigurationError"
            assert "n_cores=4 exceeds the 3 applications" in payload["error"]
            assert client.jobs() == []
        assert list((serve_dir / "jobs").iterdir()) == []

    def test_too_few_shared_cache_ways_is_a_400_before_the_ledger(self, serve_dir):
        # Without a platform the cache is the direct-mapped paper cache:
        # one way cannot be split between two cores.
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            conn = http.client.HTTPConnection(
                client.host, client.port, timeout=30
            )
            try:
                body = json.dumps({"n_cores": 2, "shared_cache": True})
                conn.request("POST", "/jobs", body=body)
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 400
            assert payload["kind"] == "ConfigurationError"
            assert "associativity >= 2, got 1" in payload["error"]
            assert client.jobs() == []
        assert list((serve_dir / "jobs").iterdir()) == []

    def test_one_core_cap_is_a_400_before_the_ledger(self, serve_dir):
        # A one-core run ignores max_count_per_core, so a cap there would
        # only fork the run's identity.
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            conn = http.client.HTTPConnection(
                client.host, client.port, timeout=30
            )
            try:
                body = json.dumps({"n_cores": 1, "max_count_per_core": 2})
                conn.request("POST", "/jobs", body=body)
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 400
            assert payload["kind"] == "ConfigurationError"
            assert "max_count_per_core requires n_cores >= 2" in payload["error"]
            assert client.jobs() == []
        assert list((serve_dir / "jobs").iterdir()) == []

    def test_queue_bound_rejects_with_429(self, serve_dir):
        with ServerThread(run_dir=serve_dir, queue_size=0) as server:
            client = ServeClient(server.url)
            with pytest.raises(QueueFullError):
                client.submit(_spec())


class TestJobExecution:
    def test_submit_wait_fetch_equals_direct_study_run(self, serve_dir):
        spec = _spec()
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            record = client.submit(spec)
            assert record.state == "queued"
            final = client.wait(record.id)
            assert final.state == "done"
            assert final.error is None
            assert final.started_at >= final.submitted_at
            assert final.finished_at >= final.started_at
            [report] = client.reports(record.id)
            assert report.feasible and report.overall > 0

        # A direct Study run pointed at the server's run dir and cache
        # resumes the server's persisted report byte-identically: the
        # service adds zero semantics on top of --run-dir/--cache-dir.
        study = Study.from_spec(
            spec,
            design_options_for_profile(),
            EngineOptions(cache_dir=str(serve_dir / "cache")),
            run_dir=serve_dir / "runs",
        )
        [direct] = study.run(resume=True)
        assert direct.to_dict() == final.reports[0]

    def test_concurrent_identical_jobs_are_byte_identical(self, serve_dir):
        spec = _spec()
        with ServerThread(run_dir=serve_dir, max_jobs=2) as server:
            client = ServeClient(server.url)
            records = [client.submit(spec) for _ in range(3)]
            assert len({record.id for record in records}) == 3
            finals = [client.wait(record.id) for record in records]
            assert all(final.state == "done" for final in finals)
            blobs = {
                json.dumps(final.reports, sort_keys=True) for final in finals
            }
            assert len(blobs) == 1  # N submissions, one report, byte-identical

            # A resume=False job re-runs the search against the shared
            # persistent cache: everything is a disk hit, nothing is
            # recomputed — the warm-start split EngineStats promises.
            rerun = client.wait(
                client.submit(
                    JobSpec(
                        strategy="hybrid",
                        starts=((4, 2, 2),),
                        n_starts=1,
                        resume=False,
                    )
                ).id
            )
            assert rerun.state == "done"
            stats = rerun.reports[0]["engine_stats"]
            assert stats["n_computed"] == 0
            assert stats["n_disk_hits"] > 0
            assert stats["n_requested"] == (
                stats["n_memo_hits"]
                + stats["n_disk_hits"]
                + stats["n_duplicates"]
                + stats["n_computed"]
            )
            assert rerun.reports[0]["overall"] == finals[0].reports[0]["overall"]

    def test_job_timeout_marks_failed(self, serve_dir):
        with ServerThread(run_dir=serve_dir, job_timeout=0.001) as server:
            client = ServeClient(server.url)
            record = client.submit(_spec())
            final = client.wait(record.id)
            assert final.state == "failed"
            assert "timeout" in (final.error or "")
            with pytest.raises(ServeError) as exc:
                client.reports(record.id)
            assert "failed" in str(exc.value)


class TestEventStreaming:
    def test_watch_streams_typed_messages_live(self, serve_dir):
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            record = client.submit(_spec())
            messages = list(client.watch(record.id))

        statuses = [m for m in messages if isinstance(m, StatusMessage)]
        events = [m for m in messages if isinstance(m, EventMessage)]
        assert statuses[0].state == "queued"
        assert statuses[-1].state == "done"
        assert "running" in {s.state for s in statuses}
        assert events, "a live search must stream progress events"
        assert any(
            isinstance(m.event, (ScenarioFinished, ScenarioResumed))
            for m in events
        )
        # One ordered stream per job: sequence numbers strictly grow.
        seqs = [m.seq for m in messages]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert all(m.job == record.id for m in messages)

    def test_watch_finished_job_replays_to_terminal(self, serve_dir):
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            record = client.submit(_spec())
            client.wait(record.id)
            replay = list(client.watch(record.id))
            assert isinstance(replay[-1], StatusMessage)
            assert replay[-1].state == "done"

    def test_sse_rendering_of_the_same_stream(self, serve_dir):
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            record = client.submit(_spec())
            client.wait(record.id)
            conn = http.client.HTTPConnection(
                client.host, client.port, timeout=30
            )
            try:
                conn.request(
                    "GET",
                    f"/jobs/{record.id}/events",
                    headers={"Accept": "text/event-stream"},
                )
                response = conn.getresponse()
                assert response.status == 200
                assert response.getheader("Content-Type") == "text/event-stream"
                body = response.read().decode()
            finally:
                conn.close()
        frames = [f for f in body.split("\n\n") if f.strip()]
        assert all(f.startswith("event: ") for f in frames)
        datas = [
            json.loads(f.split("data: ", 1)[1]) for f in frames
        ]
        assert datas[0]["type"] == "status" and datas[0]["state"] == "queued"
        assert datas[-1]["type"] == "status" and datas[-1]["state"] == "done"

    def test_streaming_unknown_job_is_a_404(self, serve_dir):
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            with pytest.raises(UnknownJobError):
                list(client.watch("job-424242"))


class TestRestartResume:
    def test_restarted_server_restores_ledger_and_resumes(self, serve_dir):
        spec = _spec()
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            first = client.wait(client.submit(spec).id)
            assert first.state == "done"

        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            # The ledger came back from disk: same record, same reports.
            restored = client.job(first.id)
            assert restored.state == "done"
            assert restored.reports == first.reports
            # Watching the restored job replays a terminal status.
            replay = list(client.watch(first.id))
            assert isinstance(replay[-1], StatusMessage)
            assert replay[-1].state == "done"
            # Resubmitting resumes from the shared run dir: a new job
            # id, the exact same bytes, and no recomputation.
            again = client.wait(client.submit(spec).id)
            assert again.id != first.id
            assert again.reports == first.reports

    def test_job_ids_continue_after_restart(self, serve_dir):
        with ServerThread(run_dir=serve_dir) as server:
            first = ServeClient(server.url).submit(_spec())
        with ServerThread(run_dir=serve_dir) as server:
            second = ServeClient(server.url).submit(_spec())
        assert second.id > first.id  # the counter restored from disk


class TestServiceLifecycle:
    def test_draining_rejects_submissions(self, tmp_path):
        async def scenario():
            service = JobService(tmp_path / "svc", queue_size=4)
            await service.start()
            await service.drain()
            assert service.draining
            with pytest.raises(ServerDrainingError):
                service.submit(_spec())

        import asyncio

        asyncio.run(scenario())

    def test_service_configuration_errors(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JobService(tmp_path, max_jobs=0)
        with pytest.raises(ConfigurationError):
            JobService(tmp_path, queue_size=-1)
        with pytest.raises(ConfigurationError):
            JobService(tmp_path, job_timeout=0)

    def test_ledger_entry_with_retired_backend_is_restored(
        self, serve_dir, legacy_record
    ):
        jobs_dir = serve_dir / "jobs"
        jobs_dir.mkdir(parents=True)
        (jobs_dir / "job-000003.json").write_text(legacy_record)
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            restored = client.job("job-000003")
            assert restored.state == "done"
            assert restored.spec == JobSpec(strategy="hybrid")
            assert client.submit(_spec()).id == "job-000004"

    def test_schema_3_ledger_report_fails_as_configuration_error(
        self, serve_dir, legacy_record
    ):
        """A finished job persisted by a schema-3 server keeps its
        ledger entry, but its report is refused by name, not with a
        KeyError on a field that moved."""
        record = json.loads(legacy_record)
        record["reports"] = [
            {
                "schema_version": 3, "scenario": "casestudy",
                "strategy": "hybrid", "seed": 2018, "n_cores": 1,
                "overall": 0.6, "feasible": True,
            }
        ]
        jobs_dir = serve_dir / "jobs"
        jobs_dir.mkdir(parents=True)
        (jobs_dir / "job-000003.json").write_text(json.dumps(record))
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            assert client.job("job-000003").state == "done"
            with pytest.raises(ConfigurationError) as excinfo:
                client.reports("job-000003")
        message = str(excinfo.value)
        assert "schema_version 3" in message and "speaks 4" in message

    def test_retired_backend_in_a_new_submission_is_a_400(self, serve_dir):
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            conn = http.client.HTTPConnection(
                client.host, client.port, timeout=30
            )
            try:
                conn.request(
                    "POST", "/jobs", body=json.dumps({"eval_backend": "serial"})
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 400
            assert payload["kind"] == "ConfigurationError"
            assert "eval_backend" in payload["error"]
            assert client.jobs() == []

    def test_corrupt_ledger_entries_are_skipped(self, serve_dir):
        jobs_dir = serve_dir / "jobs"
        jobs_dir.mkdir(parents=True)
        (jobs_dir / "job-000001.json").write_text("{torn write")
        with ServerThread(run_dir=serve_dir) as server:
            client = ServeClient(server.url)
            assert client.jobs() == []
            record = client.submit(_spec())  # counter unaffected by junk
            assert record.id == "job-000001"
