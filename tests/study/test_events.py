"""Study observability: run(on_event=...) and stream() event streams."""

import pytest

from repro.sched.engine.events import BatchCompleted
from repro.sched.engine.batch import synthesize_scenarios
from repro.study import (
    RunSpec,
    ScenarioFinished,
    ScenarioProgress,
    ScenarioResumed,
    ScenarioStarted,
    Study,
)


@pytest.fixture()
def scenarios(tiny_design_options):
    spec = RunSpec(kind="suite", suite_size=2, seed=11, n_apps_choices=(2,))
    return synthesize_scenarios(spec, tiny_design_options)


def _last_progress(events, index):
    """The final BatchCompleted snapshot of one scenario's engine."""
    snapshots = [
        event.engine
        for event in events
        if isinstance(event, ScenarioProgress)
        and event.index == index
        and isinstance(event.engine, BatchCompleted)
    ]
    return snapshots[-1]


@pytest.mark.slow
class TestRunOnEvent:
    def test_event_sequence_and_stats_identity(self, scenarios):
        events = []
        reports = Study.from_scenarios(scenarios).run(on_event=events.append)

        started = [e for e in events if isinstance(e, ScenarioStarted)]
        finished = [e for e in events if isinstance(e, ScenarioFinished)]
        assert [e.scenario for e in started] == [s.name for s in scenarios]
        assert [e.strategy for e in started] == ["hybrid", "hybrid"]
        assert len(finished) == len(reports) == 2
        assert [e.report for e in finished] == reports

        for index, report in enumerate(reports):
            last = _last_progress(events, index)
            # Every event is a consistent EngineStats snapshot: the
            # accounting identity holds, and the final snapshot matches
            # the report's recorded stats exactly.
            assert last.n_requested == (
                last.n_memo_hits
                + last.n_disk_hits
                + last.n_duplicates
                + last.n_computed
            )
            stats = report.engine_stats
            # Computed can only grow through a batch, and every batch
            # emits an event — so the last event has the final count.
            assert last.n_computed == stats["n_computed"]
            # Memo/disk hits may still accrue in later, fully-served
            # requests (which compute nothing, hence emit no event).
            assert last.n_memo_hits <= stats["n_memo_hits"]
            assert last.n_disk_hits <= stats["n_disk_hits"]
            assert last.n_duplicates <= stats["n_duplicates"]
            assert last.n_requested <= stats["n_requested"]

    def test_running_throughput(self, scenarios):
        events = []
        reports = Study.from_scenarios(scenarios).run(on_event=events.append)
        finished = [e for e in events if isinstance(e, ScenarioFinished)]
        total_computed = sum(r.engine_stats["n_computed"] for r in reports)
        assert finished[-1].n_computed_total == total_computed
        assert finished[-1].throughput > 0
        # Throughput is cumulative: the last event accounts both runs.
        assert finished[-1].n_computed_total >= finished[0].n_computed_total

    def test_no_callback_still_runs(self, scenarios):
        assert len(Study.from_scenarios(scenarios).run()) == 2

    def test_resumed_scenarios_emit_resumed(self, scenarios, tmp_path):
        study = Study.from_scenarios(scenarios, run_dir=tmp_path)
        first = study.run()
        events = []
        again = Study.from_scenarios(scenarios, run_dir=tmp_path).run(
            on_event=events.append
        )
        assert again == first
        resumed = [e for e in events if isinstance(e, ScenarioResumed)]
        assert [e.report for e in resumed] == first
        assert not any(isinstance(e, ScenarioFinished) for e in events)
        assert not any(isinstance(e, ScenarioProgress) for e in events)


@pytest.mark.slow
class TestStream:
    def test_stream_yields_same_reports_as_run(self, scenarios):
        run_reports = Study.from_scenarios(scenarios).run()
        events = list(Study.from_scenarios(scenarios).stream())
        # Per scenario: started first, then progress, then finished.
        kinds = [type(e).__name__ for e in events if e.index == 0]
        assert kinds[0] == "ScenarioStarted"
        assert kinds[-1] == "ScenarioFinished"
        assert "ScenarioProgress" in kinds
        streamed = [e.report for e in events if isinstance(e, ScenarioFinished)]
        assert [r.best_schedule for r in streamed] == [
            r.best_schedule for r in run_reports
        ]
        assert [r.overall for r in streamed] == [
            r.overall for r in run_reports
        ]

    def test_stream_is_lazy(self, scenarios):
        iterator = Study.from_scenarios(scenarios).stream()
        first = next(iterator)
        assert isinstance(first, ScenarioStarted)
        iterator.close()  # abandoning the stream runs nothing further


class TestProgressLine:
    """The CLI progress renderer consumes study and engine events."""

    def _events(self):
        from types import SimpleNamespace

        report = SimpleNamespace(
            engine_stats={"n_computed": 7, "n_disk_hits": 2}, overall=0.5
        )
        return [
            ScenarioStarted(
                index=0, n_scenarios=2, scenario="synth-000",
                strategy="hybrid", n_cores=1,
            ),
            ScenarioProgress(
                index=0, n_scenarios=2, scenario="synth-000",
                engine=BatchCompleted(
                    n_batch=3, n_requested=5, n_memo_hits=1, n_disk_hits=1,
                    n_duplicates=0, n_computed=3, best_overall=0.42,
                ),
            ),
            ScenarioFinished(
                index=0, n_scenarios=2, scenario="synth-000",
                report=report, wall_time=1.5,
                n_computed_total=7, throughput=4.7,
            ),
        ]

    def test_live_mode_redraws_and_prints(self):
        import io

        from repro.study.progress import ProgressLine

        stream = io.StringIO()
        progress = ProgressLine(stream=stream, live=True)
        for event in self._events():
            progress(event)
        progress.close()
        text = stream.getvalue()
        assert "[1/2] synth-000" in text
        assert "3 computed + 1 memo + 1 disk" in text
        assert "best 0.4200" in text
        assert "done in 1.50 s" in text and "4.7 eval/s" in text

    def test_non_live_mode_prints_only_completions(self):
        import io

        from repro.study.progress import ProgressLine

        stream = io.StringIO()
        progress = ProgressLine(stream=stream, live=False)
        for event in self._events():
            progress(event)
        progress.close()
        lines = stream.getvalue().splitlines()
        assert lines == [
            "[1/2] synth-000: done in 1.50 s (7 computed, 2 disk, 4.7 eval/s)"
        ]

    def test_bare_engine_events_print_lines_when_not_live(self):
        """Experiments emit only engine events; on a plain stream each
        completed batch must still produce a line (regression: --progress
        used to be a silent no-op for `repro experiment` in CI)."""
        import io

        from repro.study.progress import ProgressLine

        stream = io.StringIO()
        progress = ProgressLine(stream=stream, live=False)
        progress.set_prefix("search")
        progress(
            BatchCompleted(
                n_batch=3, n_requested=5, n_memo_hits=1, n_disk_hits=1,
                n_duplicates=0, n_computed=3, best_overall=0.42,
            )
        )
        progress.close()
        assert stream.getvalue() == (
            "search: 3 computed + 1 memo + 1 disk (5 requested, best 0.4200)\n"
        )
