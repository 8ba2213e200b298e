"""Engine progress events: emission points and stats-snapshot identity."""

import pytest

from repro.sched.engine import BatchCompleted, BatchSubmitted, SearchEngine
from repro.sched.schedule import PeriodicSchedule


def _identity_holds(event: BatchCompleted) -> bool:
    return event.n_requested == (
        event.n_memo_hits
        + event.n_disk_hits
        + event.n_duplicates
        + event.n_computed
    )


class TestSearchEngineEvents:
    def test_batch_events_carry_stats_snapshot(self, make_evaluator):
        events = []
        engine = SearchEngine(make_evaluator(), on_event=events.append)
        schedules = [
            PeriodicSchedule.of(1, 1),
            PeriodicSchedule.of(2, 1),
            PeriodicSchedule.of(1, 1),  # duplicate within the batch
        ]
        evaluations = engine.evaluate_batch(schedules)

        submitted = [e for e in events if isinstance(e, BatchSubmitted)]
        completed = [e for e in events if isinstance(e, BatchCompleted)]
        assert len(submitted) == 1 and len(completed) == 1
        assert submitted[0].n_batch == 2  # de-duplicated misses
        event = completed[0]
        assert event.n_batch == 2
        assert event.n_requested == 3
        assert event.n_computed == 2
        assert event.n_duplicates == 1
        assert _identity_holds(event)
        # The snapshot is exactly the engine's stats at emission time.
        assert event.n_computed == engine.stats.n_computed
        assert event.n_requested == engine.stats.n_requested
        # Best-so-far tracks the best feasible overall served.
        best = max(e.overall for e in evaluations if e.feasible)
        assert event.best_overall == best

    def test_memo_only_batches_emit_nothing(self, make_evaluator):
        events = []
        engine = SearchEngine(make_evaluator(), on_event=events.append)
        schedules = [PeriodicSchedule.of(1, 1), PeriodicSchedule.of(2, 1)]
        engine.evaluate_batch(schedules)
        n_events = len(events)
        engine.evaluate_batch(schedules)  # fully memo-served
        assert len(events) == n_events
        assert engine.stats.n_memo_hits == 2

    def test_no_callback_is_silent(self, make_evaluator):
        engine = SearchEngine(make_evaluator())
        engine.evaluate_batch([PeriodicSchedule.of(1, 1)])
        assert engine.stats.n_computed == 1

    def test_disk_hits_reported_in_later_events(
        self, make_evaluator, tmp_path
    ):
        schedules = [PeriodicSchedule.of(1, 1), PeriodicSchedule.of(2, 1)]
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as warm:
            warm.evaluate_batch(schedules)
        events = []
        with SearchEngine(
            make_evaluator(), cache_dir=tmp_path, on_event=events.append
        ) as engine:
            # Disk-served: nothing is computed, so no batch events fire,
            # but a later computed batch snapshots the disk hits.
            engine.evaluate_batch(schedules)
            assert events == []
            engine.evaluate_batch([PeriodicSchedule.of(3, 1)])
        completed = [e for e in events if isinstance(e, BatchCompleted)]
        assert len(completed) == 1
        event = completed[0]
        assert event.n_disk_hits == 2 and event.n_computed == 1
        assert _identity_holds(event)


class TestPartitionedEngineEvents:
    @pytest.fixture()
    def engine_events(self, make_evaluator):
        events = []
        engine = SearchEngine(make_evaluator(), on_event=events.append)
        return engine, events

    def test_cross_block_batch_events(self, engine_events):
        engine, events = engine_events
        schedule = PeriodicSchedule.of(1)
        # The second (0,) is a duplicate within the batch.
        engine.evaluate_batch([schedule] * 3, [(0,), (1,), (0,)])
        submitted = [e for e in events if isinstance(e, BatchSubmitted)]
        completed = [e for e in events if isinstance(e, BatchCompleted)]
        assert len(submitted) == 1 and len(completed) == 1
        assert submitted[0].n_batch == 2
        event = completed[0]
        assert event.n_requested == 3
        assert event.n_computed == 2
        assert event.n_duplicates == 1
        assert _identity_holds(event)
        assert event.n_computed == engine.stats.n_computed

    def test_memo_served_pairs_emit_nothing(self, engine_events):
        engine, events = engine_events
        scoped = engine.for_block((0,))
        scoped.evaluate(PeriodicSchedule.of(1))
        n_events = len(events)
        scoped.evaluate(PeriodicSchedule.of(1))
        assert len(events) == n_events
        assert engine.stats.n_memo_hits == 1
