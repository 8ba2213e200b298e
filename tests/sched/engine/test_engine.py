"""SearchEngine: layering, blocks, parallel equivalence, invalidation,
robustness.

Behaviour shared by the single-core problem (the whole-problem block)
and cross-block batches is parametrized over both ``kind``\\ s.
"""

import multiprocessing
import os
import signal
import sqlite3
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.sched import PeriodicSchedule, SearchEngine, exhaustive_search
from repro.sched.engine import (
    EngineOptions,
    evaluation_key,
    evaluation_to_dict,
    problem_digest,
    subproblem_digest,
)
from repro.sched.evaluator import ScheduleEvaluator

from .test_serialize import assert_evaluations_identical

SCHEDULES = [
    PeriodicSchedule.of(1, 1),
    PeriodicSchedule.of(2, 1),
    PeriodicSchedule.of(2, 2),
]

BLOCK_A = (0,)
BLOCK_B = (1,)
BLOCK_AB = (0, 1)

PAIRS = [
    (BLOCK_A, PeriodicSchedule.of(1)),
    (BLOCK_B, PeriodicSchedule.of(2)),
    (BLOCK_AB, PeriodicSchedule.of(1, 1)),
]

#: ``single``: the single-core problem; ``blocks``: one cross-block batch.
KINDS = ["single", "blocks"]


def batch(engine, kind, scale: int = 1):
    """Submit the ``kind``'s batch; ``scale`` raises every burst count so
    a second call asks for schedules the first did not."""
    if kind == "single":
        return engine.evaluate_batch(
            [PeriodicSchedule(tuple(m * scale for m in s.counts)) for s in SCHEDULES]
        )
    return engine.evaluate_batch(
        [PeriodicSchedule(tuple(m * scale for m in s.counts)) for _b, s in PAIRS],
        [block for block, _s in PAIRS],
    )


def payloads(evaluations):
    """Exact, ``==``-comparable form of evaluations (every float bit)."""
    return [evaluation_to_dict(evaluation) for evaluation in evaluations]


def assert_identity(stats):
    assert stats.n_requested == (
        stats.n_memo_hits
        + stats.n_disk_hits
        + stats.n_duplicates
        + stats.n_computed
    )
    assert stats.accounted == stats.n_requested


class TestLayering:
    @pytest.mark.parametrize("kind", KINDS)
    def test_serial_engine_matches_plain_evaluator(
        self, kind, make_evaluator, two_apps, case_study, tiny_design_options
    ):
        if kind == "single":
            plain = make_evaluator().evaluate_batch(SCHEDULES)
        else:
            plain = [
                ScheduleEvaluator.for_subproblem(
                    two_apps, case_study.clock, tiny_design_options, block
                ).evaluate(schedule)
                for block, schedule in PAIRS
            ]
        with SearchEngine(make_evaluator()) as engine:
            engined = batch(engine, kind)
        for left, right in zip(plain, engined):
            assert_evaluations_identical(left, right)

    def test_memo_hits_on_repeat(self, make_evaluator):
        with SearchEngine(make_evaluator()) as engine:
            engine.evaluate_batch(SCHEDULES)
            engine.evaluate_batch(SCHEDULES)
            stats = engine.stats
            assert stats.n_computed == len(SCHEDULES)
            assert stats.n_memo_hits == len(SCHEDULES)

    def test_memo_hits_per_block(self, make_evaluator):
        with SearchEngine(make_evaluator()) as engine:
            batch(engine, "blocks")
            batch(engine, "blocks")
            assert engine.stats.n_computed == len(PAIRS)
            assert engine.stats.n_memo_hits == len(PAIRS)
            assert engine.n_subproblems == 3

    @pytest.mark.parametrize("kind", KINDS)
    def test_duplicates_within_batch_computed_once(self, kind, make_evaluator):
        with SearchEngine(make_evaluator()) as engine:
            if kind == "single":
                schedule = PeriodicSchedule.of(1, 2)
                results = engine.evaluate_batch([schedule] * 3)
            else:
                results = engine.evaluate_batch(
                    [PeriodicSchedule.of(2)] * 3, [BLOCK_A] * 3
                )
            assert engine.stats.n_computed == 1
            assert engine.stats.n_duplicates == 2
            assert results[0] is results[1] is results[2]
            assert_identity(engine.stats)

    def test_same_counts_different_blocks_are_distinct(self, make_evaluator):
        """(1,) on block (0,) and (1,) on block (1,) are different
        evaluations — the block is part of the identity."""
        schedule = PeriodicSchedule.of(1)
        with SearchEngine(make_evaluator()) as engine:
            results = engine.evaluate_batch([schedule, schedule], [BLOCK_A, BLOCK_B])
            assert engine.stats.n_computed == 2
            assert engine.stats.n_duplicates == 0
        assert results[0].apps[0].app_name != results[1].apps[0].app_name

    def test_single_evaluate_equals_batch(self, make_evaluator):
        with SearchEngine(make_evaluator()) as engine:
            single = engine.evaluate(SCHEDULES[0])
            again = engine.evaluate_batch([SCHEDULES[0]])[0]
            assert single is again

    def test_block_scoped_engine_shares_memo_and_stats(self, make_evaluator):
        with SearchEngine(make_evaluator()) as engine:
            scoped = engine.for_block(BLOCK_A)
            single = scoped.evaluate(PeriodicSchedule.of(1))
            again = engine.evaluate_batch([PeriodicSchedule.of(1)], [BLOCK_A])[0]
            assert single is again
            assert scoped.stats is engine.stats
            assert engine.stats.n_memo_hits == 1
            assert len(scoped.apps) == 1 and scoped.apps[0].weight == 1.0
            assert scoped.problem_key == engine.digest_for(BLOCK_A)
            # The whole-problem block is the engine's own problem.
            assert engine.for_block(BLOCK_AB).evaluator is engine.evaluator


class TestStatsAccounting:
    """Every request lands in exactly one stats bucket."""

    def test_identity_with_duplicates_and_memo_hits(self, make_evaluator):
        schedule = PeriodicSchedule.of(1, 2)
        with SearchEngine(make_evaluator()) as engine:
            # 3 copies cold: 1 computed + 2 intra-batch duplicates.
            engine.evaluate_batch([schedule, schedule, schedule])
            assert_identity(engine.stats)
            # Repeat batch: all memo hits.
            engine.evaluate_batch([schedule, schedule])
            assert_identity(engine.stats)
            assert engine.stats.n_requested == 5
            assert engine.stats.n_memo_hits == 2
            assert engine.stats.n_duplicates == 2
            assert engine.stats.n_computed == 1

    def test_identity_with_disk_hits(self, make_evaluator, tmp_path):
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as engine:
            engine.evaluate_batch(SCHEDULES + SCHEDULES)
            assert_identity(engine.stats)
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as warm:
            warm.evaluate_batch(SCHEDULES + [SCHEDULES[0]])
            assert_identity(warm.stats)
            assert warm.stats.n_disk_hits == len(SCHEDULES)
            assert warm.stats.n_memo_hits == 1

    def test_as_dict_reports_duplicates_and_fallback(self, make_evaluator):
        with SearchEngine(make_evaluator()) as engine:
            engine.evaluate(SCHEDULES[0])
            stats = engine.stats.as_dict()
        assert stats["n_duplicates"] == 0
        assert stats["serial_fallback"] is False
        assert stats["n_disk_corrupt"] == 0

    def test_blocks_must_match_schedules(self, make_evaluator):
        from repro.errors import SearchError

        with SearchEngine(make_evaluator()) as engine:
            with pytest.raises(SearchError):
                engine.evaluate_batch(SCHEDULES, [BLOCK_A])


class TestPersistentLayer:
    @pytest.mark.parametrize("kind", KINDS)
    def test_cold_then_warm(self, kind, make_evaluator, tmp_path):
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as engine:
            cold = batch(engine, kind)
            assert engine.stats.n_computed == 3
            assert engine.stats.n_disk_hits == 0
        # A fresh engine + evaluator over the same problem and cache dir
        # must serve everything from disk, identically.
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as warm_engine:
            warm = batch(warm_engine, kind)
            assert warm_engine.stats.n_computed == 0
            assert warm_engine.stats.n_disk_hits == 3
        assert payloads(warm) == payloads(cold)

    def test_design_options_invalidate_cache(
        self, make_evaluator, tiny_design_options, tmp_path
    ):
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as engine:
            engine.evaluate(SCHEDULES[0])
        changed = replace(tiny_design_options, restarts=2)
        with SearchEngine(make_evaluator(changed), cache_dir=tmp_path) as engine:
            engine.evaluate(SCHEDULES[0])
            assert engine.stats.n_disk_hits == 0
            assert engine.stats.n_computed == 1

    def test_problem_digest_shared_across_engines(self, make_evaluator, tmp_path):
        first = SearchEngine(make_evaluator(), cache_dir=tmp_path)
        second = SearchEngine(make_evaluator(), cache_dir=tmp_path)
        try:
            assert first.problem_key == second.problem_key
        finally:
            first.close()
            second.close()

    def test_digest_matches_subproblem_helper(
        self, make_evaluator, two_apps, case_study, tiny_design_options
    ):
        with SearchEngine(make_evaluator()) as engine:
            for block in (BLOCK_A, BLOCK_B, BLOCK_AB):
                assert engine.digest_for(block) == subproblem_digest(
                    two_apps, case_study.clock, tiny_design_options, block
                )

    @pytest.mark.parametrize("kind", KINDS)
    def test_corrupt_rows_are_recomputed(self, kind, make_evaluator, tmp_path):
        """A foreign row and a truncated row are misses: recomputed,
        overwritten and counted, never a crash."""
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as engine:
            cold = batch(engine, kind)
            keys = [
                evaluation_key(engine.digest_for(block), evaluation.schedule)
                for block, evaluation in zip(
                    [BLOCK_AB] * 3 if kind == "single" else [b for b, _s in PAIRS],
                    cold,
                )
            ]
        with sqlite3.connect(tmp_path / "evaluations.sqlite") as conn:
            conn.execute(
                "UPDATE evaluations SET payload = ? WHERE key = ?",
                ('{"schedule": [2, 2, 2]}', keys[0]),
            )
            conn.execute(
                "UPDATE evaluations SET payload = ? WHERE key = ?",
                ('{"schedule": [1, 1], "overall": 0.6', keys[1]),
            )
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as engine:
            warm = batch(engine, kind)
            stats = engine.stats
            assert stats.n_disk_corrupt == 2
            assert stats.n_computed == 2 and stats.n_disk_hits == 1
            assert_identity(stats)
        assert payloads(warm) == payloads(cold)
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as engine:
            batch(engine, kind)
            assert engine.stats.n_disk_hits == 3
            assert engine.stats.n_disk_corrupt == 0

    def test_non_sqlite_cache_file_is_a_configuration_error(
        self, make_evaluator, tmp_path
    ):
        from repro.errors import ConfigurationError

        path = tmp_path / "evaluations.sqlite"
        path.write_text("not a database, just text\n" * 100)
        with pytest.raises(ConfigurationError, match=str(path)):
            SearchEngine(make_evaluator(), cache_dir=tmp_path)


def pid_gone(pid: int, timeout: float = 10.0) -> bool:
    """Poll until process ``pid`` has exited (reaped, or a zombie).

    The pool's management thread may reap a killed worker before the
    test does, after which ``Process.is_alive()`` can misreport through
    the shared handle (``waitpid`` then fails with ``ECHILD``); the pid
    itself is the unambiguous witness.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
            stat = Path(f"/proc/{pid}/stat").read_text()
        except (ProcessLookupError, FileNotFoundError):
            return True  # reaped (the kernel may report either)
        if stat.rsplit(")", 1)[1].split()[0] == "Z":
            return True  # exited, not yet reaped
        time.sleep(0.01)
    return False


class TestParallelBackend:
    @pytest.mark.parametrize("kind", KINDS)
    def test_parallel_matches_serial(self, kind, make_evaluator):
        with SearchEngine(make_evaluator()) as engine:
            serial = batch(engine, kind)
        with SearchEngine(make_evaluator(), workers=2) as engine:
            assert engine.backend_name == "process-pool"
            assert engine.speculative
            parallel = batch(engine, kind)
            assert engine.stats.n_affinity_hits + engine.stats.n_affinity_steals > 0
        assert payloads(parallel) == payloads(serial)

    def test_parallel_fills_persistent_cache(self, make_evaluator, tmp_path):
        with SearchEngine(make_evaluator(), workers=2, cache_dir=tmp_path) as engine:
            engine.evaluate_batch(SCHEDULES[:2])
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as warm:
            warm.evaluate_batch(SCHEDULES[:2])
            assert warm.stats.n_disk_hits == 2

    def test_serial_engine_is_not_speculative(self, make_evaluator):
        with SearchEngine(make_evaluator()) as engine:
            assert not engine.speculative
            assert engine.backend_name == "serial"

    @pytest.mark.parametrize("kind", KINDS)
    def test_worker_death_falls_back_to_serial(self, kind, make_evaluator):
        """A killed pool worker finishes the batch serially and flags it."""
        with SearchEngine(make_evaluator()) as engine:
            serial = batch(engine, kind, scale=2)
        with SearchEngine(make_evaluator(), workers=2) as engine:
            batch(engine, kind)  # starts both workers
            workers = multiprocessing.active_children()
            assert len(workers) == 2
            os.kill(workers[0].pid, signal.SIGKILL)
            assert pid_gone(workers[0].pid)
            # Every 3-schedule batch puts work on both workers.
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                results = batch(engine, kind, scale=2)
            assert engine.backend_name == "serial"
            assert engine.stats.serial_fallback
            assert engine.stats.as_dict()["serial_fallback"] is True
            assert_identity(engine.stats)
        assert payloads(results) == payloads(serial)


class TestWholeProblemIdentity:
    """The single-core problem keeps the caller's applications unchanged:
    weights like (0.2, 0.7, 0.1) sum to 0.9999999999999999, and
    renormalizing them would move every weight by an ulp."""

    @pytest.fixture()
    def trap_evaluator(self, case_study, tiny_design_options):
        apps = [
            replace(app, weight=weight)
            for app, weight in zip(case_study.apps, (0.2, 0.7, 0.1))
        ]
        assert sum(app.weight for app in apps) != 1.0
        return lambda: ScheduleEvaluator(apps, case_study.clock, tiny_design_options)

    def test_problem_key_is_the_plain_problem_digest(self, trap_evaluator):
        evaluator = trap_evaluator()
        with SearchEngine(evaluator) as engine:
            assert engine.problem_key == problem_digest(
                evaluator.apps, evaluator.clock, evaluator.design_options
            )
            assert engine.apps is evaluator.apps

    def test_parallel_equals_serial(self, trap_evaluator):
        schedules = [PeriodicSchedule.of(1, 1, 1), PeriodicSchedule.of(2, 1, 1)]
        with SearchEngine(trap_evaluator()) as engine:
            serial = engine.evaluate_batch(schedules)
        with SearchEngine(trap_evaluator(), workers=2) as engine:
            parallel = engine.evaluate_batch(schedules)
        assert payloads(parallel) == payloads(serial)


class TestSearchIntegration:
    def test_exhaustive_through_engine(self, make_evaluator):
        direct = exhaustive_search(make_evaluator(), schedules=SCHEDULES)
        with SearchEngine(make_evaluator()) as engine:
            via_engine = exhaustive_search(engine, schedules=SCHEDULES)
        assert via_engine.best_schedule == direct.best_schedule
        assert via_engine.best_value == direct.best_value
        assert via_engine.stats["n_feasible"] == direct.stats["n_feasible"]

    def test_engine_duck_types_evaluator(self, make_evaluator, case_study):
        with SearchEngine(make_evaluator()) as engine:
            assert engine.clock is case_study.clock
            assert len(engine.apps) == 2
            engine.evaluate(SCHEDULES[0])
            assert engine.is_cached(SCHEDULES[0])
            assert engine.n_schedule_evaluations == 1


class TestEngineOptions:
    def test_build(self, make_evaluator, tmp_path):
        options = EngineOptions(workers=0, cache_dir=tmp_path)
        with options.build(make_evaluator()) as engine:
            engine.evaluate(SCHEDULES[0])
        assert (tmp_path / "evaluations.sqlite").exists()

    def test_bad_worker_count_rejected(self, make_evaluator):
        from repro.errors import SearchError
        from repro.sched.engine.backends import ProcessPoolBackend

        with pytest.raises(SearchError):
            ProcessPoolBackend(make_evaluator(), workers=1)
