"""One open evaluation store per cache directory, and its memo of
decoded evaluations: lifecycle, corruption, memo-hit equality and
immutability of what the memo shares."""

import dataclasses
import json
import sqlite3
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sched import PeriodicSchedule, SearchEngine
from repro.sched.engine import (
    PersistentCache,
    evaluation_from_dict,
    evaluation_key,
    evaluation_to_dict,
)

from .test_engine import SCHEDULES, assert_identity, payloads


def corrupt(cache_dir, key: str) -> None:
    """Overwrite one row behind every open store's back."""
    with sqlite3.connect(cache_dir / "evaluations.sqlite") as conn:
        conn.execute(
            "UPDATE evaluations SET payload = ? WHERE key = ?",
            ('{"schedule": [1, 1], "overall": 0.6', key),
        )


class TestLifecycle:
    def test_engines_on_one_directory_share_one_store(self, make_evaluator, tmp_path):
        cache_dir = tmp_path / "cache"
        link = tmp_path / "link"
        cache_dir.mkdir()
        link.symlink_to(cache_dir)
        first = SearchEngine(make_evaluator(), cache_dir=cache_dir)
        second = SearchEngine(make_evaluator(), cache_dir=link)  # same directory
        store = first._store
        assert second._store is store
        assert PersistentCache.shared(cache_dir) is store
        store.release()

        cold = first.evaluate_batch(SCHEDULES)
        first.close()
        assert not store.closed
        # The other holder keeps working on the same connection.
        warm = second.evaluate_batch(SCHEDULES)
        assert second.stats.n_disk_hits == len(SCHEDULES)
        assert payloads(warm) == payloads(cold)
        second.close()
        second.close()  # idempotent: releases once

        assert store.closed
        with pytest.raises(ConfigurationError, match="closed"):
            store.get("k")
        with SearchEngine(make_evaluator(), cache_dir=cache_dir) as third:
            assert third._store is not store and not third._store.closed
            third.evaluate_batch(SCHEDULES)
            assert third.stats.n_disk_hits == len(SCHEDULES)

    def test_block_scoped_engines_release_the_root_once(self, make_evaluator, tmp_path):
        holder = PersistentCache.shared(tmp_path)
        try:
            with SearchEngine(make_evaluator(), cache_dir=tmp_path) as engine:
                engine.for_block((0,)).close()
                engine.close()
            assert not holder.closed
        finally:
            holder.release()
        assert holder.closed

    def test_private_stores_are_not_shared(self, tmp_path):
        with PersistentCache(tmp_path) as private:
            shared = PersistentCache.shared(tmp_path)
            assert shared is not private
            shared.release()
            assert shared.closed and not private.closed


    def test_threads_opening_and_closing_engines_never_lose_a_holder(
        self, make_evaluator, tmp_path
    ):
        """Eight threads open, use and close engines on one directory
        with a shortened switch interval: no engine ever sees the store
        closed under it, and the last close closes it."""
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as cold:
            expected = payloads(cold.evaluate_batch(SCHEDULES))
        seen = []

        def worker() -> None:
            for _ in range(25):
                with SearchEngine(make_evaluator(), cache_dir=tmp_path) as engine:
                    seen.append(engine._store)
                    assert payloads(engine.evaluate_batch(SCHEDULES)) == expected
                    assert engine.stats.n_disk_hits == len(SCHEDULES)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(worker) for _ in range(8)]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 8 * 25
        assert all(store.closed for store in seen)


class TestDecodedMemo:
    def test_second_job_reads_nothing_from_sqlite(self, make_evaluator, tmp_path):
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as cold:
            expected = payloads(cold.evaluate_batch(SCHEDULES))
        holder = PersistentCache.shared(tmp_path)
        try:
            runs = []
            for _ in range(2):
                reads = holder.n_reads
                before = holder.decoded.get_stats()
                with SearchEngine(make_evaluator(), cache_dir=tmp_path) as engine:
                    served = engine.evaluate_batch(SCHEDULES)
                    stats = engine.stats
                after = holder.decoded.get_stats()
                runs.append(
                    (holder.n_reads - reads, after["misses"] - before["misses"],
                     after["hits"] - before["hits"])
                )
                # A memo hit is a disk hit: the accounting is unchanged.
                assert (stats.n_disk_hits, stats.n_computed) == (len(SCHEDULES), 0)
                assert_identity(stats)
                assert payloads(served) == expected
            n = len(SCHEDULES)
            assert runs == [(n, n, 0), (0, 0, n)]
        finally:
            holder.release()

    def test_row_corrupted_under_an_open_store(self, make_evaluator, tmp_path):
        """While the store is held, the memo answers for a row corrupted
        on disk; once it is closed, the next engine detects the
        corruption and recomputes the row."""
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as cold:
            expected = payloads(cold.evaluate_batch(SCHEDULES))
            key = evaluation_key(cold.problem_key, SCHEDULES[0])
        holder = PersistentCache.shared(tmp_path)
        try:
            with SearchEngine(make_evaluator(), cache_dir=tmp_path) as warm:
                warm.evaluate_batch(SCHEDULES)  # decodes every row once
            corrupt(tmp_path, key)
            with SearchEngine(make_evaluator(), cache_dir=tmp_path) as engine:
                served = engine.evaluate_batch(SCHEDULES)
                assert engine.stats.n_disk_hits == len(SCHEDULES)
                assert engine.stats.n_disk_corrupt == 0
            assert payloads(served) == expected
        finally:
            holder.release()
        assert holder.closed
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as engine:
            recomputed = engine.evaluate_batch(SCHEDULES)
            stats = engine.stats
            assert (stats.n_disk_corrupt, stats.n_computed) == (1, 1)
            assert stats.n_disk_hits == len(SCHEDULES) - 1
            assert_identity(stats)
        assert payloads(recomputed) == expected

    def test_memo_served_designs_are_immutable(self, make_evaluator, tmp_path):
        with SearchEngine(make_evaluator(), cache_dir=tmp_path) as cold:
            cold.evaluate(SCHEDULES[0])
        holder = PersistentCache.shared(tmp_path)
        try:
            for _ in range(2):
                with SearchEngine(make_evaluator(), cache_dir=tmp_path) as engine:
                    served = engine.evaluate(SCHEDULES[0])
            assert holder.decoded.get_stats()["hits"] == 1
        finally:
            holder.release()
        design = served.apps[0].design
        with pytest.raises(dataclasses.FrozenInstanceError):
            design.settling = 0.0
        with pytest.raises(ValueError, match="read-only"):
            design.gains[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            design.feedforward[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            served.apps[0].design = design


# ----------------------------------------------------------------------
# Property: a memo hit is exactly what the row decodes to
# ----------------------------------------------------------------------

_any = st.floats(allow_nan=False)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def rows(draw) -> dict:
    """A stored evaluation of a two-application problem."""
    counts = draw(st.lists(st.integers(1, 4), min_size=2, max_size=2))
    order = draw(st.integers(1, 3))
    apps, timing = [], []
    for index, count in enumerate(counts):
        periods = draw(
            st.lists(st.floats(1e-6, 1.0), min_size=count, max_size=count)
        )
        delays = [
            draw(st.floats(0.0, period, exclude_min=True)) for period in periods
        ]
        timing.append({"app_index": index, "periods": periods, "delays": delays})
        apps.append(
            {
                "app_name": draw(st.text(max_size=4)),
                "settling": draw(_any),
                "performance": draw(_any),
                "design": {
                    "gains": draw(
                        st.lists(
                            st.lists(_finite, min_size=order, max_size=order),
                            min_size=count, max_size=count,
                        )
                    ),
                    "feedforward": draw(st.lists(_finite, min_size=count, max_size=count)),
                    "settling": draw(_any),
                    "u_peak": draw(_any),
                    "spectral_radius": draw(_any),
                    "objective": draw(_any),
                    "n_evaluations": draw(st.integers(0, 10**6)),
                    "engine": draw(st.sampled_from(["hybrid", "uniform", "poles"])),
                },
            }
        )
    return {
        "schedule": counts,
        "overall": draw(_any),
        "idle_ok": draw(st.booleans()),
        "hyperperiod": draw(_finite),
        "timing": timing,
        "apps": apps,
    }


# ``make_evaluator`` is a factory: each engine below gets a fresh evaluator.
@given(row=rows())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_memo_hit_equals_a_fresh_decode_of_its_row(row, make_evaluator):
    with tempfile.TemporaryDirectory() as cache_dir:
        holder = PersistentCache.shared(cache_dir)
        try:
            schedule = PeriodicSchedule(tuple(row["schedule"]))
            served = []
            for _ in range(2):
                with SearchEngine(make_evaluator(), cache_dir=cache_dir) as engine:
                    key = evaluation_key(engine.problem_key, schedule)
                    holder.put(key, row)
                    served.append(engine.evaluate(schedule))
                    assert engine.stats.n_disk_hits == 1
            assert holder.decoded.get_stats()["hits"] == 1
            assert served[1] is served[0]
            fresh = evaluation_from_dict(holder.get(key))
        finally:
            holder.release()
    assert json.dumps(evaluation_to_dict(served[1])) == json.dumps(
        evaluation_to_dict(fresh)
    )
