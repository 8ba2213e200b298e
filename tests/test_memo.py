"""The bounded LRU memo and the two pure functions memoized with it.

A memo is only correct if it never serves an entry for inputs that
differ from the entry's: each test below changes exactly one input the
memoized function depends on and asserts a miss with the fresh result.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig
from repro.core.application import ControlApplication
from repro.memo import ByIdentity, Memo
from repro.program import make_control_program, random_program
from repro.sched.feasibility import SPACE_MEMO, _enumerate, enumerate_idle_feasible
from repro.units import Clock
from repro.wcet.models import get_wcet_model, register_wcet_model, unregister_wcet_model
from repro.wcet.results import TaskWcets
from repro.wcet.reuse import WCET_MEMO, analyze_task_wcets


@pytest.fixture(autouse=True)
def fresh_memos():
    """The memos are process-wide: start each test from empty ones, so
    hit/miss counts see only the test's own calls."""
    WCET_MEMO.clear()
    SPACE_MEMO.clear()


def placed(program, base=0):
    program.place(base)
    return program


def misses(memo: Memo) -> int:
    return memo.get_stats()["misses"]


class TestMemo:
    def test_hits_misses_and_lru_eviction(self):
        memo: Memo[int] = Memo("t", maxsize=2)
        calls = []

        def compute(value):
            calls.append(value)
            return value * 10

        assert memo.get("a", lambda: compute(1)) == 10
        assert memo.get("b", lambda: compute(2)) == 20
        assert memo.get("a", lambda: compute(99)) == 10  # hit, refreshes "a"
        assert memo.get("c", lambda: compute(3)) == 30  # evicts "b"
        assert memo.get("b", lambda: compute(4)) == 40  # recomputed
        assert calls == [1, 2, 3, 4]
        assert memo.get_stats() == {"hits": 1, "misses": 4, "size": 2, "maxsize": 2}
        memo.clear()
        assert memo.get_stats() == {"hits": 0, "misses": 0, "size": 0, "maxsize": 2}

    def test_none_is_returned_but_not_memoized(self):
        """``None`` means "nothing to keep" (a row absent from a store):
        the next lookup computes again."""
        memo: Memo[int | None] = Memo("t", maxsize=2)
        assert memo.get("a", lambda: None) is None
        assert memo.get("a", lambda: 7) == 7
        assert memo.get("a", lambda: 99) == 7
        assert memo.get_stats() == {"hits": 1, "misses": 2, "size": 1, "maxsize": 2}

    def test_failed_compute_is_not_memoized(self):
        memo: Memo[int] = Memo("t", maxsize=4)

        def fail():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            memo.get("k", fail)
        assert memo.get("k", lambda: 7) == 7
        assert memo.get_stats()["size"] == 1

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            Memo("t", maxsize=0)

    def test_by_identity_keys(self):
        class Equal:
            def __eq__(self, other):
                return True

            __hash__ = None  # unhashable by value

        a, b = Equal(), Equal()
        assert ByIdentity(a) == ByIdentity(a)
        assert ByIdentity(a) != ByIdentity(b)
        assert hash(ByIdentity(a)) == hash(ByIdentity(a))

    def test_concurrent_gets_stay_bounded_and_counted(self):
        """More threads than cores on overlapping keys, with a short
        switch interval: no lost counter update, never more than
        ``maxsize`` entries, and every value is its key's."""
        memo: Memo[int] = Memo("t", maxsize=8)
        n_threads, per_thread = 8, 400
        errors = []

        def hammer(offset):
            for i in range(per_thread):
                key = (i * 7 + offset) % 20
                if memo.get(key, lambda: key * 3) != key * 3:
                    errors.append(key)
                if memo.get_stats()["size"] > 8:
                    errors.append("oversize")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(n,)) for n in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = memo.get_stats()
        assert stats["hits"] + stats["misses"] == n_threads * per_thread
        assert stats["size"] <= 8


class TestWcetMemo:
    def test_repeat_is_a_hit(self, paper_cache_config):
        program = placed(make_control_program("memo-a", 8, 40, 6, 4))
        first = analyze_task_wcets(program, paper_cache_config)
        before = WCET_MEMO.get_stats()
        again = analyze_task_wcets(program, paper_cache_config)
        after = WCET_MEMO.get_stats()
        assert again == first
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1

    def test_replacing_the_program_misses(self):
        config = CacheConfig(n_sets=8, associativity=1, line_size=16)
        program = placed(make_control_program("memo-b", 30, 40, 6, 20), base=0)
        analyze_task_wcets(program, config)
        program.place(24)  # same structure, another base
        before = misses(WCET_MEMO)
        moved = analyze_task_wcets(program, config)
        assert misses(WCET_MEMO) == before + 1
        assert moved == get_wcet_model("static").analyze(program, config)

    def test_changing_a_loop_bound_misses(self, paper_cache_config):
        program = placed(make_control_program("memo-c", 8, 40, 6, 4))
        analyze_task_wcets(program, paper_cache_config)
        program.root.children[1].iterations = 9
        before = misses(WCET_MEMO)
        longer = analyze_task_wcets(program, paper_cache_config)
        assert misses(WCET_MEMO) == before + 1
        assert longer == get_wcet_model("static").analyze(program, paper_cache_config)

    def test_another_cache_config_misses(self, paper_cache_config):
        program = placed(make_control_program("memo-d", 8, 40, 6, 4))
        analyze_task_wcets(program, paper_cache_config)
        slower = CacheConfig(miss_cycles=50)
        before = misses(WCET_MEMO)
        wcets = analyze_task_wcets(program, slower)
        assert misses(WCET_MEMO) == before + 1
        assert wcets == get_wcet_model("static").analyze(program, slower)

    def test_reregistered_model_misses(self, paper_cache_config):
        program = placed(make_control_program("memo-e", 8, 40, 6, 4))

        class Fixed:
            name = "memo-probe"

            def __init__(self, cold):
                self.cold = cold

            def analyze(self, program, config):
                return TaskWcets(program.name, self.cold, self.cold // 2)

        register_wcet_model(Fixed(1000))
        try:
            assert analyze_task_wcets(program, paper_cache_config, "memo-probe").cold_cycles == 1000
            unregister_wcet_model("memo-probe")
            register_wcet_model(Fixed(2000))
            before = misses(WCET_MEMO)
            wcets = analyze_task_wcets(program, paper_cache_config, "memo-probe")
            assert misses(WCET_MEMO) == before + 1
            assert wcets.cold_cycles == 2000
        finally:
            unregister_wcet_model("memo-probe")

    @given(
        seed=st.integers(0, 2**16),
        base=st.integers(0, 64).map(lambda k: 4 * k),
        n_sets=st.sampled_from([4, 8, 32]),
        associativity=st.sampled_from([1, 2, 4]),
        line_size=st.sampled_from([8, 16]),
        miss_cycles=st.integers(2, 120),
        model=st.sampled_from(["static", "analytic"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_memoized_equals_fresh(
        self, seed, base, n_sets, associativity, line_size, miss_cycles, model
    ):
        program = random_program(np.random.default_rng(seed), name=f"p{seed}")
        program.place(base)
        config = CacheConfig(
            n_sets=n_sets,
            associativity=associativity,
            line_size=line_size,
            miss_cycles=miss_cycles,
        )
        fresh = get_wcet_model(model).analyze(program, config)
        assert analyze_task_wcets(program, config, model) == fresh
        assert analyze_task_wcets(program, config, model) == fresh


def application(name, cold, warm, max_idle, case_study):
    template = case_study.apps[0]
    return ControlApplication(
        name=name,
        plant=template.plant,
        spec=template.spec,
        weight=1.0,
        max_idle=max_idle,
        wcets=TaskWcets(name, cold, warm),
    )


class TestSpaceMemo:
    def test_returned_list_is_the_callers_own(self, case_study):
        space = enumerate_idle_feasible(case_study.apps, case_study.clock)
        expected = list(space)
        space.clear()
        again = enumerate_idle_feasible(case_study.apps, case_study.clock)
        assert again == expected and again is not space

    def test_changed_inputs_miss(self, case_study):
        apps, clock = case_study.apps, case_study.clock
        base = enumerate_idle_feasible(apps, clock)
        faster = Clock(clock.frequency_hz * 2)
        for changed in (
            (apps, faster, 256),
            (apps, clock, 2),
            ([*apps[:2], application("C3", 9000, 4000, 3e-3, case_study)], clock, 256),
        ):
            before = misses(SPACE_MEMO)
            space = enumerate_idle_feasible(*changed)
            assert misses(SPACE_MEMO) == before + 1
            assert space == list(
                _enumerate(
                    [app.wcets for app in changed[0]],
                    [app.max_idle for app in changed[0]],
                    changed[1],
                    changed[2],
                )
            )
        assert enumerate_idle_feasible(apps, clock) == base

    @given(
        raw=st.lists(
            st.tuples(
                st.integers(2000, 30000),
                st.floats(0.1, 0.95),
                st.floats(1e-3, 6e-3),
            ),
            min_size=1,
            max_size=3,
        ),
        mhz=st.sampled_from([10.0, 20.0, 40.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_memoized_equals_fresh_and_resists_mutation(self, case_study, raw, mhz):
        apps = [
            application(f"A{i}", cold, max(1, int(cold * fraction)), idle, case_study)
            for i, (cold, fraction, idle) in enumerate(raw)
        ]
        clock = Clock(mhz * 1e6)
        fresh = list(
            _enumerate(
                [app.wcets for app in apps], [app.max_idle for app in apps], clock, 16
            )
        )
        first = enumerate_idle_feasible(apps, clock, max_count=16)
        assert first == fresh
        first.append("junk")
        first.reverse()
        assert enumerate_idle_feasible(apps, clock, max_count=16) == fresh
