"""Tests for the multi-core extension."""

from dataclasses import replace

import pytest

from repro.errors import ScheduleError
from repro.multicore import MulticoreProblem, enumerate_partitions
from repro.sched import SearchEngine

from .helpers import open_problem


class TestEnumeratePartitions:
    def test_three_apps_two_cores(self):
        partitions = list(enumerate_partitions(3, 2))
        # Bell-number terms: S(3,1) + S(3,2) = 1 + 3.
        assert len(partitions) == 4

    def test_three_apps_three_cores(self):
        partitions = list(enumerate_partitions(3, 3))
        assert len(partitions) == 5  # Bell(3)

    def test_blocks_cover_all_apps_disjointly(self):
        for partition in enumerate_partitions(4, 3):
            seen = [i for block in partition for i in block]
            assert sorted(seen) == [0, 1, 2, 3]

    def test_no_duplicates(self):
        partitions = list(enumerate_partitions(4, 4))
        assert len(partitions) == len(set(partitions)) == 15  # Bell(4)

    def test_validation(self):
        with pytest.raises(ScheduleError):
            list(enumerate_partitions(0, 1))
        with pytest.raises(ScheduleError):
            list(enumerate_partitions(1, 0))

    def test_single_app(self):
        assert list(enumerate_partitions(1, 1)) == [((0,),)]
        assert list(enumerate_partitions(1, 3)) == [((0,),)]

    def test_single_core_degenerates_to_one_block(self):
        assert list(enumerate_partitions(4, 1)) == [((0, 1, 2, 3),)]

    def test_lazy_streaming(self):
        """The enumeration is a generator: drawing the first partitions
        of an astronomically large space (Bell(30) > 8 * 10^23) must
        not materialize anything."""
        from itertools import islice

        stream = enumerate_partitions(30, 30)
        head = list(islice(stream, 3))
        assert len(head) == 3
        assert head[0] == (tuple(range(30)),)


class TestWayAllocations:
    def test_all_ways_assigned_at_least_one_each(self):
        from repro.multicore import way_allocations

        allocations = list(way_allocations(4, 2))
        assert allocations == [(1, 3), (2, 2), (3, 1)]
        for allocation in allocations:
            assert sum(allocation) == 4
            assert min(allocation) >= 1

    def test_exact_fit_single_allocation(self):
        from repro.multicore import way_allocations

        assert list(way_allocations(3, 3)) == [(1, 1, 1)]

    def test_single_block_takes_everything(self):
        from repro.multicore import way_allocations

        assert list(way_allocations(5, 1)) == [(5,)]

    def test_fewer_ways_than_blocks_yields_nothing(self):
        from repro.multicore import way_allocations

        assert list(way_allocations(2, 3)) == []
        assert list(way_allocations(4, 0)) == []


@pytest.fixture(scope="module")
def two_apps(case_study):
    """Two apps keep the per-core schedule spaces small and fast."""
    return [
        replace(case_study.apps[1], weight=0.6),
        replace(case_study.apps[2], weight=0.4),
    ]


class TestMulticoreProblem:
    @pytest.fixture(scope="class")
    def problem(self, two_apps, case_study, quick_design_options):
        with open_problem(
            two_apps, case_study.clock, quick_design_options, n_cores=2
        ) as problem:
            yield problem

    def test_optimize_finds_feasible_assignment(self, problem):
        result = problem.optimize()
        assert result.feasible
        assert result.n_cores_used in (1, 2)
        assert set(result.performances) == {0, 1}
        assert result.overall > 0

    def test_dedicated_cores_beat_or_match_sharing(self, problem):
        """With private caches and no interference, giving each app its
        own core can only help: the optimizer must use both cores."""
        result = problem.optimize()
        assert result.n_cores_used == 2

    def test_single_core_matches_shared_problem(
        self, two_apps, case_study, quick_design_options
    ):
        """n_cores=1 degenerates to the single-core co-design."""
        with open_problem(
            two_apps,
            case_study.clock,
            quick_design_options,
            n_cores=1,
            strategy="exhaustive",
        ) as single:
            result = single.optimize()
        assert result.n_cores_used == 1
        assert result.feasible

    def test_block_engine_forwards_parallelism(self, case_study, quick_design_options):
        serial = SearchEngine(case_study.evaluator(quick_design_options))
        assert serial.for_block((0,)).speculative is False
        parallel = SearchEngine(
            case_study.evaluator(quick_design_options), workers=2
        )
        try:
            block = parallel.for_block((0,))
            assert block.speculative is True
            assert block.workers == 2
            assert block.stats is parallel.stats
        finally:
            parallel.close()

    def test_per_core_hybrid_strategy(self, problem):
        """Non-exhaustive strategies run per block through the shared
        engine; the exhaustive sweep bounds them from above."""
        exhaustive = problem.optimize()
        spec = replace(problem.spec, strategy="hybrid", n_starts=1, seed=7)
        hybrid = MulticoreProblem(problem.engine, spec).optimize()
        assert hybrid.feasible
        assert hybrid.overall <= exhaustive.overall + 1e-12
        for core in hybrid.cores:
            assert max(core.schedule.counts) <= spec.max_count_per_core
