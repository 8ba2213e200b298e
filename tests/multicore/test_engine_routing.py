"""Multicore co-design through the search engine's per-core blocks.

Covers the PR's acceptance surface: serial == parallel == warm-cache
results on the 3-app/2-core problem, pair-request accounting over the
partition space, and cross-partition / cross-single-core reuse of the
per-core sub-problem disk entries.
"""

from __future__ import annotations

import pytest

from repro.multicore import enumerate_partitions
from repro.sched import PeriodicSchedule, SearchEngine
from repro.sched.engine import subproblem_digest
from repro.sched.evaluator import ScheduleEvaluator

from .helpers import open_problem

#: Tiny per-core burst cap: keeps every space (and the test) small.
MAX_COUNT = 2


def unique_blocks(n_apps: int, n_cores: int) -> list[tuple[int, ...]]:
    blocks: list[tuple[int, ...]] = []
    for partition in enumerate_partitions(n_apps, n_cores):
        for block in partition:
            if block not in blocks:
                blocks.append(block)
    return blocks


def snapshot(evaluation):
    """Comparable summary of a MulticoreEvaluation."""
    return (
        tuple((c.app_indices, c.schedule.counts) for c in evaluation.cores),
        evaluation.overall,
        evaluation.settling,
        evaluation.performances,
    )


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """Persistent cache shared by the whole module (cold run fills it)."""
    return tmp_path_factory.mktemp("multicore-cache")


def make_problem(apps, clock, options, n_cores=2, **kwargs):
    return open_problem(
        apps, clock, options, n_cores=n_cores, max_count_per_core=MAX_COUNT, **kwargs
    )


@pytest.fixture(scope="module")
def cold_run(three_apps, case_study, tiny_design_options, cache_dir):
    """One serial cold 3-app/2-core sweep; fills the module cache."""
    with make_problem(
        three_apps, case_study.clock, tiny_design_options, cache_dir=cache_dir
    ) as problem:
        result = problem.optimize()
        stats = problem.engine.stats
        spaces = {
            block: len(problem.core_schedule_space(block))
            for block in unique_blocks(3, 2)
        }
    return result, stats, spaces


class TestPartitionSweepAccounting:
    def test_every_unique_pair_requested_exactly_once(self, cold_run):
        _result, stats, spaces = cold_run
        assert len(spaces) == 7  # 3 singletons + 3 pairs + 1 triple
        assert stats.n_requested == sum(spaces.values())
        assert stats.n_duplicates == 0
        assert stats.n_memo_hits == 0
        assert stats.n_disk_hits == 0
        assert stats.n_computed == stats.n_requested

    def test_stats_identity(self, cold_run):
        _result, stats, _spaces = cold_run
        assert stats.n_requested == (
            stats.n_memo_hits
            + stats.n_disk_hits
            + stats.n_duplicates
            + stats.n_computed
        )

    def test_single_batch_submission(self, cold_run):
        """The whole partition sweep fans out as one engine batch."""
        _result, stats, _spaces = cold_run
        assert len(stats.batch_sizes) == 1
        assert stats.batch_sizes[0] == stats.n_computed

    def test_result_is_feasible(self, cold_run):
        result, _stats, _spaces = cold_run
        assert result.feasible
        assert set(result.performances) == {0, 1, 2}


class TestEnginePathsIdentical:
    def test_warm_cache_run_identical_and_disk_served(
        self, three_apps, case_study, tiny_design_options, cache_dir, cold_run
    ):
        cold_result, cold_stats, _spaces = cold_run
        with make_problem(
            three_apps, case_study.clock, tiny_design_options, cache_dir=cache_dir
        ) as problem:
            warm_result = problem.optimize()
            warm_stats = problem.engine.stats
        assert snapshot(warm_result) == snapshot(cold_result)
        assert warm_stats.n_computed == 0
        assert warm_stats.n_disk_hits == warm_stats.n_requested
        assert warm_stats.n_requested == cold_stats.n_requested

    def test_parallel_run_identical(
        self, three_apps, case_study, tiny_design_options, cold_run
    ):
        cold_result, _stats, _spaces = cold_run
        with make_problem(
            three_apps, case_study.clock, tiny_design_options, workers=2
        ) as problem:
            assert problem.engine.backend_name == "process-pool"
            parallel_result = problem.optimize()
        assert snapshot(parallel_result) == snapshot(cold_result)


class TestAffinityDispatch:
    def test_parallel_run_identical_with_consistent_counters(
        self, three_apps, case_study, tiny_design_options, cold_run
    ):
        """Affinity routing changes where chunks run, never the result;
        its telemetry stays consistent and outside the accounting
        identity."""
        cold_result, _stats, _spaces = cold_run
        with make_problem(
            three_apps, case_study.clock, tiny_design_options, workers=2
        ) as problem:
            result = problem.optimize()
            stats = problem.engine.stats
        assert snapshot(result) == snapshot(cold_result)
        dispatched = stats.n_affinity_hits + stats.n_affinity_steals
        assert dispatched >= 1
        assert len(stats.worker_affinity_hits) == 2
        assert sum(stats.worker_affinity_hits) == stats.n_affinity_hits
        # Routing telemetry never perturbs the request accounting.
        assert stats.n_requested == (
            stats.n_memo_hits
            + stats.n_disk_hits
            + stats.n_duplicates
            + stats.n_computed
        )
        as_dict = stats.as_dict()
        assert as_dict["n_affinity_hits"] == stats.n_affinity_hits
        assert as_dict["n_affinity_steals"] == stats.n_affinity_steals
        assert as_dict["worker_affinity_hits"] == list(
            stats.worker_affinity_hits
        )

    def test_serial_engine_reports_zero_affinity(self, cold_run):
        _result, stats, _spaces = cold_run
        assert stats.n_affinity_hits == 0
        assert stats.n_affinity_steals == 0
        assert list(stats.worker_affinity_hits) == []


class TestCrossPartitionReuse:
    def test_three_core_sweep_fully_disk_served_from_two_core_run(
        self, three_apps, case_study, tiny_design_options, cache_dir, cold_run
    ):
        """n_cores=3 visits partition {0}{1}{2}, which never occurred in
        the 2-core sweep — but its blocks did (in other partitions), so
        every evaluation is a disk hit keyed by the block digest."""
        cold_result, _stats, _spaces = cold_run
        with make_problem(
            three_apps,
            case_study.clock,
            tiny_design_options,
            n_cores=3,
            cache_dir=cache_dir,
        ) as problem:
            result = problem.optimize()
            stats = problem.engine.stats
        assert stats.n_computed == 0
        assert stats.n_disk_hits == stats.n_requested
        # More cores can only help (private caches, no interference).
        assert result.overall >= cold_result.overall

    def test_block_digest_is_partition_independent(
        self, three_apps, case_study, tiny_design_options
    ):
        with make_problem(
            three_apps, case_study.clock, tiny_design_options
        ) as two, make_problem(
            three_apps, case_study.clock, tiny_design_options, n_cores=3
        ) as three:
            for block in [(0,), (1, 2), (0, 1, 2)]:
                assert two.engine.digest_for(block) == three.engine.digest_for(block)
                assert two.engine.digest_for(block) == subproblem_digest(
                    three_apps, case_study.clock, tiny_design_options, block
                )
            # Different blocks are different problems.
            assert two.engine.digest_for((0,)) != two.engine.digest_for((1,))

    def test_full_block_digest_matches_single_core_engine(
        self, three_apps, case_study, tiny_design_options, cache_dir, cold_run
    ):
        """A single-core run of the same applications shares the block
        (0, 1, 2) disk entries (weights already sum to one, so the
        renormalization is exact)."""
        evaluator = ScheduleEvaluator(
            three_apps, case_study.clock, tiny_design_options
        )
        with SearchEngine(evaluator, cache_dir=cache_dir) as engine:
            with make_problem(
                three_apps, case_study.clock, tiny_design_options
            ) as problem:
                assert engine.problem_key == problem.engine.digest_for((0, 1, 2))
            # The multicore sweep already evaluated every full-block
            # schedule up to the burst cap; the single-core engine must
            # hit its entries on disk.
            engine.evaluate(PeriodicSchedule.of(1, 1, 1))
            assert engine.stats.n_disk_hits == 1
            assert engine.stats.n_computed == 0


class TestPerCoreApi:
    def test_single_app_space_capped_by_burst_limit(
        self, three_apps, case_study, tiny_design_options
    ):
        with make_problem(
            three_apps, case_study.clock, tiny_design_options
        ) as problem:
            space = problem.core_schedule_space((0,))
        assert space == [PeriodicSchedule.of(1), PeriodicSchedule.of(2)]

    def test_best_schedule_for_core_agrees_with_sweep(
        self, three_apps, case_study, tiny_design_options, cache_dir, cold_run
    ):
        cold_result, _stats, _spaces = cold_run
        with make_problem(
            three_apps, case_study.clock, tiny_design_options, cache_dir=cache_dir
        ) as problem:
            for core in cold_result.cores:
                best = problem.best_schedule_for_core(core.app_indices)
                assert best is not None
                assert best[0] == core.schedule
