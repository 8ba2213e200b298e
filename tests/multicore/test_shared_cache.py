"""Shared-cache way-partitioned co-design through the engine.

Covers the acceptance surface of the shared-cache path: serial ==
parallel == warm-cache results, way-aware sub-problem digests (same
block, different ways => different disk keys), way bookkeeping in the
result, and the fail-fast configuration contract.
"""

from __future__ import annotations

import pytest

from repro.apps import build_case_study
from repro.errors import ConfigurationError
from repro.multicore import way_allocations
from repro.platform import shared_paper_platform
from repro.sched.engine import Block

from .helpers import open_problem

#: Tiny per-core burst cap: keeps every space (and the test) small.
MAX_COUNT = 2

#: The paper's 2 KiB capacity re-organized with ways to partition.
SHARED_PLATFORM = shared_paper_platform()


@pytest.fixture(scope="module")
def shared_case():
    """The case study rebuilt on the 4-way shared platform."""
    return build_case_study(platform=SHARED_PLATFORM)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """Persistent cache shared by the whole module (cold run fills it)."""
    return tmp_path_factory.mktemp("shared-cache")


def make_problem(case, options, **kwargs):
    return open_problem(
        case.apps,
        case.clock,
        options,
        n_cores=2,
        max_count_per_core=MAX_COUNT,
        platform=SHARED_PLATFORM,
        shared_cache=True,
        **kwargs,
    )


def snapshot(evaluation):
    """Comparable summary of a MulticoreEvaluation (incl. ways)."""
    return (
        tuple(
            (c.app_indices, c.schedule.counts, c.ways) for c in evaluation.cores
        ),
        evaluation.overall,
        evaluation.settling,
        evaluation.performances,
    )


@pytest.fixture(scope="module")
def cold_run(shared_case, tiny_design_options, cache_dir):
    """One serial cold shared-cache sweep; fills the module cache."""
    with make_problem(shared_case, tiny_design_options, cache_dir=cache_dir) as problem:
        result = problem.optimize()
        stats = problem.engine.stats
    return result, stats


class TestWayAllocations:
    def test_all_ways_assigned(self):
        allocations = list(way_allocations(4, 2))
        assert allocations == [(1, 3), (2, 2), (3, 1)]

    def test_single_block_gets_everything(self):
        assert list(way_allocations(4, 1)) == [(4,)]

    def test_infeasible_split_is_empty(self):
        assert list(way_allocations(1, 2)) == []


class TestSharedCacheResult:
    def test_every_core_has_ways_summing_to_total(self, cold_run):
        result, _stats = cold_run
        assert result.feasible
        assert all(core.ways is not None for core in result.cores)
        assert sum(core.ways for core in result.cores) == 4
        assert set(result.performances) == {0, 1, 2}

    def test_stats_identity(self, cold_run):
        _result, stats = cold_run
        assert stats.n_requested == (
            stats.n_memo_hits
            + stats.n_disk_hits
            + stats.n_duplicates
            + stats.n_computed
        )

    def test_single_batch_submission(self, cold_run):
        """The whole (partition x way-allocation) sweep fans out as one
        engine batch under the exhaustive per-core strategy."""
        _result, stats = cold_run
        assert len(stats.batch_sizes) == 1
        assert stats.batch_sizes[0] == stats.n_computed


class TestEnginePathsIdentical:
    def test_warm_cache_run_identical_and_disk_served(
        self, shared_case, tiny_design_options, cache_dir, cold_run
    ):
        cold_result, cold_stats = cold_run
        with make_problem(
            shared_case, tiny_design_options, cache_dir=cache_dir
        ) as problem:
            warm_result = problem.optimize()
            warm_stats = problem.engine.stats
        assert snapshot(warm_result) == snapshot(cold_result)
        assert warm_stats.n_computed == 0
        assert warm_stats.n_disk_hits == warm_stats.n_requested
        assert warm_stats.n_requested == cold_stats.n_requested

    def test_parallel_run_identical(
        self, shared_case, tiny_design_options, cold_run
    ):
        cold_result, _stats = cold_run
        with make_problem(
            shared_case, tiny_design_options, workers=2
        ) as problem:
            assert problem.engine.backend_name == "process-pool"
            parallel_result = problem.optimize()
        assert snapshot(parallel_result) == snapshot(cold_result)


class TestWayAwareDigests:
    def test_same_block_different_ways_different_digests(
        self, shared_case, tiny_design_options
    ):
        with make_problem(shared_case, tiny_design_options) as problem:
            digests = {
                problem.engine.digest_for((0, 1), ways) for ways in (1, 2, 3, 4)
            }
            assert len(digests) == 4

    def test_way_variant_wcets_monotone(self, shared_case, tiny_design_options):
        """Fewer ways => re-analyzed cold WCETs no smaller, which is
        what gives the allocation sweep its trade-off."""
        with make_problem(shared_case, tiny_design_options) as problem:
            colds = [
                problem.engine.subproblem((0,), ways).evaluator.apps[0]
                .wcets.cold_cycles
                for ways in (4, 2, 1)
            ]
        assert colds == sorted(colds)

    def test_standalone_helper_matches_engine_for_way_allocated_blocks(
        self, shared_case, tiny_design_options
    ):
        """``subproblem_digest(..., ways=k)`` must locate exactly the
        entries the engine stores for that way-allocated block."""
        from repro.sched.engine import subproblem_digest

        with make_problem(shared_case, tiny_design_options) as problem:
            for block in [(0,), (0, 1), (0, 1, 2)]:
                for ways in (1, 2):
                    assert problem.engine.digest_for(block, ways) == (
                        subproblem_digest(
                            shared_case.apps,
                            shared_case.clock,
                            tiny_design_options,
                            block,
                            platform=SHARED_PLATFORM,
                            ways=ways,
                        )
                    )

    def test_full_way_allocation_matches_private_digest(
        self, shared_case, tiny_design_options
    ):
        """``ways=4`` on a 4-way platform *is* the full geometry, but it
        is still keyed as a declared platform — equal to the private
        engine on the same platform."""
        with make_problem(shared_case, tiny_design_options) as shared:
            with open_problem(
                shared_case.apps,
                shared_case.clock,
                tiny_design_options,
                n_cores=2,
                max_count_per_core=MAX_COUNT,
                platform=SHARED_PLATFORM,
            ) as private:
                assert shared.engine.digest_for(
                    (0, 1, 2), 4
                ) == private.engine.digest_for((0, 1, 2))


class TestConfigurationContract:
    def test_too_few_ways_fails_fast(self, shared_case, tiny_design_options):
        with pytest.raises(ConfigurationError) as excinfo:
            with open_problem(
                shared_case.apps,
                shared_case.clock,
                tiny_design_options,
                n_cores=2,
                shared_cache=True,  # paper platform: direct-mapped, 1 way
            ):
                pass
        assert "associativity" in str(excinfo.value)

    def test_programless_app_fails_fast(
        self, shared_case, tiny_design_options
    ):
        from dataclasses import replace

        stripped = [replace(app, program=None) for app in shared_case.apps]
        with open_problem(
            stripped,
            shared_case.clock,
            tiny_design_options,
            n_cores=2,
            platform=SHARED_PLATFORM,
            shared_cache=True,
        ) as problem:
            with pytest.raises(ConfigurationError) as excinfo:
                problem.engine.subproblem((0,), 2)
        assert "program" in str(excinfo.value)

    def test_block_spec_normalization(self, shared_case, tiny_design_options):
        with make_problem(shared_case, tiny_design_options) as problem:
            by_tuple = problem.engine.subproblem((0,), 2)
            by_block = problem.engine.subproblem(Block((0,), 2))
            assert by_tuple is by_block
