"""Partition allocators: registry contract, partition validity, digests.

The allocator registry is the fifth registry and must honor the exact
contract of the other four (fail-fast resolution naming the registered
alternatives, decorator registration, double-registration rejection).
The heuristic allocators are additionally held to the structural
invariants the sweep depends on: every streamed partition is valid and
canonical, streams are deterministic and bounded, small problems are
covered completely, and allocator choice never leaks into the per-block
evaluation digests (it only keys the resume artifacts).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.multicore import (
    AllocationProblem,
    allocation_problem,
    available_allocators,
    canonical_partition,
    check_partition,
    enumerate_partitions,
    get_allocator,
    partition_neighbors,
    register_allocator,
    replicate_apps,
    unregister_allocator,
)
from repro.multicore.allocators import (
    GreedyAllocatorOptions,
    allocator_description,
    resolve_allocator_options,
)

from .helpers import open_problem


def synthetic_problem(n_apps: int, n_cores: int) -> AllocationProblem:
    """A deterministic engine-free problem of any size."""
    return AllocationProblem(
        n_apps=n_apps,
        n_cores=n_cores,
        sensitivity=tuple((i % 5) / 5.0 for i in range(n_apps)),
        load=tuple(100.0 + 37.0 * (i % 3) for i in range(n_apps)),
        affinity=tuple(f"P{i % 3}" for i in range(n_apps)),
    )


class TestRegistryContract:
    def test_builtins_registered(self):
        assert available_allocators() == ("exhaustive", "greedy", "scored")

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_allocator("oracle")
        message = str(excinfo.value)
        assert "oracle" in message
        for name in available_allocators():
            assert name in message

    def test_builtins_have_descriptions(self):
        for name in available_allocators():
            assert allocator_description(get_allocator(name))

    def test_register_and_unregister(self):
        @register_allocator
        class EveryoneTogether:
            """All applications on one core."""

            name = "together"
            options_type = GreedyAllocatorOptions

            def partitions(self, problem, options):
                yield (tuple(range(problem.n_apps)),)

        try:
            assert "together" in available_allocators()
            stream = get_allocator("together").partitions(
                synthetic_problem(3, 2), None
            )
            assert list(stream) == [((0, 1, 2),)]
        finally:
            unregister_allocator("together")
        assert "together" not in available_allocators()

    def test_double_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_allocator(get_allocator("greedy"))

    def test_nameless_allocator_rejected(self):
        class Nameless:
            options_type = GreedyAllocatorOptions

            def partitions(self, problem, options):
                return iter(())

        with pytest.raises(ConfigurationError):
            register_allocator(Nameless)

    def test_partitionless_allocator_rejected(self):
        class NoStream:
            name = "no-stream"
            options_type = GreedyAllocatorOptions

        with pytest.raises(ConfigurationError):
            register_allocator(NoStream)

    def test_options_resolution(self):
        greedy = get_allocator("greedy")
        assert resolve_allocator_options(greedy, None) == GreedyAllocatorOptions()
        explicit = GreedyAllocatorOptions(max_partitions=8)
        assert resolve_allocator_options(greedy, explicit) is explicit
        with pytest.raises(ConfigurationError):
            resolve_allocator_options(greedy, object())


class TestPartitionPlumbing:
    def test_canonical_partition_sorts(self):
        assert canonical_partition([[2, 1], [0]]) == ((0,), (1, 2))
        assert canonical_partition([(0,), (), (1,)]) == ((0,), (1,))

    def test_check_partition_accepts_valid(self):
        assert check_partition([[1], [2, 0]], 3, 2) == ((0, 2), (1,))

    def test_check_partition_rejects_too_many_blocks(self):
        with pytest.raises(ConfigurationError):
            check_partition([[0], [1], [2]], 3, 2)

    def test_check_partition_rejects_bad_coverage(self):
        with pytest.raises(ConfigurationError):
            check_partition([[0], [1]], 3, 3)  # app 2 missing
        with pytest.raises(ConfigurationError):
            check_partition([[0, 1], [1, 2]], 3, 3)  # app 1 twice

    def test_neighbors_are_valid_and_exclude_self(self):
        origin = ((0, 1), (2,))
        neighbors = partition_neighbors(origin, 2)
        assert origin not in neighbors
        assert neighbors == sorted(set(neighbors))
        for neighbor in neighbors:
            check_partition(neighbor, 3, 2)

    def test_neighbors_reach_fresh_cores(self):
        # With a core still free, splitting off a singleton is a move.
        assert ((0,), (1,)) in partition_neighbors(((0, 1),), 2)
        # With no core free, it is not.
        assert partition_neighbors(((0,), (1,)), 2) == [((0, 1),)]


class TestBuiltinStreams:
    SIZES = [(1, 1), (3, 2), (4, 3), (5, 4), (6, 3), (8, 8)]

    @pytest.mark.parametrize("name", ["exhaustive", "greedy", "scored"])
    @pytest.mark.parametrize("n_apps,n_cores", SIZES)
    def test_streams_valid_distinct_canonical(self, name, n_apps, n_cores):
        problem = synthetic_problem(n_apps, n_cores)
        stream = list(get_allocator(name).partitions(problem, None))
        assert stream, "allocator yielded nothing"
        assert len(set(stream)) == len(stream)
        for partition in stream:
            assert check_partition(partition, n_apps, n_cores) == partition

    @pytest.mark.parametrize("name", ["greedy", "scored"])
    @pytest.mark.parametrize("n_apps,n_cores", SIZES)
    def test_streams_deterministic(self, name, n_apps, n_cores):
        problem = synthetic_problem(n_apps, n_cores)
        allocator = get_allocator(name)
        first = list(allocator.partitions(problem, None))
        second = list(allocator.partitions(problem, None))
        assert first == second

    def test_exhaustive_covers_the_space(self):
        problem = synthetic_problem(4, 3)
        stream = list(get_allocator("exhaustive").partitions(problem, None))
        assert stream == list(enumerate_partitions(4, 3))

    @pytest.mark.parametrize("name", ["greedy", "scored"])
    def test_heuristics_cover_small_problems(self, name):
        """At 3 apps / 2 cores the refinement reaches every partition —
        the structural guarantee behind the zero-optimality-gap gate."""
        problem = synthetic_problem(3, 2)
        stream = list(get_allocator(name).partitions(problem, None))
        assert sorted(stream) == sorted(enumerate_partitions(3, 2))

    @pytest.mark.parametrize("name", ["greedy", "scored"])
    def test_heuristics_stream_stays_bounded(self, name):
        problem = synthetic_problem(8, 8)
        stream = list(get_allocator(name).partitions(problem, None))
        assert len(stream) <= 64  # default max_partitions
        exhaustive = sum(1 for _ in enumerate_partitions(8, 8))
        assert len(stream) * 10 <= exhaustive

    def test_max_partitions_option_caps_the_stream(self):
        problem = synthetic_problem(6, 3)
        stream = list(
            get_allocator("greedy").partitions(
                problem, GreedyAllocatorOptions(max_partitions=5)
            )
        )
        assert len(stream) == 5


class TestAllocationProblemBuilder:
    def test_case_study_summary(self, three_apps, case_study):
        from repro.platform import default_platform

        platform = default_platform(case_study.clock)
        problem = allocation_problem(three_apps, platform, 2)
        assert problem.n_apps == 3 and problem.n_cores == 2
        assert all(0.0 <= s <= 1.0 for s in problem.sensitivity)
        assert any(s > 0.0 for s in problem.sensitivity)
        assert problem.load == tuple(
            float(app.wcets.warm_cycles) for app in three_apps
        )
        assert len(problem.affinity) == 3

    def test_replicate_apps(self, three_apps):
        replicated = replicate_apps(three_apps, 8)
        assert [app.name for app in replicated] == [
            "C1", "C2", "C3", "C1#2", "C2#2", "C3#2", "C1#3", "C2#3",
        ]
        assert sum(app.weight for app in replicated) == 1.0
        # Copies share the template's cache-affinity key (same program).
        assert replicated[0].program == replicated[3].program

    def test_replicate_identity(self, three_apps):
        same = replicate_apps(three_apps, 3)
        assert [app.name for app in same] == ["C1", "C2", "C3"]
        assert sum(app.weight for app in same) == 1.0

    def test_replicate_rejects_downsizing(self, three_apps):
        with pytest.raises(ConfigurationError):
            replicate_apps(three_apps, 2)


class TestSweepIntegration:
    def test_greedy_matches_exhaustive_on_small_problem(
        self, three_apps, case_study, tiny_design_options
    ):
        """End-to-end small-N guarantee: identical optimum, and both
        streams' lengths are recorded on the evaluation."""
        results = {}
        for allocator in ("exhaustive", "greedy"):
            with open_problem(
                three_apps,
                case_study.clock,
                tiny_design_options,
                n_cores=2,
                max_count_per_core=2,
                allocator=allocator,
            ) as problem:
                results[allocator] = problem.optimize()
        exhaustive, greedy = results["exhaustive"], results["greedy"]
        assert greedy.overall == exhaustive.overall
        assert greedy.settling == exhaustive.settling
        assert exhaustive.n_partitions == greedy.n_partitions == 4

    def test_patience_early_stop_still_feasible(
        self, three_apps, case_study, tiny_design_options
    ):
        with open_problem(
            three_apps,
            case_study.clock,
            tiny_design_options,
            n_cores=2,
            max_count_per_core=2,
            allocator="greedy",
            allocator_options=GreedyAllocatorOptions(patience=1),
        ) as problem:
            result = problem.optimize()
        assert result.feasible
        assert 1 <= result.n_partitions <= 4


class TestDigestDiscipline:
    def test_allocator_never_reaches_block_digests(
        self, three_apps, case_study, tiny_design_options
    ):
        """Cache-key discipline: allocators change which blocks get
        evaluated, never what a block evaluates to — so the per-block
        evaluation digests (and the shared disk cache) are identical
        across allocators."""
        with open_problem(
            three_apps, case_study.clock, tiny_design_options, n_cores=2
        ) as exhaustive, open_problem(
            three_apps,
            case_study.clock,
            tiny_design_options,
            n_cores=2,
            allocator="greedy",
            allocator_options=GreedyAllocatorOptions(max_partitions=3),
        ) as greedy:
            for block in [(0,), (1, 2), (0, 1, 2)]:
                assert exhaustive.engine.digest_for(block) == \
                    greedy.engine.digest_for(block)

    def test_allocator_keys_the_resume_artifacts(
        self, tiny_design_options, tmp_path
    ):
        """Allocator name and options do key the Study resume path:
        differently-allocated runs never share a report artifact."""
        from repro.study import Study

        def study(**kwargs):
            return Study.from_case_study(
                tiny_design_options,
                n_cores=2,
                run_dir=tmp_path,
                **kwargs,
            )

        base = study()
        greedy = study(allocator="greedy")
        capped = study(
            allocator="greedy",
            allocator_options=GreedyAllocatorOptions(max_partitions=8),
        )
        paths = {
            s.report_path(s.scenarios[0]) for s in (base, greedy, capped)
        }
        assert len(paths) == 3
