"""Multi-core extension (paper Section VI, plus shared-cache co-design).

The paper notes the framework "can be naturally extended to a
multi-core architecture, where each core has its own cache".  This
package implements that extension: applications are partitioned across
cores, each core runs its own periodic schedule against its private
instruction cache, and the overall control performance is maximized
over both the partition and the per-core schedules.

The sweep is :class:`~repro.multicore.partition.MulticoreProblem` on a
scenario's search engine: each core block is one of that engine's
sub-problems, and the run's :class:`~repro.study.spec.RunSpec` (``n_cores
> 1``) says how to sweep (per-core strategy, burst cap, allocator).

Beyond the paper, ``RunSpec(shared_cache=True)`` co-designs the
partition with a *way allocation* of one shared
set-associative cache (after Sun et al.'s cache-partitioning /
task-scheduling co-optimization): each core gets a slice of the ways,
WCETs are re-analyzed per slice, and the sweep jointly optimizes
partition × way allocation × per-core schedules.

Which partitions the sweep evaluates is pluggable: *partition
allocators* (:mod:`repro.multicore.allocators`, the fifth registry)
stream partitions lazily — ``exhaustive`` reproduces the paper's full
sweep, ``greedy`` and ``scored`` are cache-sensitivity-aware heuristics
that scale the co-design to many-core problems.
"""

from .allocators import (
    AllocationProblem,
    PartitionAllocator,
    allocation_problem,
    available_allocators,
    canonical_partition,
    check_partition,
    get_allocator,
    partition_neighbors,
    register_allocator,
    replicate_apps,
    unregister_allocator,
)
from .partition import (
    CoreAssignment,
    MulticoreEvaluation,
    MulticoreProblem,
    enumerate_partitions,
    way_allocations,
)

__all__ = [
    "AllocationProblem",
    "CoreAssignment",
    "MulticoreEvaluation",
    "MulticoreProblem",
    "PartitionAllocator",
    "allocation_problem",
    "available_allocators",
    "canonical_partition",
    "check_partition",
    "enumerate_partitions",
    "get_allocator",
    "partition_neighbors",
    "register_allocator",
    "replicate_apps",
    "unregister_allocator",
    "way_allocations",
]
