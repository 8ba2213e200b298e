"""Partition allocators: how the multicore sweep picks its partitions.

The paper's co-design sweeps *every* partition of the applications onto
cores — exact, but combinatorial (Bell numbers: 4140 partitions at 8
applications / 8 cores).  A *partition allocator* decides which
partitions the sweep evaluates, and in what order: it receives a cheap,
engine-free :class:`AllocationProblem` summary (per-application cache
sensitivity, load and affinity) and yields a stream of canonical
partitions that :class:`~repro.multicore.partition.MulticoreProblem`
consumes lazily, evaluating per-core schedules only for the partitions
actually drawn.

Allocators plug in through the one :class:`~repro.registry.Registry`
contract shared by every plugin registry: register by name with
:func:`register_allocator`, resolve by name with :func:`get_allocator`,
unknown names fail fast naming what *is* registered.  Builtins:

* ``exhaustive`` — every partition, in the canonical enumeration order
  (today's behavior, kept as the small-N ground truth);
* ``greedy`` — cache-sensitivity-aware seeding (most-sensitive
  applications get the least-contended cores, in the spirit of Sun et
  al.'s co-optimization heuristics) plus local-search refinement over
  single-application moves;
* ``scored`` — beam search over partial assignments under a
  multi-dimensional weighted score (cache benefit / load balance /
  cache affinity / core spread), then the same local-search refinement.

Heuristic allocators are pure, deterministic functions of the
:class:`AllocationProblem` and their options — no RNG, no wall clock —
so a sweep's partition stream (and therefore its result and its resume
key) is reproducible.  Allocator options never reach the per-block
evaluation digests: they change *which* blocks are evaluated, never
what any block evaluates to, so evaluation cache entries stay shared
across allocators (see :mod:`repro.sched.engine.keys`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol, runtime_checkable

from ..core.application import ControlApplication
from ..errors import ConfigurationError
from ..platform import Platform
from ..registry import Registry
from .partition import enumerate_partitions

#: One partition: disjoint blocks of application indices, each block
#: sorted, blocks ordered by their smallest element (the canonical form
#: :func:`~repro.multicore.partition.enumerate_partitions` produces).
Partition = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AllocationProblem:
    """Engine-free summary an allocator scores partitions from.

    Parameters
    ----------
    n_apps, n_cores:
        Problem size; partitions cover ``range(n_apps)`` with at most
        ``n_cores`` blocks.
    sensitivity:
        Per-application cache sensitivity in ``[0, 1]``: how much the
        application's effective WCET suffers when its cache share
        shrinks (way-restricted reanalysis when the platform supports
        it, the guaranteed cold/warm WCET reduction otherwise).
        Sensitive applications want uncontended cache.
    load:
        Per-application relative execution demand (warm WCET cycles);
        drives load balancing across cores.
    affinity:
        Per-application cache-affinity key: applications sharing a key
        run the same program, so co-locating them lets one warm cache
        serve both.
    """

    n_apps: int
    n_cores: int
    sensitivity: tuple[float, ...]
    load: tuple[float, ...]
    affinity: tuple[str, ...]


@runtime_checkable
class PartitionAllocator(Protocol):
    """What a pluggable partition allocator must provide.

    ``name`` is the registry key, ``options_type`` the allocator-
    specific options dataclass, and ``partitions`` yields canonical
    partitions for a problem.  Allocators that provably cover the full
    partition space set ``exhaustive = True`` (the sweep then never
    early-stops on them).
    """

    name: str
    options_type: type

    def partitions(
        self, problem: AllocationProblem, options: object
    ) -> Iterator[Partition]:
        ...


#: The allocator registry (see :class:`repro.registry.Registry`).
ALLOCATORS: Registry[PartitionAllocator] = Registry(
    "partition allocator",
    "allocators",
    protocol=PartitionAllocator,
)

register_allocator = ALLOCATORS.register
unregister_allocator = ALLOCATORS.unregister
available_allocators = ALLOCATORS.available
get_allocator = ALLOCATORS.get
allocator_description = ALLOCATORS.describe
resolve_allocator_options = ALLOCATORS.resolve_options


# ----------------------------------------------------------------------
# Partition plumbing shared by allocators (and useful to third-party
# ones): canonicalization, validation, neighborhoods.
# ----------------------------------------------------------------------

def canonical_partition(blocks: Iterable[Iterable[int]]) -> Partition:
    """Canonical form: blocks sorted internally, ordered by smallest
    element (blocks are disjoint, so lexicographic order does both)."""
    return tuple(
        sorted(tuple(sorted(int(i) for i in block)) for block in blocks if block)
    )


def check_partition(partition, n_apps: int, n_cores: int) -> Partition:
    """Validate and canonicalize one allocator-produced partition.

    Every application must appear exactly once and the partition must
    use at most ``n_cores`` (non-empty) blocks; violations raise
    :class:`~repro.errors.ConfigurationError` — a broken third-party
    allocator fails fast instead of silently skewing the sweep.
    """
    canonical = canonical_partition(partition)
    if len(canonical) > n_cores:
        raise ConfigurationError(
            f"allocator produced a partition with {len(canonical)} blocks "
            f"for {n_cores} cores: {canonical!r}"
        )
    covered = [i for block in canonical for i in block]
    if sorted(covered) != list(range(n_apps)):
        raise ConfigurationError(
            "allocator produced a partition that does not cover every "
            f"application exactly once: {canonical!r} (n_apps={n_apps})"
        )
    return canonical


def partition_neighbors(partition: Partition, n_cores: int) -> list[Partition]:
    """All distinct single-application moves from ``partition``.

    Each neighbor moves one application to another block or to a fresh
    block (when a core is still free); the result is canonical, sorted
    and excludes ``partition`` itself.
    """
    neighbors: set[Partition] = set()
    for source, block in enumerate(partition):
        for app in block:
            removed = [
                [a for a in b if a != app] for b in partition
            ]
            for target in range(len(partition) + 1):
                if target == source:
                    continue
                moved = [list(b) for b in removed]
                if target == len(partition):
                    moved.append([app])
                else:
                    moved[target].append(app)
                candidate = canonical_partition(moved)
                if len(candidate) <= n_cores:
                    neighbors.add(candidate)
    neighbors.discard(canonical_partition(partition))
    return sorted(neighbors)


def _partition_score(
    problem: AllocationProblem,
    partition: Partition,
    cache_weight: float,
    balance_weight: float,
    affinity_weight: float,
    spread_weight: float,
) -> float:
    """Heuristic quality of a whole partition (higher is better).

    Cheap and evaluation-free: co-location of cache-sensitive
    applications is penalized, load imbalance is penalized, co-location
    of same-program applications is rewarded, and spreading over more
    cores is rewarded.  All terms are normalized to the problem so the
    weights compose on one scale.
    """
    sens, load = problem.sensitivity, problem.load
    total_load = sum(load) or 1.0
    total_sens = sum(sens) or 1.0
    contention = 0.0
    affinity = 0.0
    heaviest = 0.0
    for block in partition:
        heaviest = max(heaviest, sum(load[i] for i in block) / total_load)
        for pos, i in enumerate(block):
            for j in block[pos + 1:]:
                contention += (sens[i] / total_sens) * (sens[j] / total_sens)
                if problem.affinity[i] == problem.affinity[j]:
                    affinity += 1.0
    pairs = problem.n_apps * (problem.n_apps - 1) / 2 or 1.0
    return (
        -cache_weight * contention
        - balance_weight * heaviest
        + affinity_weight * (affinity / pairs)
        + spread_weight * (len(partition) / problem.n_cores)
    )


def _refined_stream(
    problem: AllocationProblem,
    seeds: Iterable[Partition],
    score: Callable[[Partition], float],
    max_partitions: int,
    refine_rounds: int,
) -> Iterator[Partition]:
    """Seeds, then rounds of best-first single-move refinement.

    Each round expands the best-scoring partition seen in the previous
    round and yields its unseen neighbors best-first, until
    ``max_partitions`` partitions were produced or a round adds nothing
    new.  Deterministic: ties break on the canonical partition itself.
    """
    seen: set[Partition] = set()
    frontier: list[Partition] = []
    emitted = 0
    for seed in seeds:
        candidate = canonical_partition(seed)
        if candidate in seen:
            continue
        seen.add(candidate)
        frontier.append(candidate)
        yield candidate
        emitted += 1
        if emitted >= max_partitions:
            return
    for _round in range(refine_rounds):
        if not frontier:
            return
        center = max(frontier, key=lambda p: (score(p), p))
        frontier = []
        ranked = sorted(
            partition_neighbors(center, problem.n_cores),
            key=lambda p: (-score(p), p),
        )
        for candidate in ranked:
            if candidate in seen:
                continue
            seen.add(candidate)
            frontier.append(candidate)
            yield candidate
            emitted += 1
            if emitted >= max_partitions:
                return


# ----------------------------------------------------------------------
# Builtin allocators
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExhaustiveAllocatorOptions:
    """The exhaustive allocator has nothing to configure."""


@register_allocator
class ExhaustiveAllocator:
    """Every partition, in canonical enumeration order (ground truth)."""

    name = "exhaustive"
    options_type = ExhaustiveAllocatorOptions
    #: Covers the full partition space — the sweep never early-stops.
    exhaustive = True

    def partitions(
        self, problem: AllocationProblem, options: object
    ) -> Iterator[Partition]:
        resolve_allocator_options(self, options)
        return enumerate_partitions(problem.n_apps, problem.n_cores)


@dataclass(frozen=True)
class GreedyAllocatorOptions:
    """Options of the ``greedy`` allocator.

    ``max_partitions`` bounds the stream; ``refine_rounds`` is the
    number of local-search rounds after the greedy seed; ``patience``
    (when > 0) lets the sweep stop after that many consecutively
    non-improving partitions.
    """

    max_partitions: int = 64
    refine_rounds: int = 4
    patience: int = 0


@register_allocator
class GreedyAllocator:
    """Cache-sensitivity-aware greedy seeding + local-search refinement."""

    name = "greedy"
    options_type = GreedyAllocatorOptions

    def _seed(self, problem: AllocationProblem) -> Partition:
        """Place applications most-sensitive-first on the core where
        they contend least with what is already placed (free cores
        first), breaking ties toward the least-loaded core."""
        sens, load = problem.sensitivity, problem.load
        total_load = sum(load) or 1.0
        order = sorted(range(problem.n_apps), key=lambda i: (-sens[i], i))
        blocks: list[list[int]] = []
        for i in order:
            choices: list[tuple[float, float, int]] = []
            for b, block in enumerate(blocks):
                contention = sens[i] * sum(sens[j] for j in block)
                balance = sum(load[j] for j in block) / total_load
                choices.append((contention, balance, b))
            if len(blocks) < problem.n_cores:
                choices.append((0.0, 0.0, len(blocks)))
            _c, _b, target = min(choices)
            if target == len(blocks):
                blocks.append([i])
            else:
                blocks[target].append(i)
        return canonical_partition(blocks)

    def partitions(
        self, problem: AllocationProblem, options: object
    ) -> Iterator[Partition]:
        resolved = resolve_allocator_options(self, options)

        def score(partition: Partition) -> float:
            return _partition_score(problem, partition, 1.0, 0.5, 0.0, 0.0)

        return _refined_stream(
            problem,
            [self._seed(problem)],
            score,
            resolved.max_partitions,
            resolved.refine_rounds,
        )


@dataclass(frozen=True)
class ScoredAllocatorOptions:
    """Options of the ``scored`` allocator.

    The four weights span the placement score (cache benefit, load
    balance, cache affinity, core spread); ``beam_width`` is the number
    of partial assignments kept per placement step.  ``max_partitions``,
    ``refine_rounds`` and ``patience`` behave as for ``greedy``.
    """

    cache_weight: float = 0.4
    balance_weight: float = 0.3
    affinity_weight: float = 0.2
    spread_weight: float = 0.1
    beam_width: int = 3
    max_partitions: int = 64
    refine_rounds: int = 4
    patience: int = 0


@register_allocator
class ScoredAllocator:
    """Beam search under a weighted cache/balance/affinity/spread score."""

    name = "scored"
    options_type = ScoredAllocatorOptions

    def _beam(
        self, problem: AllocationProblem, opts: ScoredAllocatorOptions
    ) -> list[Partition]:
        """Beam-construct partitions by placing applications
        heaviest-first, keeping the ``beam_width`` best partial
        assignments at every step."""
        sens, load = problem.sensitivity, problem.load
        total_load = sum(load) or 1.0
        total_sens = sum(sens) or 1.0
        order = sorted(range(problem.n_apps), key=lambda i: (-load[i], i))
        beam: list[tuple[float, Partition]] = [(0.0, ())]
        for i in order:
            expanded: dict[Partition, float] = {}
            for acc, blocks in beam:
                targets = list(range(len(blocks)))
                if len(blocks) < problem.n_cores:
                    targets.append(len(blocks))
                for target in targets:
                    if target == len(blocks):
                        placed = blocks + ((i,),)
                        gain = opts.spread_weight
                    else:
                        block = blocks[target]
                        cache = -(sens[i] / total_sens) * sum(
                            sens[j] / total_sens for j in block
                        )
                        balance = -sum(load[j] for j in block) / total_load
                        shared = any(
                            problem.affinity[j] == problem.affinity[i]
                            for j in block
                        )
                        gain = (
                            opts.cache_weight * cache
                            + opts.balance_weight * balance
                            + opts.affinity_weight * (1.0 if shared else 0.0)
                        )
                        placed = canonical_partition(
                            blocks[:target] + (block + (i,),) + blocks[target + 1:]
                        )
                    score = acc + gain
                    if score > expanded.get(placed, float("-inf")):
                        expanded[placed] = score
            beam = sorted(
                ((score, blocks) for blocks, score in expanded.items()),
                key=lambda item: (-item[0], item[1]),
            )[: max(1, opts.beam_width)]
            beam = [(score, blocks) for score, blocks in beam]
        return [blocks for _score, blocks in beam]

    def partitions(
        self, problem: AllocationProblem, options: object
    ) -> Iterator[Partition]:
        resolved = resolve_allocator_options(self, options)

        def score(partition: Partition) -> float:
            return _partition_score(
                problem,
                partition,
                resolved.cache_weight,
                resolved.balance_weight,
                resolved.affinity_weight,
                resolved.spread_weight,
            )

        return _refined_stream(
            problem,
            self._beam(problem, resolved),
            score,
            resolved.max_partitions,
            resolved.refine_rounds,
        )


# ----------------------------------------------------------------------
# Building the AllocationProblem from real applications
# ----------------------------------------------------------------------

def cache_sensitivity(app: ControlApplication, platform: Platform) -> float:
    """One application's cache sensitivity in ``[0, 1]``.

    When the platform's cache is set-associative and the application
    carries its program, the sensitivity is the relative warm-WCET
    inflation under a single-way restriction (the same way-restricted
    reanalysis the shared-cache co-design evaluates, per Sun et al.).
    Otherwise it falls back to the guaranteed cold/warm WCET reduction
    relative to the cold WCET — the benefit the application draws from
    cache reuse, which every application carries for free.
    """
    wcets = app.wcets
    if app.program is not None and platform.cache.associativity >= 2:
        (restricted,) = platform.reanalyze([app], 1)
        baseline = float(wcets.warm_cycles) or 1.0
        inflation = float(restricted.wcets.warm_cycles) - float(wcets.warm_cycles)
        return max(0.0, min(1.0, inflation / baseline))
    cold = float(wcets.cold_cycles) or 1.0
    return max(0.0, min(1.0, float(wcets.reduction_cycles) / cold))


def allocation_problem(
    apps: list[ControlApplication], platform: Platform, n_cores: int
) -> AllocationProblem:
    """The :class:`AllocationProblem` summary of a real application set.

    Load is the warm WCET (execution demand per activation); the
    affinity key is the program name where available (applications
    replicated from one program share a warm cache), the application
    name otherwise.
    """
    return AllocationProblem(
        n_apps=len(apps),
        n_cores=n_cores,
        sensitivity=tuple(cache_sensitivity(app, platform) for app in apps),
        load=tuple(float(app.wcets.warm_cycles) for app in apps),
        affinity=tuple(
            app.program.name if app.program is not None else app.name
            for app in apps
        ),
    )


def replicate_apps(
    apps: list[ControlApplication], n_apps: int
) -> list[ControlApplication]:
    """Tile an application set round-robin up to ``n_apps`` applications.

    Copies keep their template's plant, spec, WCETs and program but get
    a distinct name (``C1#2`` for the second copy of ``C1``) and
    renormalized weights, so many-core sweeps can be driven from the
    three-application case study.  Deterministic.
    """
    if n_apps < len(apps):
        raise ConfigurationError(
            f"cannot replicate {len(apps)} applications down to {n_apps}; "
            "n_apps must be >= the template count"
        )
    from dataclasses import replace

    scale = len(apps) / n_apps
    out: list[ControlApplication] = []
    for k in range(n_apps):
        template = apps[k % len(apps)]
        copy = 1 + k // len(apps)
        name = template.name if copy == 1 else f"{template.name}#{copy}"
        out.append(replace(template, name=name, weight=template.weight * scale))
    # Float renormalization in one exact-sum step, the same idiom the
    # scenario synthesizer uses to satisfy check_weights' tolerance.
    total = sum(app.weight for app in out[:-1])
    out[-1] = replace(out[-1], weight=1.0 - total)
    return out
