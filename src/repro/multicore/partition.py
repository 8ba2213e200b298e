"""Application partitioning across cores (private or shared caches).

For each partition of the applications onto cores, every core is an
independent instance of the single-core problem (its own cache slice,
its own periodic schedule, smaller interference set Δ), so the
single-core machinery is reused per core — through the scenario's
search engine (:class:`repro.sched.engine.SearchEngine`), which serves
every core's block of applications as one of its sub-problems:

* every block of applications gets a real
  :class:`~repro.sched.evaluator.ScheduleEvaluator` (so femtosecond
  timing quantization and per-application design seeding live in
  exactly one place, the evaluator);
* all ``(core-block, schedule)`` candidates of the whole partition
  sweep are submitted as one batch, which fans out to the engine's
  worker processes; per-core strategies run on a block-scoped
  engine (:meth:`SearchEngine.for_block
  <repro.sched.engine.SearchEngine.for_block>`);
* evaluations persist to the engine's cache directory keyed by the per-core
  sub-problem digest, so a block's entries are reused across
  partitions, across runs, and by single-core searches of the same
  applications.

Two multicore models are supported:

* **private caches** (default, the paper's Section-VI extension): every
  core owns a full copy of the platform cache, so a block's evaluation
  depends only on the block.
* **shared cache, way-partitioned** (``RunSpec.shared_cache``, after Sun
  et al.'s cache-partitioning/task-scheduling co-design): all cores
  share one set-associative cache whose ways are divided between them.
  The co-design then optimizes the application partition *and* the
  per-core way allocation jointly — every ``(block, ways)`` candidate
  re-analyzes the block's WCETs under
  :meth:`~repro.cache.config.CacheConfig.with_ways` and is batched
  through the same engine under a way-aware sub-problem digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterator

from ..errors import ScheduleError, SearchError
from ..platform import default_platform
from ..sched.engine import Block, SearchEngine
from ..sched.evaluator import ScheduleEvaluation
from ..sched.feasibility import enumerate_idle_feasible, idle_feasible
from ..sched.schedule import PeriodicSchedule
from ..sched.strategies import StrategySpec

if TYPE_CHECKING:  # repro.study builds on repro.sched
    from ..study.spec import RunSpec

#: How many partitions one lazily-drawn chunk of the sweep scores at
#: once.  Large enough that small problems (the 2-core case study) still
#: fan out as a single engine batch; small enough that even an
#: exhaustive many-core stream never materializes.
PARTITION_CHUNK = 64


@dataclass(frozen=True)
class CoreAssignment:
    """One core's applications (global indices), schedule and — for
    shared-cache co-designs — its allocated cache ways."""

    app_indices: tuple[int, ...]
    schedule: PeriodicSchedule
    ways: int | None = None


@dataclass
class MulticoreEvaluation:
    """Outcome of evaluating one partition + per-core schedules.

    ``n_partitions`` counts the partitions the sweep actually drew from
    its allocator — under heuristic allocators this is the denominator
    of the speedup over the exhaustive partition count.
    """

    cores: tuple[CoreAssignment, ...]
    settling: dict[int, float]
    performances: dict[int, float]
    overall: float
    feasible: bool
    n_partitions: int = 0

    @property
    def n_cores_used(self) -> int:
        """Number of non-empty cores."""
        return len(self.cores)


def enumerate_partitions(n_apps: int, n_cores: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of ``n_apps`` applications onto <= ``n_cores`` cores.

    Partitions are canonical (each block sorted, blocks ordered by their
    smallest element) so no partition is produced twice.
    """
    if n_apps < 1 or n_cores < 1:
        raise ScheduleError("need at least one application and one core")

    def recurse(index: int, blocks: list[list[int]]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if index == n_apps:
            yield tuple(tuple(block) for block in blocks)
            return
        for block in blocks:
            block.append(index)
            yield from recurse(index + 1, blocks)
            block.pop()
        if len(blocks) < n_cores:
            blocks.append([index])
            yield from recurse(index + 1, blocks)
            blocks.pop()

    yield from recurse(0, [])


def way_allocations(total_ways: int, n_blocks: int) -> Iterator[tuple[int, ...]]:
    """All ordered allocations of ``total_ways`` cache ways to
    ``n_blocks`` cores, at least one way each, all ways assigned.

    Assigning every way is without loss of optimality: a core's WCETs
    (and therefore its best schedule value) never degrade with extra
    ways under LRU, so any allocation leaving ways idle is dominated.
    """
    if n_blocks < 1 or total_ways < n_blocks:
        return
    if n_blocks == 1:
        yield (total_ways,)
        return
    for first in range(1, total_ways - n_blocks + 2):
        for rest in way_allocations(total_ways - first, n_blocks - 1):
            yield (first,) + rest


class MulticoreProblem:
    """Co-design over partitions and per-core periodic schedules.

    ``engine`` is the scenario's :class:`~repro.sched.engine.SearchEngine`
    over all applications (see
    :func:`~repro.sched.engine.batch.scenario_engine`); every core block
    is one of its sub-problems, so its workers, persistent cache and
    progress events serve the whole sweep.  The caller owns the engine
    and closes it.  ``spec`` is the run's resolved
    :class:`~repro.study.spec.RunSpec` (:attr:`Scenario.spec
    <repro.sched.engine.batch.Scenario.spec>`): it gives the core count,
    the per-core burst cap (a lone application never violates its idle
    bound, so its schedule space is otherwise unbounded), the per-core
    search (strategy,
    ``n_starts``, seed, options) and the partition allocator (see
    :mod:`repro.multicore.allocators`).

    The platform is the engine's (default: the paper platform at the
    engine's clock).  With ``spec.shared_cache`` the cores share that
    platform's set-associative cache and the sweep co-optimizes the
    application partition with the per-core way allocation; the cache
    has at least one way per core (:meth:`RunSpec.validate
    <repro.study.spec.RunSpec.validate>` checks it).
    """

    def __init__(self, engine: SearchEngine, spec: RunSpec) -> None:
        from .allocators import resolve_allocator_options

        self.engine = engine
        self.spec = spec
        self.apps = engine.apps
        self.clock = engine.clock
        self.allocator = spec.allocator_plugin()
        self.allocator_options = resolve_allocator_options(
            self.allocator, spec.allocator_options
        )
        self.platform = engine.platform or default_platform(self.clock)
        self.total_ways = self.platform.cache.associativity

    # ------------------------------------------------------------------
    # Per-core machinery
    # ------------------------------------------------------------------
    def core_schedule_space(
        self, app_indices: tuple[int, ...], ways: int | None = None
    ) -> list[PeriodicSchedule]:
        """One core's idle-feasible schedule space (memoized by
        :func:`~repro.sched.feasibility.enumerate_idle_feasible`).

        For way-allocated blocks the space is derived from the WCETs
        re-analyzed under that allocation — fewer ways mean longer
        effective WCETs, so the idle-feasible space itself moves with
        the way allocation.
        """
        core_apps = self.engine.subproblem(tuple(app_indices), ways).evaluator.apps
        return enumerate_idle_feasible(
            core_apps, self.clock, max_count=self.spec.max_count_per_core
        )

    def _block_value(
        self, app_indices: tuple[int, ...], evaluation: ScheduleEvaluation
    ) -> float:
        """Global-weight contribution of one core (eq. (2) restricted).

        The block evaluator renormalizes weights within the block, so
        the partition objective recombines per-application performances
        with the *global* weights.
        """
        return sum(
            self.apps[global_index].weight * app_eval.performance
            for global_index, app_eval in zip(app_indices, evaluation.apps)
        )

    def _best_in_block(
        self, app_indices: tuple[int, ...], evaluations: list[ScheduleEvaluation]
    ) -> tuple[float, ScheduleEvaluation] | None:
        """Best feasible (value, evaluation) of one core, or ``None``.

        Strict improvement keeps the first optimum in enumeration
        order, so results are identical on every engine path.
        """
        best: tuple[float, ScheduleEvaluation] | None = None
        for evaluation in evaluations:
            if not evaluation.feasible:
                continue
            value = self._block_value(app_indices, evaluation)
            if best is None or value > best[0]:
                best = (value, evaluation)
        return best

    def _search_block(
        self, strat, block: tuple[int, ...], ways: int | None = None
    ) -> tuple[float, ScheduleEvaluation] | None:
        """Optimize one core's schedule with a registered strategy (the
        spec's ``n_starts``, seed and options).

        Returns the same ``(global-weight value, evaluation)`` shape as
        :meth:`_best_in_block`; ``None`` marks the block infeasible
        (empty space or no feasible schedule found).
        """
        space = self.core_schedule_space(block, ways)
        if not space:
            return None
        engine = self.engine.for_block(block, ways)
        # Strategies walk the space through eq. (4) only; re-add the
        # burst-length cap so a lone-app core (Delta = 0, everything
        # idle-feasible) cannot wander past the enumerated space.
        block_apps, clock, cap = engine.apps, self.clock, self.spec.max_count_per_core
        feasible = lambda s: (
            max(s.counts) <= cap and idle_feasible(s, block_apps, clock)
        )
        strategy_spec = StrategySpec(
            n_starts=self.spec.n_starts,
            seed=self.spec.seed,
            options=self.spec.options,
            feasible=feasible,
        )
        try:
            result = strat.run(engine, space, strategy_spec)
        except SearchError:
            return None
        return self._block_value(block, result.best), result.best

    def best_schedule_for_core(
        self, app_indices: tuple[int, ...], ways: int | None = None
    ) -> tuple[PeriodicSchedule, dict[int, float], dict[int, float]] | None:
        """Exhaustively optimize one core's schedule (weighted objective)."""
        app_indices = tuple(app_indices)
        space = self.core_schedule_space(app_indices, ways)
        evaluations = self.engine.for_block(app_indices, ways).evaluate_batch(space)
        best = self._best_in_block(app_indices, evaluations)
        if best is None:
            return None
        evaluation = best[1]
        settling = {
            g: e.settling for g, e in zip(app_indices, evaluation.apps)
        }
        performances = {
            g: e.performance for g, e in zip(app_indices, evaluation.apps)
        }
        return evaluation.schedule, settling, performances

    # ------------------------------------------------------------------
    # Partition sweep
    # ------------------------------------------------------------------
    def optimize(self) -> MulticoreEvaluation:
        """Search all partitions; per core, search the schedule space.

        ``spec.strategy`` names the registered search strategy each
        core's schedule is optimized with, from ``spec.n_starts`` starts
        drawn with ``spec.seed``.  The multicore default
        ``"exhaustive"`` evaluates a core's complete
        idle-feasible space; since that sweep needs no start points, the
        runner collects every distinct block over all partitions and
        batches *all* their candidate schedules through the engine in
        one submission (parallel workers, shared persistent cache).
        Other strategies (e.g. ``"hybrid"``) run per block on a
        block-scoped engine, still sharing the engine's caches and
        pool.  Partitions are then scored from the per-block optima.

        With ``spec.shared_cache`` each partition is additionally swept
        over every allocation of the cache's ways to its cores, so the
        result jointly optimizes partition, way allocation and per-core
        schedules.

        Partitions are drawn lazily from the spec's *allocator*
        (``spec.allocator``) in chunks of
        :data:`PARTITION_CHUNK`, so memory stays flat even under the
        ``exhaustive`` allocator; heuristic allocators with a
        ``patience`` option additionally stop the sweep after that many
        consecutively non-improving partitions.
        """
        from .allocators import allocation_problem, check_partition

        strat = self.spec.strategy_plugin()
        stream = self.allocator.partitions(
            allocation_problem(self.apps, self.platform, self.spec.n_cores),
            self.allocator_options,
        )
        full_space = bool(getattr(strat, "evaluates_full_space", False))
        covers_all = bool(getattr(self.allocator, "exhaustive", False))
        patience = 0 if covers_all else int(
            getattr(self.allocator_options, "patience", 0) or 0
        )

        best: MulticoreEvaluation | None = None
        best_per_block: dict[
            tuple[tuple[int, ...], int | None],
            tuple[float, ScheduleEvaluation] | None,
        ] = {}
        n_partitions = 0
        since_improved = 0
        stopped = False
        while not stopped:
            chunk = [
                check_partition(partition, len(self.apps), self.spec.n_cores)
                for partition in islice(stream, PARTITION_CHUNK)
            ]
            if not chunk:
                break
            self._evaluate_chunk_blocks(chunk, strat, best_per_block, full_space)
            for partition in chunk:
                n_partitions += 1
                improved = False
                for alloc in self._allocations_for(partition):
                    candidate = self._score_candidate(
                        partition, alloc, best_per_block
                    )
                    if candidate is None:
                        continue
                    if best is None or candidate.overall > best.overall:
                        best = candidate
                        improved = True
                since_improved = 0 if improved else since_improved + 1
                if patience and since_improved >= patience and best is not None:
                    stopped = True
                    break
        if best is None:
            raise SearchError("no feasible multicore assignment exists")
        best.n_partitions = n_partitions
        return best

    def _allocations_for(
        self, partition: tuple[tuple[int, ...], ...]
    ) -> Iterator[tuple[int | None, ...]]:
        """A partition's way-allocation sweep (a fresh lazy iterator)."""
        if self.spec.shared_cache:
            return way_allocations(self.total_ways, len(partition))
        return iter(((None,) * len(partition),))

    def _evaluate_chunk_blocks(
        self,
        chunk: list[tuple[tuple[int, ...], ...]],
        strat,
        best_per_block: dict,
        full_space: bool,
    ) -> None:
        """Solve the chunk's not-yet-seen blocks into ``best_per_block``.

        Full-space strategies batch every new block's complete schedule
        space through the engine as *one* submission (so a small sweep
        still fans out as a single batch, exactly as before); other
        strategies run per block on a block-scoped engine.
        """
        new_blocks: list[tuple[tuple[int, ...], int | None]] = []
        pending: set[tuple[tuple[int, ...], int | None]] = set()
        for partition in chunk:
            for alloc in self._allocations_for(partition):
                for block, ways in zip(partition, alloc):
                    key = (block, ways)
                    if key not in best_per_block and key not in pending:
                        pending.add(key)
                        new_blocks.append(key)
        if not new_blocks:
            return
        if full_space:
            blocks, schedules = [], []
            for block, ways in new_blocks:
                space = self.core_schedule_space(block, ways)
                blocks += [Block(block, ways)] * len(space)
                schedules += space
            evaluations = self.engine.evaluate_batch(schedules, blocks)
            per_block: dict[
                tuple[tuple[int, ...], int | None], list[ScheduleEvaluation]
            ] = {key: [] for key in new_blocks}
            for spec, evaluation in zip(blocks, evaluations):
                per_block[(spec.indices, spec.ways)].append(evaluation)
            for key, results in per_block.items():
                best_per_block[key] = self._best_in_block(key[0], results)
        else:
            for block, ways in new_blocks:
                best_per_block[(block, ways)] = self._search_block(strat, block, ways)

    def _score_candidate(
        self,
        partition: tuple[tuple[int, ...], ...],
        alloc: tuple[int | None, ...],
        best_per_block: dict,
    ) -> MulticoreEvaluation | None:
        """Recombine one (partition, way allocation) from the per-block
        optima; ``None`` when any core is infeasible."""
        cores = []
        settling: dict[int, float] = {}
        performances: dict[int, float] = {}
        overall = 0.0
        for block, ways in zip(partition, alloc):
            block_best = best_per_block[(block, ways)]
            if block_best is None:
                return None
            value, evaluation = block_best
            cores.append(CoreAssignment(block, evaluation.schedule, ways=ways))
            for global_index, app_eval in zip(block, evaluation.apps):
                settling[global_index] = app_eval.settling
                performances[global_index] = app_eval.performance
            overall += value
        return MulticoreEvaluation(
            cores=tuple(cores),
            settling=settling,
            performances=performances,
            overall=overall,
            feasible=True,
        )
