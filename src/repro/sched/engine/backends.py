"""Evaluation backends: serial in-process, or a process pool.

The expensive part of a schedule evaluation is the per-application
holistic controller design (PSO + closed-loop simulation) — pure
CPU-bound numpy, so real parallelism needs processes, not threads.

The engine hands a backend its de-duplicated misses as ``(sub-problem,
schedule)`` tasks.  A sub-problem is one :class:`Block` of the
engine's applications; the whole-problem block is the single-core
problem itself.  Both backends evaluate each block's schedules as one
batch, so the design kernel can stack their designs.

Evaluations are deterministic functions of (apps, clock, design
options, schedule) — all swarm randomness is seeded from the design
options and a design's bits never depend on the batch it rides in —
so a parallel run returns bit-identical results to a serial run, just
sooner.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from ...errors import SearchError
from ...platform import Platform, default_platform
from ..evaluator import ScheduleEvaluation, ScheduleEvaluator
from ..schedule import PeriodicSchedule


@dataclass(frozen=True)
class Block:
    """One sub-problem address: application indices + way allocation.

    ``ways is None`` means the block runs on a private cache with the
    platform's full geometry (the classic multicore extension);
    ``ways=k`` means it runs on ``k`` ways of the shared cache and its
    WCETs are re-analyzed accordingly.
    """

    indices: tuple[int, ...]
    ways: int | None = None


def as_block(block, ways: int | None = None) -> Block:
    """Normalize a block spec: a plain index tuple means private cache;
    ``ways`` fills in the allocation of a block that has none."""
    if isinstance(block, Block):
        spec = Block(tuple(int(i) for i in block.indices), block.ways)
    else:
        spec = Block(tuple(int(i) for i in block))
    if spec.ways is None and ways is not None:
        spec = Block(spec.indices, int(ways))
    return spec


def block_evaluator(
    root: ScheduleEvaluator, platform: Platform, block: Block, variants: dict
) -> ScheduleEvaluator:
    """The evaluator of one block of ``root``'s problem.

    The whole-problem block is ``root`` itself: the caller's
    applications, unchanged.  Every other block is
    :meth:`ScheduleEvaluator.for_subproblem` over the applications
    re-analyzed under the block's way allocation (memoized per
    allocation in ``variants``).  The coordinator and every worker build
    block evaluators through this one function, so they agree bitwise.
    """
    n_apps = len(root.apps)
    if block.ways is None:
        if block.indices == tuple(range(n_apps)):
            return root
        apps = root.apps
    else:
        apps = variants.get(block.ways)
        if apps is None:
            apps = variants[block.ways] = platform.reanalyze(root.apps, block.ways)
    return ScheduleEvaluator.for_subproblem(
        apps, root.clock, root.design_options, block.indices
    )


def _by_subproblem(tasks: list) -> dict:
    """Task positions grouped per sub-problem, in first-seen order."""
    groups: dict = {}
    for i, (sub, _schedule) in enumerate(tasks):
        groups.setdefault(sub, []).append(i)
    return groups


class AffinityRouter:
    """Deterministic digest-keyed chunk routing with fair-share stealing.

    Worker processes keep per-block evaluators (and their design memos)
    alive across tasks, so a chunk of evaluations is cheapest on the
    worker that already computed for the same sub-problem.  The router
    pins every chunk to its *home* worker — a stable hash of the
    sub-problem digest — unless that worker's planned share of the
    batch is already full and another worker is idler, in which case
    the chunk is *stolen* by the least-loaded worker (work-stealing
    fallback, so affinity never serializes a lopsided batch).

    Routing is a pure function of the submitted chunks, so a parallel
    run stays deterministic; ``hits``/``steals`` are cumulative
    counters the engine surfaces through
    :class:`~.engine.EngineStats`.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise SearchError(f"affinity router needs >= 1 worker, got {workers}")
        self.workers = workers
        #: Per-worker count of chunks that landed on their home worker.
        self.hits: list[int] = [0] * workers
        #: Chunks redirected off their home worker to balance the batch.
        self.steals = 0

    @property
    def total_hits(self) -> int:
        return sum(self.hits)

    def home(self, digest: str) -> int:
        """The worker a sub-problem's chunks are pinned to."""
        return zlib.crc32(digest.encode("utf-8")) % self.workers

    def assign(self, chunks: list[tuple[str, int]]) -> list[int]:
        """Plan one batch: a worker index per ``(digest, n_tasks)`` chunk.

        A chunk goes home while the home worker's planned load is below
        its fair share (``ceil(total / workers)``); past that, the
        least-loaded worker steals it.
        """
        total = sum(n for _digest, n in chunks)
        fair = -(-total // self.workers)
        loads = [0] * self.workers
        plan: list[int] = []
        for digest, n_tasks in chunks:
            home = self.home(digest)
            if loads[home] >= fair and min(loads) < loads[home]:
                worker = min(range(self.workers), key=lambda w: (loads[w], w))
                self.steals += 1
            else:
                worker = home
                self.hits[home] += 1
            loads[worker] += n_tasks
            plan.append(worker)
        return plan


# ----------------------------------------------------------------------
# Worker-side machinery.  Workers receive the whole problem once (in the
# pool initializer) and build block evaluators on demand, so a task is
# just (block, schedule counts) — a few ints.
# ----------------------------------------------------------------------

_WORKER_ROOT: ScheduleEvaluator | None = None
_WORKER_PLATFORM: Platform | None = None
_WORKER_EVALUATORS: dict[Block, ScheduleEvaluator] = {}
_WORKER_VARIANTS: dict[int, list] = {}


def _init_worker(apps, clock, design_options, platform) -> None:
    """Pool initializer: build the whole-problem evaluator, reset blocks."""
    global _WORKER_ROOT, _WORKER_PLATFORM
    _WORKER_ROOT = ScheduleEvaluator(apps, clock, design_options)
    _WORKER_PLATFORM = platform
    _WORKER_EVALUATORS.clear()
    _WORKER_VARIANTS.clear()


def _evaluate_chunk(
    chunk: tuple[Block, list[tuple[int, ...]]],
) -> list[ScheduleEvaluation]:
    """Task function: evaluate one block's chunk of schedules at once.

    Block evaluators live for the life of the worker, so the per-
    (application, timing) design memo keeps paying off across tasks of
    the same block.
    """
    block, counts_list = chunk
    evaluator = _WORKER_EVALUATORS.get(block)
    if evaluator is None:
        if _WORKER_ROOT is None:  # pragma: no cover - initializer always ran
            raise SearchError("pool worker was never initialized")
        evaluator = _WORKER_EVALUATORS[block] = block_evaluator(
            _WORKER_ROOT, _WORKER_PLATFORM, block, _WORKER_VARIANTS
        )
    return evaluator.evaluate_batch(
        [PeriodicSchedule(counts) for counts in counts_list]
    )


class SerialBackend:
    """Evaluate tasks on the coordinator's evaluators (the default and
    the fallback)."""

    name = "serial"

    def map(self, tasks: list) -> list[ScheduleEvaluation]:
        results: list[ScheduleEvaluation | None] = [None] * len(tasks)
        for sub, positions in _by_subproblem(tasks).items():
            batch = sub.evaluator.evaluate_batch([tasks[i][1] for i in positions])
            for i, evaluation in zip(positions, batch):
                results[i] = evaluation
        return results

    def close(self) -> None:
        pass


class ProcessPoolBackend:
    """Fan tasks out to a pool of worker processes.

    Dispatch is *cache-affinity-aware*: the pool is a set of pinnable
    single-process executors and an :class:`AffinityRouter` keys every
    chunk on its sub-problem digest, so a block's evaluations land on
    the worker whose long-lived evaluator already designed that block's
    controllers (with fair-share work stealing when a batch is
    lopsided).  Routing only changes *where* a chunk runs, never what it
    computes, so results stay identical to the serial path.
    """

    name = "process-pool"

    def __init__(
        self,
        evaluator: ScheduleEvaluator,
        workers: int,
        platform: Platform | None = None,
    ) -> None:
        if workers < 2:
            raise SearchError(f"process pool needs >= 2 workers, got {workers}")
        self.workers = workers
        self.affinity = AffinityRouter(workers)
        # Workers rebuild the problem from its (picklable) inputs, so
        # only those travel, never the live caches.
        self._initargs = (
            list(evaluator.apps),
            evaluator.clock,
            evaluator.design_options,
            platform or default_platform(evaluator.clock),
        )
        self._executors: list[ProcessPoolExecutor] | None = None

    def _ensure_executors(self) -> list[ProcessPoolExecutor]:
        if self._executors is None:
            self._executors = [
                ProcessPoolExecutor(
                    max_workers=1,
                    initializer=_init_worker,
                    initargs=self._initargs,
                )
                for _ in range(self.workers)
            ]
        return self._executors

    def map(self, tasks: list) -> list[ScheduleEvaluation]:
        executors = self._ensure_executors()
        # Chunks never span blocks (each lands on one worker evaluator),
        # and each block's tasks are split so the whole batch still
        # spreads across the pool.
        chunk_size = max(1, -(-len(tasks) // self.workers))
        chunks = [
            (sub, positions[start:start + chunk_size])
            for sub, positions in _by_subproblem(tasks).items()
            for start in range(0, len(positions), chunk_size)
        ]
        plan = self.affinity.assign([(sub.digest, len(part)) for sub, part in chunks])
        futures = [
            executors[worker].submit(
                _evaluate_chunk, (sub.block, [tasks[i][1].counts for i in part])
            )
            for (sub, part), worker in zip(chunks, plan)
        ]
        results: list[ScheduleEvaluation | None] = [None] * len(tasks)
        for (_sub, part), future in zip(chunks, futures):
            for i, evaluation in zip(part, future.result()):
                results[i] = evaluation
        return results

    def close(self) -> None:
        if self._executors is not None:
            for executor in self._executors:
                executor.shutdown(wait=True)
            self._executors = None
