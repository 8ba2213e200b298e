"""The search engine (coordinator).

:class:`SearchEngine` wraps a :class:`ScheduleEvaluator` and serves the
search algorithms through the same ``evaluate`` / ``evaluate_batch``
interface.  It serves a family of sub-problems — :class:`~.backends.Block`\\ s
of the evaluator's applications, each optionally on a slice of a
shared cache's ways — and layers three levels of reuse under every one
of them:

1. the block's in-memory memo (its evaluator; for the whole-problem
   block, the caller's own evaluator);
2. a persistent, disk-backed evaluation cache keyed by a stable hash of
   schedule + the block's application timing + design options +
   platform (warm starts across runs, ablations and processes), shared
   by every engine of the process on that directory together with its
   memo of decoded rows (:mod:`~.store`);
3. batch computation of the remaining misses — serially, or fanned out
   to a process pool when ``workers >= 2``.

The single-core problem is the whole-problem block; each core of a
multicore partition is another block (Section VI: each core is an
independent instance of the single-core problem).  One batch may mix
blocks, so a whole partition sweep fans out together.  Results computed
by workers are merged back into both upper layers, so every path
(serial, parallel, cached) observes identical evaluations.
"""

from __future__ import annotations

import copy
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from ...control.design import DesignOptions
from ...errors import ScheduleError, SearchError
from ...platform import Platform, default_platform
from ...units import Clock
from ..evaluator import ScheduleEvaluation, ScheduleEvaluator
from ..schedule import PeriodicSchedule
from .backends import (
    Block,
    ProcessPoolBackend,
    SerialBackend,
    as_block,
    block_evaluator,
)
from .events import BatchSubmitted, batch_completed, best_feasible_overall
from .keys import evaluation_key, problem_digest
from .serialize import evaluation_from_dict, evaluation_to_dict
from .store import PersistentCache


@dataclass(frozen=True)
class EngineOptions:
    """Configuration of a :class:`SearchEngine`.

    Parameters
    ----------
    workers:
        ``0`` or ``1`` evaluates serially in-process; ``>= 2`` fans
        batches out to that many worker processes.
    cache_dir:
        Directory of the persistent evaluation cache; ``None`` disables
        the disk layer.
    """

    workers: int = 0
    cache_dir: str | Path | None = None

    def build(
        self,
        evaluator: ScheduleEvaluator,
        platform: Platform | None = None,
        on_event=None,
        problem: str | None = None,
    ) -> "SearchEngine":
        """An engine over ``evaluator`` with these options.

        ``platform`` declares the platform the evaluator's WCETs were
        analyzed on; it becomes part of the persistent-cache keys.
        ``on_event`` receives the engine's typed progress events
        (:mod:`~repro.sched.engine.events`); ``problem`` is the whole
        problem's digest when the caller already holds it.
        """
        return SearchEngine(
            evaluator,
            workers=self.workers,
            cache_dir=self.cache_dir,
            platform=platform,
            on_event=on_event,
            problem=problem,
        )


def stats_summary(stats: dict) -> str:
    """One-line accounting of an :meth:`EngineStats.as_dict` record."""
    return (
        f"{stats['n_requested']} requested = {stats['n_computed']} computed + "
        f"{stats['n_memo_hits']} memo + {stats['n_disk_hits']} disk + "
        f"{stats['n_duplicates']} duplicate"
    )


@dataclass
class EngineStats:
    """Where the engine's evaluations came from.

    Every requested evaluation lands in exactly one bucket, so
    ``n_requested == n_memo_hits + n_disk_hits + n_duplicates +
    n_computed`` holds at all times (``n_duplicates`` counts repeats of
    a miss *within* one batch: they are deduplicated before the backend
    and served from the memo once the first copy is computed).

    The affinity counters are routing telemetry from the process pool's
    cache-affinity dispatch — chunks that landed on (vs. were stolen
    from) the worker process already holding their sub-problem's warm
    state.  They count *dispatched chunks*, not requested evaluations,
    so they sit outside the accounting identity and stay zero on serial
    engines.  ``n_disk_corrupt`` counts disk rows that could not be
    decoded; each such row was recomputed (and is also counted in
    ``n_computed``), so it too sits outside the identity.
    """

    n_requested: int = 0
    n_memo_hits: int = 0
    n_disk_hits: int = 0
    n_duplicates: int = 0
    n_computed: int = 0
    serial_fallback: bool = False
    batch_sizes: list[int] = field(default_factory=list)
    n_affinity_hits: int = 0
    n_affinity_steals: int = 0
    worker_affinity_hits: list[int] = field(default_factory=list)
    n_disk_corrupt: int = 0

    @property
    def accounted(self) -> int:
        """Sum over all buckets; always equals ``n_requested``."""
        return (
            self.n_memo_hits
            + self.n_disk_hits
            + self.n_duplicates
            + self.n_computed
        )

    def summary(self) -> str:
        """One human line spelling out the accounting identity."""
        return stats_summary(self.as_dict())

    def as_dict(self) -> dict:
        return {
            "n_requested": self.n_requested,
            "n_memo_hits": self.n_memo_hits,
            "n_disk_hits": self.n_disk_hits,
            "n_duplicates": self.n_duplicates,
            "n_computed": self.n_computed,
            "n_batches": len(self.batch_sizes),
            "max_batch": max(self.batch_sizes, default=0),
            "serial_fallback": self.serial_fallback,
            "n_affinity_hits": self.n_affinity_hits,
            "n_affinity_steals": self.n_affinity_steals,
            "worker_affinity_hits": list(self.worker_affinity_hits),
            "n_disk_corrupt": self.n_disk_corrupt,
        }


@dataclass(eq=False)
class Subproblem:
    """One block's evaluation problem: its evaluator (memo) and disk digest."""

    block: Block
    evaluator: ScheduleEvaluator
    digest: str


class SearchEngine:
    """Layered (memo -> disk -> workers) schedule-evaluation service.

    Duck-compatible with :class:`ScheduleEvaluator`, so every search
    strategy can be handed an engine wherever it expects an evaluator.
    The engine's own block is the whole problem; :meth:`for_block` gives
    the same engine scoped to one block (a multicore sweep's cores).

    ``problem`` is the whole problem's digest,
    ``problem_digest(evaluator.apps, clock, design_options, platform)``,
    when the caller already computed it (a
    :class:`~repro.sched.engine.batch.Scenario` holds it); by default the
    engine computes it.
    """

    def __init__(
        self,
        evaluator: ScheduleEvaluator,
        workers: int = 0,
        cache_dir: str | Path | None = None,
        platform: Platform | None = None,
        on_event=None,
        problem: str | None = None,
    ) -> None:
        self.evaluator = evaluator
        self.workers = int(workers)
        self.platform = platform
        self.on_event = on_event
        self.stats = EngineStats()
        # State shared with every block-scoped copy lives on the root.
        self._root = self
        self._best_overall: float | None = None
        self._store = (
            PersistentCache.shared(cache_dir) if cache_dir is not None else None
        )
        self._subproblems: dict[Block, Subproblem] = {}
        self._variants: dict[int, list] = {}
        if self.workers >= 2:
            self._backend: SerialBackend | ProcessPoolBackend = ProcessPoolBackend(
                evaluator, self.workers, platform
            )
        else:
            self._backend = SerialBackend()
        whole = Block(tuple(range(len(evaluator.apps))))
        if problem is not None:
            self._subproblems[whole] = Subproblem(whole, evaluator, problem)
        self._sub = self.subproblem(whole)

    # ------------------------------------------------------------------
    # ScheduleEvaluator duck-type surface
    # ------------------------------------------------------------------
    @property
    def apps(self):
        return self.evaluator.apps

    @property
    def clock(self) -> Clock:
        return self.evaluator.clock

    @property
    def design_options(self) -> DesignOptions:
        return self.evaluator.design_options

    @property
    def n_schedule_evaluations(self) -> int:
        """Distinct schedules known in-memory (memo size)."""
        return self.evaluator.n_schedule_evaluations

    def is_cached(self, schedule: PeriodicSchedule) -> bool:
        """Whether the schedule is already in the in-memory memo."""
        return self.evaluator.is_cached(schedule)

    @property
    def speculative(self) -> bool:
        """Whether speculative batch prefetching is worthwhile.

        True only with a parallel backend: the extra evaluations then
        ride on otherwise-idle workers instead of costing serial time.
        """
        return isinstance(self._root._backend, ProcessPoolBackend)

    @property
    def backend_name(self) -> str:
        return self._root._backend.name

    @property
    def problem_key(self) -> str:
        """Digest identifying this engine's (block's) problem on disk."""
        return self._sub.digest

    # ------------------------------------------------------------------
    # Sub-problems
    # ------------------------------------------------------------------
    def subproblem(self, block, ways: int | None = None) -> Subproblem:
        """The (lazily built, cached) sub-problem of one block.

        ``block`` is a plain index tuple or a :class:`Block`; the
        ``ways`` keyword is a convenience for index-tuple callers.  The
        whole-problem block's evaluator is the root evaluator and its
        digest is ``problem_digest(evaluator.apps, ...)``; every other
        block's digest equals :func:`~.keys.subproblem_digest`.
        """
        spec = as_block(block, ways)
        sub = self._subproblems.get(spec)
        if sub is None:
            root = self._root
            platform = root.platform or default_platform(root.evaluator.clock)
            evaluator = block_evaluator(
                root.evaluator, platform, spec, self._variants
            )
            if spec.ways is not None:
                platform = platform.with_ways(spec.ways)
            digest = problem_digest(
                evaluator.apps, evaluator.clock, evaluator.design_options, platform
            )
            sub = self._subproblems[spec] = Subproblem(spec, evaluator, digest)
        return sub

    def digest_for(self, block, ways: int | None = None) -> str:
        """Persistent-cache digest of one block's sub-problem."""
        return self.subproblem(block, ways).digest

    @property
    def n_subproblems(self) -> int:
        """Distinct blocks materialized so far."""
        return len(self._subproblems)

    def for_block(self, block, ways: int | None = None) -> "SearchEngine":
        """This engine scoped to one block.

        The result is a :class:`SearchEngine` whose evaluator, apps and
        default batch block are the block's, so any search strategy can
        run on it.  It shares this engine's memos, store, pool and
        stats (closing it closes them).
        """
        sub = self.subproblem(block, ways)
        scoped = copy.copy(self._root)
        scoped.evaluator, scoped._sub = sub.evaluator, sub
        return scoped

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, schedule: PeriodicSchedule) -> ScheduleEvaluation:
        """Evaluate one schedule through all cache layers."""
        return self.evaluate_batch([schedule])[0]

    def evaluate_batch(
        self, schedules: list[PeriodicSchedule], blocks: list | None = None
    ) -> list[ScheduleEvaluation]:
        """Evaluate many schedules, preserving order.

        ``blocks`` gives each schedule's block (index tuples or
        :class:`Block`\\ s); by default every schedule is on this
        engine's own block.  Misses after the memo and disk layers are
        computed as *one* batch on the backend — schedules of different
        blocks fan out together — and duplicates within the batch are
        computed once.
        """
        root = self._root
        if blocks is None:
            subs = [self._sub] * len(schedules)
        elif len(blocks) != len(schedules):
            raise SearchError(
                f"got {len(blocks)} blocks for {len(schedules)} schedules"
            )
        else:
            subs = [self.subproblem(block) for block in blocks]
        stats = root.stats
        stats.n_requested += len(schedules)
        pending: list[tuple[Subproblem, PeriodicSchedule]] = []
        pending_keys: set[tuple[Subproblem, tuple[int, ...]]] = set()
        for sub, schedule in zip(subs, schedules):
            if sub.evaluator.is_cached(schedule):
                stats.n_memo_hits += 1
                continue
            key = (sub, schedule.counts)
            if key in pending_keys:
                # Already pending, so it already missed memo and disk.
                stats.n_duplicates += 1
                continue
            if root._load_from_disk(sub, schedule):
                stats.n_disk_hits += 1
                continue
            pending_keys.add(key)
            pending.append((sub, schedule))
        if pending:
            root._emit(
                BatchSubmitted(n_batch=len(pending), n_requested=stats.n_requested)
            )
            root._compute(pending)
        results = [
            sub.evaluator.evaluate(schedule) for sub, schedule in zip(subs, schedules)
        ]
        # On a multi-block engine this is the best *block-local* overall
        # (a progress signal; block objectives are renormalized).
        root._best_overall = best_feasible_overall(results, root._best_overall)
        if pending:
            root._emit(batch_completed(stats, len(pending), root._best_overall))
        return results

    def _emit(self, event) -> None:
        if self.on_event is not None:
            self.on_event(event)

    def _load_from_disk(self, sub: Subproblem, schedule: PeriodicSchedule) -> bool:
        """Try to satisfy a miss from the persistent store.

        The store's memo of decoded rows answers first; a memo hit is
        a disk hit like any other.  A row that does not decode to this
        schedule's evaluation is a miss: it is recomputed, its row
        overwritten, and it is counted in ``n_disk_corrupt``.
        """
        store = self._store
        if store is None:
            return False
        key = evaluation_key(sub.digest, schedule)

        def read() -> ScheduleEvaluation | None:
            payload = store.get(key)
            if payload is None:
                return None
            evaluation = evaluation_from_dict(payload)
            if evaluation.schedule.counts != schedule.counts:
                raise ValueError("row holds another schedule")
            return evaluation

        try:
            evaluation = store.decoded.get(key, read)
        except (ValueError, LookupError, TypeError, AttributeError, ScheduleError):
            self.stats.n_disk_corrupt += 1
            return False
        if evaluation is None:
            return False
        sub.evaluator.adopt(evaluation)
        return True

    def _compute(self, pending: list[tuple[Subproblem, PeriodicSchedule]]) -> None:
        """Evaluate the de-duplicated misses on the backend."""
        self.stats.batch_sizes.append(len(pending))
        try:
            evaluations = self._backend.map(pending)
        except (BrokenProcessPool, OSError) as exc:
            # A dead pool must not kill an hours-long search: finish the
            # batch serially and stay serial from here on.
            warnings.warn(
                f"parallel evaluation backend failed ({exc!r}); "
                "falling back to serial evaluation",
                RuntimeWarning,
                stacklevel=3,
            )
            self._backend.close()
            self._backend = SerialBackend()
            self.stats.serial_fallback = True
            evaluations = self._backend.map(pending)
        router = getattr(self._backend, "affinity", None)
        if router is not None:
            self.stats.n_affinity_hits = router.total_hits
            self.stats.n_affinity_steals = router.steals
            self.stats.worker_affinity_hits = list(router.hits)
        self.stats.n_computed += len(evaluations)
        for (sub, _schedule), evaluation in zip(pending, evaluations):
            sub.evaluator.adopt(evaluation)
        if self._store is not None:
            self._store.put_many(
                [
                    (
                        evaluation_key(sub.digest, evaluation.schedule),
                        evaluation_to_dict(evaluation),
                    )
                    for (sub, _schedule), evaluation in zip(pending, evaluations)
                ]
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down workers and release the store (idempotent)."""
        root = self._root
        root._backend.close()
        if root._store is not None:
            root._store.release()
            root._store = None

    def __enter__(self) -> "SearchEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
