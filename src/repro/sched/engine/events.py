"""Typed progress events emitted by the search engine.

Long sweeps used to be silent until the final result; these events are
the engine's live telemetry.  :class:`~.engine.SearchEngine` accepts an
``on_event`` callback and invokes it synchronously, on the coordinating
thread (block-scoped engines share their parent's callback):

* :class:`BatchSubmitted` just before a batch of de-duplicated cache
  misses is handed to the backend (serial or worker pool);
* :class:`BatchCompleted` once the batch's evaluations have been merged
  back into the memo (and the persistent store, if configured).

Every event carries a *consistent snapshot* of the engine's
:class:`~.engine.EngineStats` counters, taken at emission time — so the
accounting identity ``n_requested == n_memo_hits + n_disk_hits +
n_duplicates + n_computed`` holds inside every :class:`BatchCompleted`
event, exactly as it does for the stats object itself.  The
:class:`~repro.study.Study` facade wraps these into
:class:`~repro.study.events.StudyEvent`\\ s; the CLI renders both into
a live progress line.

Events are plain frozen dataclasses: cheap to create, safe to hand to
third-party callbacks, trivially testable.  A callback that raises
aborts the run — deliberately, so broken observers never corrupt a
sweep silently.

Every event also has a typed JSON encoding, inherited from
:class:`~repro.registry.TaggedEvent` — ``to_dict`` / ``from_dict`` (and
the ``to_json`` / ``from_json`` string forms) round-trip losslessly,
with the concrete event class recorded under the ``"event"`` key.  This
is the wire format :mod:`repro.serve.wire` streams over HTTP.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...registry import TaggedEvent


@dataclass(frozen=True)
class EngineEvent(TaggedEvent, family="engine"):
    """Base class of all engine progress events."""


@dataclass(frozen=True)
class BatchSubmitted(EngineEvent):
    """A batch of cache misses is about to be computed on the backend.

    ``n_batch`` counts the de-duplicated misses in this batch;
    ``n_requested`` is the engine's cumulative request counter at
    submission time.
    """

    n_batch: int
    n_requested: int


@dataclass(frozen=True)
class BatchCompleted(EngineEvent):
    """A computed batch has been merged back into the cache layers.

    The counters are a snapshot of the engine's
    :class:`~.engine.EngineStats` *after* the batch was accounted, so
    ``n_requested == n_memo_hits + n_disk_hits + n_duplicates +
    n_computed`` holds in every event.

    ``best_overall`` is the best feasible overall performance among all
    evaluations the engine has served so far (``None`` until a feasible
    one appears).  Once batches span several blocks the value is the
    block-local objective of the best sub-problem evaluation — a
    progress signal, not the partition objective.

    The affinity counters mirror
    :class:`~.engine.EngineStats`' cache-affinity routing telemetry
    (dispatched chunks, *outside* the accounting identity); they stay
    at their zero defaults on serial engines.
    """

    n_batch: int
    n_requested: int
    n_memo_hits: int
    n_disk_hits: int
    n_duplicates: int
    n_computed: int
    best_overall: float | None
    n_affinity_hits: int = 0
    n_affinity_steals: int = 0
    worker_affinity_hits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # JSON decodes the tuple as a list; normalize so the wire
        # round-trip stays an identity.
        object.__setattr__(
            self, "worker_affinity_hits", tuple(self.worker_affinity_hits)
        )


def batch_completed(stats, n_batch: int, best_overall: float | None) -> BatchCompleted:
    """A :class:`BatchCompleted` snapshot of ``stats``."""
    return BatchCompleted(
        n_batch=n_batch,
        n_requested=stats.n_requested,
        n_memo_hits=stats.n_memo_hits,
        n_disk_hits=stats.n_disk_hits,
        n_duplicates=stats.n_duplicates,
        n_computed=stats.n_computed,
        best_overall=best_overall,
        n_affinity_hits=stats.n_affinity_hits,
        n_affinity_steals=stats.n_affinity_steals,
        worker_affinity_hits=tuple(stats.worker_affinity_hits),
    )


def best_feasible_overall(evaluations, current: float | None) -> float | None:
    """``current`` folded over a batch's feasible overalls (the
    engine's best-so-far tracking)."""
    for evaluation in evaluations:
        if evaluation.feasible and (
            current is None or evaluation.overall > current
        ):
            current = evaluation.overall
    return current
