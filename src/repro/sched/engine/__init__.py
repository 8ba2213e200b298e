"""Schedule-search engine with a process pool and a persistent cache.

The subsystem behind ``--workers`` / ``--cache-dir``:

* :mod:`~repro.sched.engine.engine` — :class:`SearchEngine`, the one
  layered (memo -> disk -> workers) evaluation service the search
  algorithms submit candidates through.  It serves a family of
  :class:`Block` sub-problems: the single-core problem is the
  whole-problem block, and each core of a multicore partition (with its
  way allocation, for a shared cache) is another block.  Batches may
  mix blocks, and :meth:`SearchEngine.for_block` scopes the engine to
  one block for a per-core strategy run;
* :mod:`~repro.sched.engine.events` — typed progress events
  (:class:`BatchSubmitted` / :class:`BatchCompleted`) the engine emits
  through its ``on_event`` callback, each carrying a consistent
  :class:`EngineStats` snapshot;
* :mod:`~repro.sched.engine.backends` — the serial backend and the
  process-pool backend (single-process executors with cache-affinity
  routing by sub-problem digest);
* :mod:`~repro.sched.engine.store` — the SQLite-backed persistent
  evaluation cache (WAL + busy timeout, safe to share between
  concurrent runs);
* :mod:`~repro.sched.engine.keys` / :mod:`~repro.sched.engine.serialize`
  — stable problem hashing and JSON round-tripping of evaluations;
* :mod:`~repro.sched.engine.batch` — the scenario runner and
  workload synthesis (imported lazily by its users: it builds on
  :mod:`repro.apps`, which itself builds on :mod:`repro.sched`).
"""

from .backends import AffinityRouter, Block, ProcessPoolBackend, SerialBackend
from .engine import EngineOptions, EngineStats, SearchEngine, Subproblem, stats_summary
from .events import BatchCompleted, BatchSubmitted, EngineEvent
from .keys import (
    evaluation_key,
    problem_digest,
    problem_fingerprint,
    subproblem_digest,
)
from .serialize import evaluation_from_dict, evaluation_to_dict
from .store import PersistentCache

__all__ = [
    "AffinityRouter",
    "BatchCompleted",
    "BatchSubmitted",
    "Block",
    "EngineEvent",
    "EngineOptions",
    "EngineStats",
    "PersistentCache",
    "ProcessPoolBackend",
    "SearchEngine",
    "SerialBackend",
    "Subproblem",
    "evaluation_from_dict",
    "evaluation_key",
    "evaluation_to_dict",
    "problem_digest",
    "problem_fingerprint",
    "stats_summary",
    "subproblem_digest",
]
