"""One bounded, thread-safe LRU memo for the warm path's pure functions.

Two functions of the paper's first stage are pure and dominate a warm
job: the Table-I / eq. (5) WCET analysis
(:func:`repro.wcet.reuse.analyze_task_wcets`) and the eq. (4)
idle-feasible enumeration
(:func:`repro.sched.feasibility.enumerate_idle_feasible`).  Each keeps
one process-wide :class:`Memo` *inside* the function, so every caller
— case-study builds, synthesized suites, the multicore per-block
spaces, the experiments and the server's warm jobs — shares its hits.
An open evaluation store keeps a third one of decoded evaluations
(:attr:`repro.sched.engine.store.PersistentCache.decoded`).

A memo holds at most ``maxsize`` entries and evicts the least recently
used one past that.  Its counters are API: :meth:`Memo.get_stats`
reports hits, misses and size.  Keys must be hashable and must cover
every input of the memoized function; values are shared between
callers, so memoize only immutable values.  A computed ``None`` means
"nothing to keep" (a row absent from a store): it is returned but not
memoized, so the key is computed again next time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

V = TypeVar("V")


class Memo(Generic[V]):
    """A bounded LRU map from hashable keys to computed values.

    Thread-safe: lookups, inserts and counters run under one lock;
    ``compute`` runs outside it, so two threads missing on one key may
    both compute it (the values are equal — the memoized functions are
    pure — and the first insert wins).
    """

    def __init__(self, name: str, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"memo {name!r}: maxsize must be >= 1, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, V] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, compute: Callable[[], V]) -> V:
        """The value memoized under ``key``, computing it on a miss (a
        computed ``None`` is not memoized)."""
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.misses += 1
        value = compute()
        if value is None:
            return value
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return value

    def get_stats(self) -> dict[str, int]:
        """Hit/miss counters and current/maximum size."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


class ByIdentity:
    """A key part that hashes and compares by object identity.

    Holding the object keeps it alive, so its ``id`` is never reused
    while a memo entry refers to it.  Used for plugin instances (WCET
    models): re-registering a model under the same name yields a new
    instance, hence a new key.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: object) -> None:
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ByIdentity) and other.obj is self.obj
