"""Disk-backed evaluation store (SQLite, stdlib only).

One SQLite file per cache directory holds every evaluation ever
computed, keyed by the problem+schedule digest of
:mod:`repro.sched.engine.keys`.  SQLite gives atomic writes, safe
concurrent readers and O(1) lookups without inventing a file-per-entry
layout; payloads are the JSON documents of
:mod:`repro.sched.engine.serialize`.

The store runs in WAL mode with a busy timeout, so several engine
processes (e.g. two ``python -m repro batch`` runs pointed at the same
``--cache-dir``) can read and write the same cache concurrently: WAL
lets readers proceed during a write, and writers that do collide wait
out the lock instead of dying with "database is locked".

Within one process there is **one open store per cache directory**:
:meth:`PersistentCache.shared` hands every engine on a directory the
same instance, reference-counted, and the last :meth:`~PersistentCache.release`
closes it — so a long-lived ``repro serve`` keeps one SQLite connection,
not one per job.  The store is *thread-safe*: the connection is opened
with ``check_same_thread=False`` and every operation is serialized
behind an internal lock, so the server's job threads all warm-start
from (and feed) the same evaluation cache.

An open store also keeps a bounded memo of **decoded** evaluations
(:attr:`PersistentCache.decoded`, keyed by evaluation key), filled only
by a successful decode of a row, so a warm job reads and decodes
nothing another job already did.  Rows are content-addressed — a key's
payload never changes — so a memo hit is what the row would decode to.
The memo lives and dies with the open store: a row corrupted on disk
while nobody holds the store is detected (and recomputed) by the next
holder.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path

from ...errors import ConfigurationError
from ...memo import Memo

#: File name inside the cache directory.
DB_FILENAME = "evaluations.sqlite"

#: How long a writer waits on a locked database before giving up (s).
BUSY_TIMEOUT_S = 10.0

#: Decoded evaluations an open store keeps (a case-study space is 231
#: schedules; a decoded case-study evaluation takes ~3 KiB).
DECODED_MEMO_SIZE = 1024

#: The open shared stores of this process, by resolved cache directory.
_SHARED: dict[Path, "PersistentCache"] = {}
_SHARED_LOCK = threading.Lock()


class PersistentCache:
    """A persistent key -> JSON-payload store for schedule evaluations.

    Constructing one opens a private connection; engines go through
    :meth:`shared` instead.  ``n_reads`` counts the rows read from
    SQLite (:meth:`get` calls).
    """

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.n_reads = 0
        #: Decoded evaluations by evaluation key (see the module notes).
        self.decoded: Memo = Memo("decoded evaluations", DECODED_MEMO_SIZE)
        self._holders = 0
        self._shared_as: Path | None = None
        self._pid = os.getpid()
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ConfigurationError(
                f"cache dir {str(self.cache_dir)!r} collides with an "
                "existing file; pass a directory path"
            ) from exc
        self.path = self.cache_dir / DB_FILENAME
        # The lock (not SQLite's per-thread check) is what serializes
        # cross-thread use: engines on serve's job threads may share one
        # store object, and each operation below is a lock-held unit.
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = sqlite3.connect(
            str(self.path), timeout=BUSY_TIMEOUT_S, check_same_thread=False
        )
        try:
            # WAL survives in the database file, but setting it is
            # idempotent and some filesystems silently refuse it — never
            # assert the mode.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS evaluations ("
                "  key TEXT PRIMARY KEY,"
                "  payload TEXT NOT NULL,"
                "  created REAL NOT NULL"
                ")"
            )
            self._conn.commit()
        except sqlite3.DatabaseError as exc:
            self.close()
            if isinstance(exc, sqlite3.OperationalError):
                raise  # e.g. locked: a real database, just busy
            raise ConfigurationError(
                f"{str(self.path)!r} is not an evaluation cache ({exc}); "
                "remove it or pass another cache dir"
            ) from exc

    @classmethod
    def shared(cls, cache_dir: str | Path) -> "PersistentCache":
        """The process's open store of ``cache_dir``, with one more holder.

        The first holder opens it; every holder calls :meth:`release`
        once.  A store inherited through ``fork`` is never shared: its
        connection belongs to the parent.
        """
        key = Path(cache_dir).resolve()
        with _SHARED_LOCK:
            store = _SHARED.get(key)
            if store is None or store.closed or store._pid != os.getpid():
                store = _SHARED[key] = cls(cache_dir)
                store._shared_as = key
            store._holders += 1
        return store

    def release(self) -> None:
        """Drop one holder; the last one closes the store (a private
        store closes at once)."""
        with _SHARED_LOCK:
            self._holders -= 1
            if self._holders > 0:
                return
            if self._shared_as is not None and _SHARED.get(self._shared_as) is self:
                del _SHARED[self._shared_as]
        self.close()

    def _connection(self) -> sqlite3.Connection:
        """The live connection, or a clear error after :meth:`close`."""
        if self._conn is None:
            raise ConfigurationError(
                f"persistent cache {str(self.path)!r} is closed; "
                "create a new PersistentCache (or SearchEngine) to keep using it"
            )
        return self._conn

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._conn is None

    def get(self, key: str) -> dict | None:
        """The stored payload for ``key``, or ``None`` on a miss."""
        with self._lock:
            self.n_reads += 1
            row = self._connection().execute(
                "SELECT payload FROM evaluations WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        return json.loads(row[0])

    def put(self, key: str, payload: dict) -> None:
        """Store (or overwrite) the payload for ``key``."""
        with self._lock:
            conn = self._connection()
            conn.execute(
                "INSERT OR REPLACE INTO evaluations (key, payload, created) "
                "VALUES (?, ?, ?)",
                (key, json.dumps(payload), time.time()),
            )
            conn.commit()

    def put_many(self, entries: list[tuple[str, dict]]) -> None:
        """Store a batch of (key, payload) pairs in one transaction."""
        with self._lock:
            conn = self._connection()
            conn.executemany(
                "INSERT OR REPLACE INTO evaluations (key, payload, created) "
                "VALUES (?, ?, ?)",
                [
                    (key, json.dumps(payload), time.time())
                    for key, payload in entries
                ],
            )
            conn.commit()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = self._connection().execute(
                "SELECT 1 FROM evaluations WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def __len__(self) -> int:
        with self._lock:
            return int(
                self._connection().execute(
                    "SELECT COUNT(*) FROM evaluations"
                ).fetchone()[0]
            )

    def keys(self) -> list[str]:
        """All stored keys (diagnostics / tests)."""
        with self._lock:
            rows = self._connection().execute(
                "SELECT key FROM evaluations"
            ).fetchall()
        return [row[0] for row in rows]

    def clear(self) -> None:
        """Drop every entry (keeps the file)."""
        with self._lock:
            conn = self._connection()
            conn.execute("DELETE FROM evaluations")
            conn.commit()
            self.decoded.clear()

    def close(self) -> None:
        """Close the underlying connection and drop the decoded memo
        (idempotent)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
            self.decoded.clear()

    def __enter__(self) -> "PersistentCache":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
