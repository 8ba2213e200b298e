"""The asyncio job queue behind the search service.

A :class:`JobService` owns the server's whole job lifecycle: submitted
:class:`~repro.serve.jobs.JobSpec`\\ s become persisted
:class:`~repro.serve.jobs.JobRecord`\\ s, an asyncio queue drains them
onto a thread executor where the existing :class:`~repro.study.Study`
machinery runs them, and every study event is fanned out live to
subscribers as the typed wire messages of :mod:`repro.serve.wire`.

Two properties carry the whole design:

* **One shared warm cache.**  Every job runs with the same persistent
  evaluation cache directory and the same run directory, so each job
  warm-starts from every prior job's evaluations and a resubmitted job
  resumes its persisted report byte-identically — the resume semantics
  are exactly those of the CLI's ``--run-dir``/``--cache-dir`` flags.
  The service holds the directory's one open store
  (:meth:`~repro.sched.engine.store.PersistentCache.shared`) from
  :meth:`JobService.start` to :meth:`JobService.drain`, so jobs share
  its SQLite connection and its memo of decoded evaluations.
* **Identical jobs collapse.**  Jobs with the same
  :meth:`~repro.serve.jobs.JobSpec.digest` are serialized behind a
  per-digest lock: the first computes and persists, the rest resume
  the persisted report from disk, so N concurrent identical
  submissions produce N byte-identical reports and one search.

The ledger (``run_dir/jobs/*.json``) is rewritten at every state
transition, so a drained or killed server restores it on startup:
finished jobs keep their reports, queued jobs re-enqueue, and jobs
caught mid-run re-queue (their completed scenarios resume from disk).

Memory stays bounded however many jobs a server runs: full records and
message histories are kept for in-flight jobs and the
:data:`RETAINED_FINISHED_JOBS` most recently finished ones.  An older
finished job keeps its summary; its full record is read back from its
ledger file, and its event replay is the single terminal status line
(exactly what a restarted server replays).
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import AsyncIterator, Optional

from ..errors import ConfigurationError, ReproError, ServeError
from ..experiments.profiles import design_options_for_profile
from ..sched.engine import EngineOptions, PersistentCache
from ..study import Study
from ..study.events import StudyEvent
from ..study.report import write_artifact
from .jobs import JobRecord, JobSpec
from .wire import TERMINAL_STATES, EventMessage, StatusMessage

#: Finished jobs whose full record and message history stay in memory.
RETAINED_FINISHED_JOBS = 16


class QueueFullError(ServeError):
    """The bounded job queue is at capacity (HTTP 429)."""


class UnknownJobError(ServeError):
    """No job with the requested id exists (HTTP 404)."""


class ServerDrainingError(ServeError):
    """The server is shutting down and rejects new jobs (HTTP 503)."""


class JobRecordGoneError(ServeError):
    """A finished job's full record is no longer in memory and its
    ledger file is missing or unreadable (HTTP 410)."""


class JobService:
    """The asyncio job queue with a shared warm cache.

    Parameters
    ----------
    run_dir:
        Service state root: the job ledger (``jobs/``), the shared
        study run directory (``runs/``) and — unless ``cache_dir``
        points elsewhere — the shared evaluation cache (``cache/``).
    cache_dir:
        Shared persistent evaluation cache for every job (default:
        ``run_dir/cache``).
    max_jobs:
        Jobs executing concurrently (executor threads / queue workers).
    engine_workers:
        Evaluation worker processes per job (0/1 = serial, like the
        CLI's ``--workers``).
    queue_size:
        Maximum *queued* (not yet running) jobs before submissions
        are rejected with :class:`QueueFullError`.
    job_timeout:
        Per-job wall-clock budget in seconds (``None`` = unlimited);
        an overrunning job is marked failed.
    """

    def __init__(
        self,
        run_dir: str | Path,
        cache_dir: str | Path | None = None,
        max_jobs: int = 1,
        engine_workers: int = 0,
        queue_size: int = 64,
        job_timeout: float | None = None,
    ) -> None:
        if max_jobs < 1:
            raise ConfigurationError(f"max_jobs must be >= 1, got {max_jobs}")
        if queue_size < 0:
            raise ConfigurationError(
                f"queue_size must be >= 0, got {queue_size}"
            )
        if job_timeout is not None and job_timeout <= 0:
            raise ConfigurationError(
                f"job_timeout must be positive, got {job_timeout}"
            )
        self.run_dir = Path(run_dir)
        self.cache_dir = (
            Path(cache_dir) if cache_dir is not None else self.run_dir / "cache"
        )
        self.jobs_dir = self.run_dir / "jobs"
        self.runs_dir = self.run_dir / "runs"
        self.max_jobs = max_jobs
        self.engine_workers = engine_workers
        self.queue_size = queue_size
        self.job_timeout = job_timeout
        # Full records of in-flight and retained finished jobs;
        # summaries (no reports) of the older finished ones.
        self._records: dict[str, JobRecord] = {}
        self._retained: OrderedDict[str, None] = OrderedDict()
        self._history: dict[str, list[dict]] = {}
        self._subscribers: dict[str, list[asyncio.Queue[dict]]] = {}
        self._seq: dict[str, int] = {}
        self._spec_locks: dict[str, asyncio.Lock] = {}
        self._counter = 1
        self._queue: asyncio.Queue[Optional[str]] = asyncio.Queue()
        self._workers: list[asyncio.Task[None]] = []
        self._executor: ThreadPoolExecutor | None = None
        self._draining = False
        #: The shared evaluation store while the service runs.
        self.store: PersistentCache | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Restore the persisted ledger and start the queue workers."""
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self.store = PersistentCache.shared(self.cache_dir)
        self._restore()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_jobs, thread_name_prefix="repro-serve-job"
        )
        self._workers = [
            asyncio.create_task(self._worker()) for _ in range(self.max_jobs)
        ]

    def _restore(self) -> None:
        for path in sorted(self.jobs_dir.glob("job-*.json")):
            try:
                record = JobRecord.from_json(path.read_text())
            except ConfigurationError:
                continue  # foreign or corrupt ledger entry: skip, don't die
            if record.state == "running":
                # The previous server died mid-run; requeue — completed
                # scenarios resume from the shared run dir.
                record.state = "queued"
                record.started_at = None
                self._persist(record)
            if record.state in TERMINAL_STATES:
                record.reports = None  # read back from the ledger on demand
            self._records[record.id] = record
            prefix, _, number = record.id.partition("-")
            if prefix == "job" and number.isdigit():
                self._counter = max(self._counter, int(number) + 1)
            # Seed the replay history so late subscribers of restored
            # jobs still see a (terminal, for done/failed) status line.
            message = StatusMessage(
                job=record.id,
                seq=self._next_seq(record.id),
                state=record.state,
                error=record.error,
                at=record.finished_at or record.submitted_at,
            )
            self._history[record.id] = [message.to_dict()]
        for record in sorted(self._records.values(), key=lambda r: r.id):
            if record.state == "queued":
                self._queue.put_nowait(record.id)

    async def drain(self) -> None:
        """Graceful shutdown: in-flight jobs finish, queued jobs stay
        persisted (a restarted server re-enqueues them), new
        submissions are rejected."""
        self._draining = True
        for _ in self._workers:
            self._queue.put_nowait(None)
        if self._workers:
            await asyncio.gather(*self._workers)
        self._workers = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self.store is not None:
            self.store.release()
            self.store = None

    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` has begun."""
        return self._draining

    # ------------------------------------------------------------------
    # Submission and inspection (called from the event-loop thread)
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobRecord:
        """Validate, persist and enqueue one job; returns its record.

        Raises :class:`~repro.errors.ConfigurationError` on an invalid
        spec (unknown strategy/model names included),
        :class:`QueueFullError` past the queue bound and
        :class:`ServerDrainingError` during shutdown.
        """
        if self._draining:
            raise ServerDrainingError(
                "server is draining; not accepting new jobs"
            )
        spec.validate()
        queued = sum(
            1 for record in self._records.values() if record.state == "queued"
        )
        if queued >= self.queue_size:
            raise QueueFullError(
                f"job queue is full ({queued} queued, "
                f"limit {self.queue_size}); retry later"
            )
        job_id = f"job-{self._counter:06d}"
        self._counter += 1
        record = JobRecord(
            id=job_id, spec=spec, state="queued", submitted_at=time.time()
        )
        self._records[job_id] = record
        self._persist(record)
        self._publish_status(record)
        self._queue.put_nowait(job_id)
        return record

    def record(self, job_id: str) -> JobRecord:
        """The full ledger entry for ``job_id``, reports included
        (:class:`UnknownJobError` otherwise).

        A finished job outside the retention window is read back from
        its ledger file; :class:`JobRecordGoneError` if that file is
        missing or corrupt.
        """
        record = self.summary(job_id)
        if record.state in TERMINAL_STATES and job_id not in self._retained:
            return self._load(job_id)
        return record

    def summary(self, job_id: str) -> JobRecord:
        """The in-memory entry for ``job_id`` (:class:`UnknownJobError`
        otherwise); a finished job outside the retention window carries
        no reports."""
        try:
            return self._records[job_id]
        except KeyError:
            raise UnknownJobError(
                f"unknown job {job_id!r} ({len(self._records)} known)"
            ) from None

    def records(self) -> list[JobRecord]:
        """Every ledger entry, in submission order (finished jobs
        outside the retention window carry no reports)."""
        return [self._records[job_id] for job_id in sorted(self._records)]

    async def subscribe(self, job_id: str) -> AsyncIterator[dict]:
        """Replay a job's message history, then follow it live.

        Yields wire-message dicts (see :mod:`repro.serve.wire`) and
        ends after a terminal status message.  History snapshot and
        live registration happen in one synchronous block, so no
        message can fall between replay and live delivery.
        """
        record = self.summary(job_id)
        history = list(self._history.get(job_id, []))
        queue: asyncio.Queue[dict] | None = None
        if record.state not in TERMINAL_STATES:
            queue = asyncio.Queue()
            self._subscribers.setdefault(job_id, []).append(queue)
        try:
            for data in history:
                yield data
            while queue is not None:
                data = await queue.get()
                yield data
                if (
                    data.get("type") == "status"
                    and data.get("state") in TERMINAL_STATES
                ):
                    break
        finally:
            if queue is not None:
                self._subscribers.get(job_id, [queue]).remove(queue)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ledger_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _persist(self, record: JobRecord) -> None:
        write_artifact(self._ledger_path(record.id), record.to_json() + "\n")

    def _load(self, job_id: str) -> JobRecord:
        """A finished job's full record, read back from its ledger file."""
        path = self._ledger_path(job_id)
        try:
            record = JobRecord.from_json(path.read_text())
        except (OSError, UnicodeDecodeError, ConfigurationError) as exc:
            raise JobRecordGoneError(
                f"job {job_id!r} finished, but its full record cannot be "
                f"read back from {path}: {exc}"
            ) from exc
        if record.id != job_id:
            raise JobRecordGoneError(
                f"ledger file {path} holds job {record.id!r}, not {job_id!r}"
            )
        return record

    def _retire(self, job_id: str) -> None:
        """Enter a just-finished job into the retention window; shrink
        the job that falls out of it to its summary and terminal line."""
        self._retained[job_id] = None
        while len(self._retained) > RETAINED_FINISHED_JOBS:
            old, _ = self._retained.popitem(last=False)
            self._records[old] = replace(self._records[old], reports=None)
            self._history[old] = [
                next(m for m in reversed(self._history[old]) if m["type"] == "status")
            ]
            self._seq.pop(old, None)

    def _next_seq(self, job_id: str) -> int:
        seq = self._seq.get(job_id, 0)
        self._seq[job_id] = seq + 1
        return seq

    def _publish(self, job_id: str, data: dict) -> None:
        self._history.setdefault(job_id, []).append(data)
        for queue in self._subscribers.get(job_id, []):
            queue.put_nowait(data)

    def _publish_status(self, record: JobRecord) -> None:
        message = StatusMessage(
            job=record.id,
            seq=self._next_seq(record.id),
            state=record.state,
            error=record.error,
            at=time.time(),
        )
        self._publish(record.id, message.to_dict())

    def _publish_event(self, job_id: str, event: StudyEvent) -> None:
        if self._records[job_id].state in TERMINAL_STATES:
            return  # a timed-out job's thread runs on; its stream has ended
        message = EventMessage(
            job=job_id, seq=self._next_seq(job_id), event=event
        )
        self._publish(job_id, message.to_dict())

    async def _worker(self) -> None:
        while True:
            job_id = await self._queue.get()
            if job_id is None:
                return
            if self._draining:
                continue  # leave it queued on disk for the next server
            await self._execute(job_id)

    async def _execute(self, job_id: str) -> None:
        record = self._records[job_id]
        # Identical specs serialize: the first computes, later ones
        # resume the persisted report byte-identically from disk.
        lock = self._spec_locks.setdefault(
            record.spec.digest(), asyncio.Lock()
        )
        async with lock:
            await self._run_job(record)

    async def _run_job(self, record: JobRecord) -> None:
        record.state = "running"
        record.started_at = time.time()
        self._persist(record)
        self._publish_status(record)
        loop = asyncio.get_running_loop()

        def forward(event: StudyEvent) -> None:
            # Runs on the executor thread; hop to the loop so sequence
            # numbers and subscriber fan-out stay single-threaded.
            try:
                loop.call_soon_threadsafe(
                    self._publish_event, record.id, event
                )
            except RuntimeError:
                pass  # loop already closed (shutdown); drop the event

        engine_options = EngineOptions(
            workers=self.engine_workers,
            cache_dir=str(self.cache_dir),
        )
        try:
            # The design budget follows REPRO_PROFILE like the CLI's, so
            # served and direct runs share run-dir artifacts.
            design = design_options_for_profile()
            study = Study.from_spec(record.spec, design, engine_options, self.runs_dir)
            reports = await asyncio.wait_for(
                loop.run_in_executor(
                    self._executor,
                    partial(
                        study.run, resume=record.spec.resume, on_event=forward
                    ),
                ),
                timeout=self.job_timeout,
            )
        except asyncio.TimeoutError:
            record.state = "failed"
            record.error = (
                f"job exceeded the {self.job_timeout:g} s timeout"
                if self.job_timeout is not None
                else "job timed out"
            )
        except ReproError as exc:
            record.state = "failed"
            record.error = str(exc)
        except Exception as exc:  # lint: allow-broad-except(a failing job must not take down the server; the error surfaces in the job record)
            record.state = "failed"
            record.error = f"{type(exc).__name__}: {exc}"
        else:
            record.state = "done"
            record.reports = [report.to_dict() for report in reports]
        record.finished_at = time.time()
        self._persist(record)
        self._publish_status(record)
        self._retire(record.id)
