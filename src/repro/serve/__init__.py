"""Search-as-a-service: the job server behind ``python -m repro serve``.

The package turns the one-shot CLI searches into a long-lived HTTP
service built entirely on the standard library (``asyncio`` + ``http``,
zero new runtime dependencies):

* :mod:`~repro.serve.jobs` — the :class:`JobSpec` / :class:`JobRecord`
  job model (JSON round-tripping with schema versions, validated
  against the live strategy/WCET-model registries);
* :mod:`~repro.serve.service` — the :class:`JobService` asyncio queue
  that drains jobs into the existing :class:`~repro.study.Study`
  machinery on an executor, with **one shared persistent evaluation
  cache and run directory across all jobs** so every job warm-starts
  from every prior job;
* :mod:`~repro.serve.wire` — the typed JSON wire encoding the event
  stream uses (NDJSON lines, or SSE frames for
  ``Accept: text/event-stream``);
* :mod:`~repro.serve.server` — the HTTP front end
  (``POST /jobs``, ``GET /jobs/{id}``, ``GET /jobs/{id}/events``);
* :mod:`~repro.serve.client` — a thin stdlib client
  (``python -m repro submit/status/watch`` build on it);
* :mod:`~repro.serve.testing` — an in-process server harness for
  tests and benchmarks.
"""

from __future__ import annotations

from .client import ServeClient
from .jobs import JobRecord, JobSpec
from .server import ReproServer, run_server
from .service import (
    JobRecordGoneError,
    JobService,
    QueueFullError,
    ServerDrainingError,
    UnknownJobError,
)

__all__ = [
    "JobRecord",
    "JobRecordGoneError",
    "JobSpec",
    "JobService",
    "QueueFullError",
    "ReproServer",
    "ServeClient",
    "ServerDrainingError",
    "UnknownJobError",
    "run_server",
]
