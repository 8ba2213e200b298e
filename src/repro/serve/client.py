"""Thin stdlib client for the search service.

:class:`ServeClient` speaks the server's whole API over
``http.client`` — submit a :class:`~repro.serve.jobs.JobSpec`, inspect
:class:`~repro.serve.jobs.JobRecord`\\ s, follow the NDJSON event
stream as typed wire messages, and fetch finished
:class:`~repro.study.RunReport`\\ s.  Server-side errors re-raise as
their original exception types (the error body carries the class
name), so an unknown strategy submitted over HTTP fails with the same
:class:`~repro.errors.ConfigurationError` message a direct CLI run
produces.
"""

from __future__ import annotations

import json
from typing import Iterator, Union
from urllib.parse import urlsplit

from ..errors import ConfigurationError, ReproError, ServeError
from ..study.report import RunReport
from .jobs import JobRecord, JobSpec
from .service import (
    JobRecordGoneError,
    QueueFullError,
    ServerDrainingError,
    UnknownJobError,
)
from .wire import TERMINAL_STATES, EventMessage, StatusMessage, decode_message

#: Server error kinds -> the local exception type to re-raise.
_ERROR_TYPES: dict[str, type[ReproError]] = {
    "ConfigurationError": ConfigurationError,
    "UnknownJobError": UnknownJobError,
    "JobRecordGoneError": JobRecordGoneError,
    "QueueFullError": QueueFullError,
    "ServerDrainingError": ServerDrainingError,
}


class ServeClient:
    """A client bound to one server base URL (plain http only)."""

    def __init__(
        self,
        base_url: str = "http://127.0.0.1:8765",
        timeout: float = 60.0,
    ) -> None:
        parts = urlsplit(
            base_url if "//" in base_url else f"//{base_url}"
        )
        if parts.scheme not in ("", "http"):
            raise ConfigurationError(
                f"unsupported scheme {parts.scheme!r} in {base_url!r}; "
                "the serve client speaks plain http"
            )
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 8765
        self.timeout = timeout

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The server's ``/healthz`` payload."""
        return self._request("GET", "/healthz")

    def submit(self, spec: JobSpec) -> JobRecord:
        """Submit a job; the server validates the spec (an unknown
        strategy raises :class:`~repro.errors.ConfigurationError`
        naming the registered ones, like the CLI)."""
        return JobRecord.from_dict(
            self._request("POST", "/jobs", payload=spec.to_dict())
        )

    def jobs(self) -> list[JobRecord]:
        """Every job's summary record (no reports)."""
        listing = self._request("GET", "/jobs")
        return [JobRecord.from_dict(data) for data in listing["jobs"]]

    def job(self, job_id: str) -> JobRecord:
        """One job's full record, reports included."""
        return JobRecord.from_dict(self._request("GET", f"/jobs/{job_id}"))

    def watch(
        self, job_id: str
    ) -> Iterator[Union[EventMessage, StatusMessage]]:
        """Follow a job's event stream live as typed wire messages.

        Replays the job's history first (so watching a finished job
        yields its terminal status immediately), then streams until a
        terminal :class:`~repro.serve.wire.StatusMessage` arrives.
        """
        import http.client

        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            try:
                conn.request(
                    "GET",
                    f"/jobs/{job_id}/events",
                    headers={"Accept": "application/x-ndjson"},
                )
                response = conn.getresponse()
            except OSError as exc:
                raise self._unreachable(exc) from exc
            if response.status >= 400:
                raise self._error(response.status, response.read())
            while True:
                line = response.readline()
                if not line:
                    return  # server closed the stream (e.g. draining)
                line = line.strip()
                if not line:
                    continue
                message = decode_message(json.loads(line))
                yield message
                if (
                    isinstance(message, StatusMessage)
                    and message.state in TERMINAL_STATES
                ):
                    return
        finally:
            conn.close()

    def wait(self, job_id: str) -> JobRecord:
        """Block until the job reaches a terminal state; its record."""
        for _message in self.watch(job_id):
            pass
        record = self.job(job_id)
        if record.state not in TERMINAL_STATES:
            raise ServeError(
                f"stream for {job_id} ended before the job finished "
                f"(server draining?); last state: {record.state}"
            )
        return record

    def reports(self, job_id: str) -> list[RunReport]:
        """A finished job's reports as typed
        :class:`~repro.study.RunReport` objects."""
        record = self.job(job_id)
        if record.state != "done":
            detail = f": {record.error}" if record.error else ""
            raise ServeError(f"job {job_id} is {record.state}{detail}")
        return [RunReport.from_dict(data) for data in record.reports or []]

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict:
        import http.client

        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = (
                json.dumps(payload, sort_keys=True).encode()
                if payload is not None
                else None
            )
            headers = (
                {"Content-Type": "application/json"} if body is not None else {}
            )
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except OSError as exc:
                raise self._unreachable(exc) from exc
            if response.status >= 400:
                raise self._error(response.status, data)
            result = json.loads(data)
            if not isinstance(result, dict):
                raise ServeError(
                    f"unexpected {method} {path} response: "
                    f"expected a JSON object, got {type(result).__name__}"
                )
            return result
        finally:
            conn.close()

    def _unreachable(self, exc: OSError) -> ServeError:
        return ServeError(
            f"cannot reach repro serve at {self.base_url}: {exc} "
            "(is the server running?)"
        )

    def _error(self, status: int, data: bytes) -> ReproError:
        try:
            payload = json.loads(data)
        except ValueError:
            payload = {}
        if not isinstance(payload, dict):
            payload = {}
        message = payload.get("error") or f"server returned HTTP {status}"
        error_type = _ERROR_TYPES.get(str(payload.get("kind")), ServeError)
        return error_type(message)
