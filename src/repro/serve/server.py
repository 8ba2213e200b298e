"""The stdlib HTTP front end of the search service.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, no chunked encoding, every response ``Connection: close``
(streams end at EOF, which ``http.client`` and ``curl`` both handle
natively).  Routes:

========================  ==================================================
``GET  /healthz``          liveness + job count + draining flag
``POST /jobs``             submit a :class:`~repro.serve.jobs.JobSpec`
                           (JSON body) -> 202 with the new job record
``GET  /jobs``             all job records (summaries, no reports)
``GET  /jobs/{id}``        one full record, reports included
``GET  /jobs/{id}/events`` live wire-message stream: NDJSON lines, or
                           SSE frames with ``Accept: text/event-stream``
========================  ==================================================

Errors map onto the service's exception types: 400
:class:`~repro.errors.ConfigurationError` (with the registry-naming
message, e.g. an unknown strategy), 404
:class:`~repro.serve.service.UnknownJobError`, 410
:class:`~repro.serve.service.JobRecordGoneError` (a finished job whose
ledger file is missing or corrupt), 429
:class:`~repro.serve.service.QueueFullError`, 503
:class:`~repro.serve.service.ServerDrainingError`.  Error bodies are
``{"error": message, "kind": ExceptionClassName}`` so the client can
re-raise the original type.

Reading a request is bounded by fixed limits: a malformed or negative
``Content-Length`` is a 400, a body above :data:`_MAX_BODY_BYTES` a 413,
more than :data:`_MAX_HEADERS` header lines or a line above
:data:`_MAX_LINE_BYTES` a 431, and a client that has not sent its whole
request within :data:`_READ_TIMEOUT_S` is disconnected.

:func:`run_server` is the CLI entry point: it installs
SIGINT/SIGTERM handlers that trigger a graceful drain (in-flight jobs
finish, the queue persists, a restarted server resumes from disk).
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Optional

from ..errors import ConfigurationError, ReproError
from .jobs import JobSpec
from .service import (
    JobRecordGoneError,
    JobService,
    QueueFullError,
    ServerDrainingError,
    UnknownJobError,
)
from .wire import format_ndjson, format_sse

_STATUS_PHRASES = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    410: "Gone",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Exceptions a dropped client surfaces as — never the server's fault.
_CLIENT_GONE = (
    ConnectionResetError,
    BrokenPipeError,
    asyncio.IncompleteReadError,
)

#: Longest request line or header line, in bytes (the stream limit).
_MAX_LINE_BYTES = 8192
#: Most header lines one request may carry.
_MAX_HEADERS = 100
#: Largest request body; a job spec is a few hundred bytes.
_MAX_BODY_BYTES = 1 << 20
#: Seconds a client has to send its whole request (head and body).
_READ_TIMEOUT_S = 30.0


class _RequestError(Exception):
    """A malformed or oversized request, answered with ``status``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader, status: int, what: str) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # the line overran the stream limit
        raise _RequestError(
            status, f"{what} longer than {_MAX_LINE_BYTES} bytes"
        ) from None


def _content_length(value: str | None) -> int:
    """The declared body length: ASCII digits only, at most the body cap."""
    if value is None:
        return 0
    if not (value.isascii() and value.isdigit()):
        raise _RequestError(400, f"invalid Content-Length {value!r}")
    length = int(value)
    if length > _MAX_BODY_BYTES:
        raise _RequestError(
            413, f"request body of {length} bytes exceeds {_MAX_BODY_BYTES}"
        )
    return length


def _error_status(exc: BaseException) -> int:
    """The HTTP status one service exception maps onto."""
    if isinstance(exc, UnknownJobError):
        return 404
    if isinstance(exc, JobRecordGoneError):
        return 410
    if isinstance(exc, QueueFullError):
        return 429
    if isinstance(exc, ServerDrainingError):
        return 503
    if isinstance(exc, ConfigurationError):
        return 400
    return 500


class ReproServer:
    """The asyncio HTTP server wrapping one :class:`JobService`.

    ``port=0`` binds an ephemeral port; :attr:`port` holds the bound
    one after :meth:`start`.
    """

    def __init__(
        self,
        service: JobService,
        host: str = "127.0.0.1",
        port: int = 8765,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.Server] = None

    @property
    def url(self) -> str:
        """The server's base URL (valid after :meth:`start`)."""
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        """Start the service workers and bind the listening socket."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=_MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Stop accepting connections, then drain the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.drain()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), _READ_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                return  # too slow to send its request: hang up
            if request is not None:
                method, path, headers, body = request
                await self._route(method, path, headers, body, writer)
        except _CLIENT_GONE:
            pass  # client went away mid-request or mid-stream
        except _RequestError as exc:
            await self._send_error(writer, exc.status, str(exc), "ServeError")
        except Exception as exc:  # lint: allow-broad-except(one bad request must not kill the accept loop; reported as a 500)
            await self._send_error(writer, 500, str(exc), type(exc).__name__)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except _CLIENT_GONE:
                pass

    async def _send_error(
        self, writer: asyncio.StreamWriter, status: int, message: str, kind: str
    ) -> None:
        try:
            await self._send_json(
                writer, status, {"error": message, "kind": kind}
            )
        except _CLIENT_GONE:
            pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        request_line = await _read_line(reader, 400, "request line")
        if not request_line:
            return None  # closed before sending a request: just hang up
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _RequestError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        n_lines = 0
        while True:
            line = await _read_line(reader, 431, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            n_lines += 1
            if n_lines > _MAX_HEADERS:
                raise _RequestError(431, f"more than {_MAX_HEADERS} header lines")
            name, colon, value = line.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            if not colon or not name:
                raise _RequestError(400, "malformed header line")
            if name == "content-length" and headers.get(name, value) != value:
                raise _RequestError(400, "conflicting Content-Length headers")
            headers[name] = value
        length = _content_length(headers.get("content-length"))
        body = await reader.readexactly(length) if length > 0 else b""
        path = target.split("?", 1)[0]
        return method, path, headers, body

    async def _route(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            if path == "/healthz" and method == "GET":
                await self._send_json(
                    writer,
                    200,
                    {
                        "status": "ok",
                        "jobs": len(self.service.records()),
                        "draining": self.service.draining,
                    },
                )
            elif path == "/jobs" and method == "POST":
                spec = JobSpec.from_dict(self._parse_body(body))
                record = self.service.submit(spec)
                await self._send_json(writer, 202, record.to_dict())
            elif path == "/jobs" and method == "GET":
                await self._send_json(
                    writer,
                    200,
                    {
                        "jobs": [
                            record.to_dict(include_reports=False)
                            for record in self.service.records()
                        ]
                    },
                )
            elif (
                path.startswith("/jobs/")
                and path.endswith("/events")
                and method == "GET"
            ):
                job_id = path[len("/jobs/") : -len("/events")].strip("/")
                await self._stream_events(writer, job_id, headers)
            elif path.startswith("/jobs/") and method == "GET":
                record = self.service.record(path[len("/jobs/") :])
                await self._send_json(writer, 200, record.to_dict())
            else:
                status = 405 if path in ("/jobs", "/healthz") else 404
                await self._send_json(
                    writer,
                    status,
                    {
                        "error": f"no route for {method} {path}",
                        "kind": "ServeError",
                    },
                )
        except ReproError as exc:
            await self._send_json(
                writer,
                _error_status(exc),
                {"error": str(exc), "kind": type(exc).__name__},
            )

    async def _stream_events(
        self,
        writer: asyncio.StreamWriter,
        job_id: str,
        headers: dict[str, str],
    ) -> None:
        self.service.summary(job_id)  # 404 *before* any stream bytes
        sse = "text/event-stream" in headers.get("accept", "")
        content_type = (
            "text/event-stream" if sse else "application/x-ndjson"
        )
        writer.write(self._head(200, content_type))
        await writer.drain()
        async for data in self.service.subscribe(job_id):
            chunk = format_sse(data) if sse else format_ndjson(data)
            writer.write(chunk.encode())
            await writer.drain()

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    def _head(
        self, status: int, content_type: str, length: int | None = None
    ) -> bytes:
        lines = [
            f"HTTP/1.1 {status} {_STATUS_PHRASES.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        if length is not None:
            lines.append(f"Content-Length: {length}")
        if content_type == "text/event-stream":
            lines.append("Cache-Control: no-store")
        return ("\r\n".join(lines) + "\r\n\r\n").encode()

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        writer.write(
            self._head(status, "application/json", len(body)) + body
        )
        await writer.drain()

    def _parse_body(self, body: bytes) -> dict:
        if not body:
            raise ConfigurationError(
                "request body must be a JSON job spec object"
            )
        try:
            data = json.loads(body.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"invalid JSON body: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"job spec must be a JSON object, got {type(data).__name__}"
            )
        return data


async def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    run_dir: str = ".repro-serve",
    cache_dir: str | None = None,
    max_jobs: int = 1,
    engine_workers: int = 0,
    queue_size: int = 64,
    job_timeout: float | None = None,
) -> None:
    """Run the service until SIGINT/SIGTERM, then drain gracefully.

    The CLI entry point (``python -m repro serve``).  In-flight jobs
    finish before the process exits; queued jobs stay persisted under
    the run directory and re-enqueue on the next start.
    """
    service = JobService(
        run_dir,
        cache_dir=cache_dir,
        max_jobs=max_jobs,
        engine_workers=engine_workers,
        queue_size=queue_size,
        job_timeout=job_timeout,
    )
    server = ReproServer(service, host=host, port=port)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # platforms without loop signal support
            pass
    print(
        f"repro serve: listening on {server.url} "
        f"(run dir {service.run_dir}, cache {service.cache_dir}, "
        f"{service.max_jobs} job slot(s))",
        flush=True,
    )
    try:
        await stop.wait()
    finally:
        print(
            "repro serve: draining — in-flight jobs finish, "
            "queued jobs stay persisted",
            flush=True,
        )
        await server.shutdown()
