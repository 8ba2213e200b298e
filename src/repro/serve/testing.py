"""In-process server harness for tests and benchmarks.

:class:`ServerThread` runs a full :class:`~repro.serve.server.ReproServer`
(real sockets, real asyncio loop) on a daemon thread, so tests and
benchmarks exercise the exact HTTP/streaming path production clients
use — without subprocesses or fixed ports (``port=0`` binds an
ephemeral one).

::

    with ServerThread(run_dir=tmp_path / "serve") as server:
        client = ServeClient(server.url)
        record = client.submit(JobSpec(strategy="hybrid"))
        reports = client.wait(record.id)
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path
from typing import Any, Optional

from ..errors import ServeError
from .server import ReproServer
from .service import JobService


class ServerThread:
    """A context manager running one server on a daemon thread.

    Accepts the :class:`~repro.serve.service.JobService` keyword
    options (``cache_dir``, ``max_jobs``, ``queue_size``,
    ``job_timeout``, ...); ``self.url`` is the bound base URL and
    ``self.service`` the running :class:`JobService` once the context
    is entered.
    """

    def __init__(
        self,
        run_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_options: Any,
    ) -> None:
        self._service_args: dict[str, Any] = dict(
            run_dir=run_dir, **service_options
        )
        self._host = host
        self._port = port
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self.url = ""
        self.service: Optional[JobService] = None

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-test", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServeError("test server did not come up within 30 s")
        if self._error is not None:
            raise ServeError(
                f"test server failed to start: {self._error}"
            ) from self._error
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    def stop(self) -> None:
        """Signal a graceful drain and join the server thread."""
        if (
            self._loop is not None
            and self._stop is not None
            and self._thread is not None
            and self._thread.is_alive()
        ):
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=120)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as exc:  # lint: allow-broad-except(startup failures must cross the thread boundary back to the entering test)
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        service = self.service = JobService(**self._service_args)
        server = ReproServer(service, host=self._host, port=self._port)
        self._stop = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        await server.start()
        self.url = server.url
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.shutdown()
