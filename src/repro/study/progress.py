"""Live progress rendering for study and engine events.

One :class:`ProgressLine` consumes the typed events of
:mod:`repro.study.events` and :mod:`repro.sched.engine.events` and
keeps a single status line up to date — the CLI's ``repro batch`` /
``repro experiment`` feedback for long sweeps.

On a TTY the line is redrawn in place (``\\r``); on a plain stream
(CI logs, pipes) only the per-scenario completion lines are printed,
one per line, so logs stay readable.  Everything goes to the given
stream (``stderr`` by default) — never to stdout, which stays
reserved for tables and ``--json`` payloads.
"""

from __future__ import annotations

import sys

from ..sched.engine.events import BatchCompleted, EngineEvent
from .events import (
    ScenarioFinished,
    ScenarioProgress,
    ScenarioResumed,
    ScenarioStarted,
    StudyEvent,
)


class ProgressLine:
    """Render engine/study events as one live status line.

    Parameters
    ----------
    stream:
        Output stream (default ``sys.stderr``).
    live:
        Redraw one line in place.  ``None`` auto-detects
        ``stream.isatty()``; ``False`` prints completion lines only.
    """

    def __init__(self, stream=None, live: bool | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if live is None:
            live = bool(getattr(self.stream, "isatty", lambda: False)())
        self.live = live
        self._dirty = False
        self._prefix = ""

    # ------------------------------------------------------------------
    # Event entry point (usable directly as Study.run(on_event=...))
    # ------------------------------------------------------------------
    def __call__(self, event) -> None:
        if isinstance(event, StudyEvent):
            self._handle_study(event)
        elif isinstance(event, EngineEvent):
            self._handle_engine(event)

    def _handle_study(self, event: StudyEvent) -> None:
        label = f"[{event.index + 1}/{event.n_scenarios}] {event.scenario}"
        if isinstance(event, ScenarioStarted):
            self._prefix = label
            self._draw(f"{label}: searching ({event.strategy})")
        elif isinstance(event, ScenarioProgress):
            engine = event.engine
            if isinstance(engine, BatchCompleted):
                self._draw(f"{label}: {self._engine_text(engine)}")
        elif isinstance(event, ScenarioResumed):
            self._println(f"{label}: resumed from {_short(event.report)}")
        elif isinstance(event, ScenarioFinished):
            rate = (
                f", {event.throughput:.1f} eval/s"
                if event.throughput is not None
                else ""
            )
            self._println(
                f"{label}: done in {event.wall_time:.2f} s "
                f"({_short(event.report)}{rate})"
            )

    def _handle_engine(self, event: EngineEvent) -> None:
        """Bare engine events (no Study in the loop: the warm engine an
        experiment holds itself, e.g. the ``multicore`` sweep).

        There is no per-scenario completion event to fall back to, so
        on a plain stream each completed batch gets its own line.
        """
        if isinstance(event, BatchCompleted):
            prefix = f"{self._prefix}: " if self._prefix else ""
            text = f"{prefix}{self._engine_text(event)}"
            if self.live:
                self._draw(text)
            else:
                self._println(text)

    def set_prefix(self, prefix: str) -> None:
        """Label bare engine events (e.g. with the experiment name)."""
        self._prefix = prefix

    @staticmethod
    def _engine_text(event: BatchCompleted) -> str:
        best = (
            f", best {event.best_overall:.4f}"
            if event.best_overall is not None
            else ""
        )
        return (
            f"{event.n_computed} computed + {event.n_memo_hits} memo + "
            f"{event.n_disk_hits} disk ({event.n_requested} requested{best})"
        )

    # ------------------------------------------------------------------
    # Drawing
    # ------------------------------------------------------------------
    def _draw(self, text: str) -> None:
        """Update the in-place line (no-op when not live)."""
        if not self.live:
            return
        self.stream.write("\r\x1b[2K" + text)
        self.stream.flush()
        self._dirty = True

    def _println(self, text: str) -> None:
        """Emit one permanent line (always, live or not)."""
        if self._dirty:
            self.stream.write("\r\x1b[2K")
            self._dirty = False
        self.stream.write(text + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Clear a leftover in-place line (call when the run ends)."""
        if self._dirty:
            self.stream.write("\r\x1b[2K")
            self.stream.flush()
            self._dirty = False


def _short(report) -> str:
    stats = report.engine_stats
    return (
        f"{stats.get('n_computed', 0)} computed, "
        f"{stats.get('n_disk_hits', 0)} disk"
    )
