"""Typed wire encoding of the serve event stream.

``GET /jobs/{id}/events`` streams two message kinds, each one JSON
object per NDJSON line (or per SSE ``data:`` frame when the client
sends ``Accept: text/event-stream``):

* :class:`EventMessage` — one :class:`~repro.study.events.StudyEvent`
  (or bare :class:`~repro.sched.engine.events.EngineEvent`) from the
  running search, wrapped with the job id and a per-job sequence
  number;
* :class:`StatusMessage` — a job state transition
  (``queued/running/done/failed``); a terminal state ends the stream.

Encoding delegates to the events' own ``to_dict``/``from_dict`` JSON
round-tripping, so the wire format and the in-process event objects
can never drift apart.  :func:`decode_message` is the single inverse:
it rebuilds the typed message from a parsed JSON object and raises
:class:`~repro.errors.ConfigurationError` on anything unknown or
malformed, like the registries do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from ..errors import ConfigurationError
from ..sched.engine.events import EngineEvent
from ..study.events import StudyEvent

#: Bump when the message layout changes incompatibly.
WIRE_SCHEMA_VERSION = 1

#: Job states that end an event stream.
TERMINAL_STATES = frozenset({"done", "failed"})


@dataclass(frozen=True)
class EventMessage:
    """One study/engine progress event, tagged with its job."""

    job: str
    seq: int
    event: Union[StudyEvent, EngineEvent]

    def to_dict(self) -> dict:
        return {
            "type": "event",
            "job": self.job,
            "seq": self.seq,
            "event": self.event.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class StatusMessage:
    """One job state transition (``at`` is the server's wall clock)."""

    job: str
    seq: int
    state: str
    error: str | None
    at: float

    def to_dict(self) -> dict:
        return {
            "type": "status",
            "job": self.job,
            "seq": self.seq,
            "state": self.state,
            "error": self.error,
            "at": self.at,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def decode_event(data: dict) -> Union[StudyEvent, EngineEvent]:
    """Rebuild a study *or* engine event from its tagged dict form.

    The stream normally carries study events (whose
    :class:`~repro.study.events.ScenarioProgress` nests the engine
    ones), but bare engine events decode too so the wire format covers
    everything ``to_dict`` can produce.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"wire event must be an object, got {type(data).__name__}"
        )
    name = data.get("event")
    for family in (StudyEvent, EngineEvent):
        if isinstance(name, str) and name in family.event_types():
            return family.from_dict(data)
    known = sorted(StudyEvent.event_types()) + sorted(EngineEvent.event_types())
    raise ConfigurationError(
        f"unknown wire event {name!r}; known events: {', '.join(known)}"
    )


def decode_message(data: dict) -> Union[EventMessage, StatusMessage]:
    """Rebuild the typed message one NDJSON line / SSE frame encodes."""
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"wire message must be an object, got {type(data).__name__}"
        )
    kind = data.get("type")
    try:
        if kind == "event":
            return EventMessage(
                job=str(data["job"]),
                seq=int(data["seq"]),
                event=decode_event(data["event"]),
            )
        if kind == "status":
            state = str(data["state"])
            error = data.get("error")
            return StatusMessage(
                job=str(data["job"]),
                seq=int(data["seq"]),
                state=state,
                error=str(error) if error is not None else None,
                at=float(data["at"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"malformed {kind} wire message: {exc}"
        ) from exc
    raise ConfigurationError(
        f"unknown wire message type {kind!r}; known types: event, status"
    )


def format_ndjson(data: dict) -> str:
    """One NDJSON line (newline-terminated canonical JSON)."""
    return json.dumps(data, sort_keys=True) + "\n"


def format_sse(data: dict) -> str:
    """One SSE frame: the message type as the SSE event name, the
    canonical JSON as the data payload."""
    return (
        f"event: {data.get('type', 'message')}\n"
        f"data: {json.dumps(data, sort_keys=True)}\n\n"
    )
