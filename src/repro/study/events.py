"""Typed study-level progress events.

:meth:`Study.run(on_event=...) <repro.study.Study.run>` and the
:meth:`Study.stream() <repro.study.Study.stream>` iterator deliver one
stream of these events per study:

* :class:`ScenarioStarted` before each scenario runs;
* :class:`ScenarioProgress` for every engine event the scenario's
  search emits (a scenario-tagged wrapper around the engine's
  :class:`~repro.sched.engine.events.BatchSubmitted` /
  :class:`~repro.sched.engine.events.BatchCompleted`, so the
  memo/disk/computed counters are exactly the engine's
  :class:`~repro.sched.engine.EngineStats` snapshot);
* :class:`ScenarioResumed` when a persisted
  :class:`~repro.study.RunReport` answered the scenario from disk
  (no search ran);
* :class:`SimulationProgress` for every runtime
  :class:`~repro.sim.events.SimEvent` a dynamic scenario's
  feedback-scheduling simulation processes;
* :class:`SimulationFinished` once such a simulation's
  :class:`~repro.sim.report.SimReport` exists;
* :class:`ScenarioFinished` once a scenario's report exists, carrying
  the report and the study's *running throughput* (cumulative computed
  evaluations per cumulative search second).

All events are frozen dataclasses; callbacks run synchronously on the
coordinating thread, and a raising callback aborts the run (observers
must never corrupt a sweep silently).

Every event also has a typed JSON encoding, inherited from
:class:`~repro.registry.TaggedEvent` — ``to_dict`` / ``from_dict`` (and
the ``to_json`` / ``from_json`` string forms) round-trip losslessly,
with the concrete event class tagged under ``"event"``, nested engine
events encoded through :meth:`EngineEvent.to_dict
<repro.sched.engine.events.EngineEvent.to_dict>` and reports through
:meth:`RunReport.to_dict <repro.study.report.RunReport.to_dict>`.
This is the wire format :mod:`repro.serve.wire` streams over HTTP.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..registry import TaggedEvent
from ..sched.engine.events import EngineEvent
from ..sim.events import SimEvent
from ..sim.report import SimReport
from .report import RunReport


@dataclass(frozen=True)
class StudyEvent(TaggedEvent, family="study"):
    """Base class of all study progress events.

    ``index`` is the scenario's position in the study (0-based),
    ``n_scenarios`` the study size, ``scenario`` the scenario name.
    """

    index: int
    n_scenarios: int
    scenario: str


@dataclass(frozen=True)
class ScenarioStarted(StudyEvent):
    """A scenario is about to run (or be resumed from disk)."""

    strategy: str
    n_cores: int


@dataclass(frozen=True)
class ScenarioProgress(StudyEvent):
    """One engine progress event, tagged with its scenario."""

    engine: EngineEvent

    def _payload(self) -> dict:
        data = asdict(self)
        # asdict would flatten the engine event into an untagged dict;
        # its own encoding keeps the concrete class name.
        data["engine"] = self.engine.to_dict()
        return data

    @classmethod
    def _from_payload(cls, payload: dict) -> "ScenarioProgress":
        payload = dict(payload)
        payload["engine"] = EngineEvent.from_dict(payload["engine"])
        return cls(**payload)


def _report_payload(event) -> dict:
    """The fields of an event carrying a ``report``, which keeps its own
    encoding (``asdict`` would leave its spec's enums and tuples raw)."""
    data = asdict(event)
    data["report"] = event.report.to_dict()
    return data


@dataclass(frozen=True)
class ScenarioResumed(StudyEvent):
    """The scenario was answered by a persisted report (no search)."""

    report: RunReport

    _payload = _report_payload

    @classmethod
    def _from_payload(cls, payload: dict) -> "ScenarioResumed":
        payload = dict(payload)
        payload["report"] = RunReport.from_dict(payload["report"])
        return cls(**payload)


@dataclass(frozen=True)
class SimulationProgress(StudyEvent):
    """One runtime simulation event, tagged with its scenario.

    Emitted while a dynamic scenario's feedback-scheduling simulation
    runs (:class:`~repro.sim.loop.FeedbackLoop` processing its
    timeline); ``sim`` is the processed
    :class:`~repro.sim.events.SimEvent`.
    """

    sim: SimEvent

    def _payload(self) -> dict:
        data = asdict(self)
        # asdict would flatten the sim event into an untagged dict; its
        # own encoding keeps the concrete class name.
        data["sim"] = self.sim.to_dict()
        return data

    @classmethod
    def _from_payload(cls, payload: dict) -> "SimulationProgress":
        payload = dict(payload)
        payload["sim"] = SimEvent.from_dict(payload["sim"])
        return cls(**payload)


@dataclass(frozen=True)
class SimulationFinished(StudyEvent):
    """A dynamic scenario's feedback-scheduling simulation completed.

    Carries the full :class:`~repro.sim.report.SimReport` plus the two
    headline numbers (time-averaged cost and adaptation count) so wire
    consumers can render a summary without decoding the report.
    """

    report: SimReport
    mean_cost: float
    n_adaptations: int

    def _payload(self) -> dict:
        data = asdict(self)
        data["report"] = self.report.to_dict()
        return data

    @classmethod
    def _from_payload(cls, payload: dict) -> "SimulationFinished":
        payload = dict(payload)
        payload["report"] = SimReport.from_dict(payload["report"])
        return cls(**payload)


@dataclass(frozen=True)
class ScenarioFinished(StudyEvent):
    """A scenario's report exists (freshly computed).

    ``throughput`` is the study's running rate — cumulative computed
    evaluations divided by cumulative search wall time, in evaluations
    per second (``None`` until any wall time accumulates).

    ``recompute_reason`` says why no persisted report answered the
    scenario: ``None`` when there was none to resume, else
    ``"resume disabled"``, ``"corrupt artifact: ..."`` or
    ``"differs in: <fields>"`` (the :func:`repro.identity.diff` of the
    recorded and the requested identity).
    """

    report: RunReport
    wall_time: float
    n_computed_total: int
    throughput: float | None
    recompute_reason: str | None = None

    _payload = _report_payload

    @classmethod
    def _from_payload(cls, payload: dict) -> "ScenarioFinished":
        payload = dict(payload)
        payload["report"] = RunReport.from_dict(payload["report"])
        return cls(**payload)
