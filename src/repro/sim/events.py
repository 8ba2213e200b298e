"""Typed runtime events of the feedback-scheduling simulation.

These mirror the engine's progress events
(:mod:`repro.sched.engine.events`): frozen dataclasses on the shared
:class:`~repro.registry.TaggedEvent` base, auto-registered by class
name, with a tagged JSON encoding — ``to_dict`` / ``from_dict``
round-trip losslessly, with the concrete event class recorded under
the ``"event"`` key.  The simulation's
timeline is a list of these encodings, and
:class:`repro.study.events.SimulationProgress` wraps them onto the
serve wire.

Four runtime event kinds exist:

* :class:`TaskArrival` — an application's task burst becomes active
  (observability marker from the arrival profile);
* :class:`LoadDisturbance` — the per-application load-demand vector
  changes (the feedback loop's re-optimization trigger);
* :class:`PlantModeChange` — one plant enters a different operating
  mode, scaling that application's demand (also a trigger);
* :class:`ScheduleSwitch` — the feedback loop adopts a new schedule
  after its adaptation latency elapsed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..registry import TaggedEvent


@dataclass(frozen=True)
class SimEvent(TaggedEvent, family="sim"):
    """Base class of all simulation runtime events.

    ``time`` is the simulated time of the event in seconds.
    """

    time: float


@dataclass(frozen=True)
class TaskArrival(SimEvent):
    """An application's task burst becomes active.

    Pure observability: arrivals anchor the per-application traces on
    the timeline but change neither feasibility nor cost (the cyclic
    executive runs every application each hyperperiod regardless).
    """

    app: str


@dataclass(frozen=True)
class LoadDisturbance(SimEvent):
    """The full per-application load-demand vector changes.

    ``demands[i]`` scales application ``i``'s idle-time budget: under
    demand ``d`` the effective maximum idle time is ``max_idle / d``
    (eq. (4) tightened by the runtime load), so ``d > 1`` is stress and
    ``d = 1`` nominal load.
    """

    demands: tuple[float, ...]

    def __post_init__(self) -> None:
        # JSON decodes the tuple as a list; normalize so the wire
        # round-trip stays an identity.
        object.__setattr__(self, "demands", tuple(self.demands))


@dataclass(frozen=True)
class PlantModeChange(SimEvent):
    """One plant enters a different operating mode.

    ``factor`` multiplies the named application's current demand (a
    factor above one tightens its idle budget, below one relaxes it).
    """

    app: str
    factor: float


@dataclass(frozen=True)
class ScheduleSwitch(SimEvent):
    """The feedback loop adopts a new schedule.

    Emitted at the simulated instant the adaptation *completes* — the
    re-optimization's adaptation latency after the triggering load
    change.  ``overall`` is the adopted schedule's overall control
    performance under nominal timing (``None`` when the switch records
    the initial static optimum at ``t = 0``); ``reason`` is
    ``"initial"`` or ``"adaptation"``.
    """

    counts: tuple[int, ...]
    overall: float | None
    reason: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(int(m) for m in self.counts))
