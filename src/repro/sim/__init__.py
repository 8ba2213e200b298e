"""Discrete-event feedback-scheduling simulation.

The paper's co-design is offline: pick one schedule, once, for nominal
load.  This package asks the runtime question — what happens when the
load *changes*?  A tiny discrete-event kernel (:mod:`~repro.sim.kernel`)
plays a declarative :class:`~repro.sim.profiles.DynamicProfile` of task
arrivals, load disturbances and plant mode changes; the
:class:`~repro.sim.loop.FeedbackLoop` detects each load change and
re-invokes a registered search strategy (``online`` by default) through
the same warm :class:`~repro.sched.engine.SearchEngine` the static
search ran on, so re-optimization is cache-hits, not fresh co-design.
One run produces a JSON-round-tripping
:class:`~repro.sim.report.SimReport` with the event timeline,
piecewise-constant cost segments, per-application traces and one record
per adaptation.

Everything is deterministic: stdlib ``heapq``, seeded
``numpy.random.default_rng`` only (RPL002), no wall clock — adaptation
latency is simulated from cache-independent requested-evaluation
counts, so a rerun with the same seed, scenario and platform is
byte-identical, cold or warm cache.
"""

from .events import (
    LoadDisturbance,
    PlantModeChange,
    ScheduleSwitch,
    SimEvent,
    TaskArrival,
)
from .kernel import EventQueue, SimClock
from .loop import FeedbackLoop, demand_feasible
from .profiles import DynamicProfile, load_transient, synthesize_profile
from .report import SimReport

__all__ = [
    "DynamicProfile",
    "EventQueue",
    "FeedbackLoop",
    "LoadDisturbance",
    "PlantModeChange",
    "ScheduleSwitch",
    "SimClock",
    "SimEvent",
    "SimReport",
    "TaskArrival",
    "demand_feasible",
    "load_transient",
    "synthesize_profile",
]
