"""Structured, JSON-round-tripping simulation reports.

A :class:`SimReport` is the artifact of one feedback-scheduling
simulation: the runtime timeline (every processed
:class:`~repro.sim.events.SimEvent`), the piecewise-constant schedule
segments with their time-integrated cost, per-application
settling/performance traces, every adaptation with its simulated
latency and engine-stats snapshot, and the final engine accounting.

Deliberately **no wall-clock fields**: every time in the report is
*simulated* time, and adaptation latencies are a deterministic function
of requested-evaluation counts (cache-independent), so rerunning one
simulation with the same seed, scenario and platform produces a
byte-identical report — cold or warm cache.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

from ..errors import ConfigurationError
from ..sched.schedule import PeriodicSchedule

#: Bump when the report layout changes incompatibly.
SCHEMA_VERSION = 1


def json_safe(value: Any) -> Any:
    """Recursively canonicalize to what ``json.loads`` would produce.

    Tuples become lists and mappings plain dicts, so a report built
    from in-memory values equals its own JSON round trip — the
    identity the byte-identity checks (and run-dir resume) rely on.
    """
    if isinstance(value, dict):
        return {key: json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(entry) for entry in value]
    return value


@dataclass
class SimReport:
    """Structured outcome of one simulation (JSON round-trippable).

    ``timeline`` holds the processed runtime events in order (tagged
    :meth:`SimEvent.to_dict <repro.sim.events.SimEvent.to_dict>`
    encodings); ``segments`` the piecewise-constant activity between
    them (``start``/``end``/``schedule``/``demands``/``feasible``/
    ``cost`` — cost is ``1 - P_all`` on feasible segments, ``1.0``
    where the active schedule violates the load-scaled idle constraint
    or its settling deadlines); ``apps`` the per-application
    settling/performance trace per segment; ``adaptations`` one record
    per re-optimization (trigger time, completion time, simulated
    latency, schedules and the cache-independent requested-evaluation
    count — the memo/disk/computed split lives only in the report-level
    ``engine_stats``, which is why the rest of the report is
    byte-identical cold or warm).  ``mean_cost`` is the time-integrated
    segment cost divided by the horizon.

    Row builders: :meth:`timeline_rows`, :meth:`segment_rows` and
    :meth:`adaptation_rows`.
    """

    scenario: str
    horizon: float
    n_apps: int
    app_names: list[str]
    strategy: str
    adapt: bool
    adapt_strategy: str
    profile: dict
    initial_schedule: list[int]
    initial_overall: float
    timeline: list[dict]
    segments: list[dict]
    apps: list[dict]
    adaptations: list[dict]
    mean_cost: float
    engine_stats: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def n_adaptations(self) -> int:
        """Completed re-optimizations (failed attempts included)."""
        return len(self.adaptations)

    # ------------------------------------------------------------------
    # Row builders
    # ------------------------------------------------------------------
    def timeline_rows(self) -> list[list[str]]:
        """Per runtime event: time (s), event type and what it did."""
        rows: list[list[str]] = []
        for entry in self.timeline:
            kind = entry["event"]
            if kind == "ScheduleSwitch":
                detail = f"-> {PeriodicSchedule(tuple(entry['counts']))} ({entry['reason']})"
            elif kind == "LoadDisturbance":
                detail = "demands " + str(tuple(entry["demands"]))
            elif kind == "PlantModeChange":
                detail = f"{entry['app']} x{entry['factor']:g}"
            else:
                detail = entry.get("app", "")
            rows.append([f"{entry['time']:.4f}", kind, detail])
        return rows

    def segment_rows(self) -> list[list[str]]:
        """Per segment: interval (s), schedule, demands, feasible, cost."""
        return [
            [
                f"{segment['start']:.4f}-{segment['end']:.4f}",
                str(PeriodicSchedule(tuple(segment["schedule"]))),
                _demands(segment["demands"]),
                "yes" if segment["feasible"] else "no",
                f"{segment['cost']:.4f}",
            ]
            for segment in self.segments
        ]

    def adaptation_rows(self) -> list[list[str]]:
        """Per adaptation: time (s), demands, from, to, switched,
        latency (ms) and requested evaluations."""
        return [
            [
                f"{record['at']:.3f}",
                _demands(record["demands"]),
                str(PeriodicSchedule(tuple(record["from"]))),
                str(PeriodicSchedule(tuple(record["to"])))
                if record.get("to") is not None
                else "failed",
                "yes" if record.get("switched") else "no",
                f"{record['latency'] * 1e3:.2f}",
                str(record["engine"].get("n_requested", 0)),
            ]
            for record in self.adaptations
        ]

    # ------------------------------------------------------------------
    # Round-tripping
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimReport":
        """Rebuild a report from its :meth:`to_dict` form.

        Strict: another schema version, an unknown or missing field
        raises :class:`~repro.errors.ConfigurationError` naming it.  The
        list fields are canonicalized (:func:`json_safe`), so a report
        equals its own JSON round trip.
        """
        from ..study.spec import strict_payload

        payload = strict_payload(cls, data, SCHEMA_VERSION)
        for name in ("timeline", "segments", "apps", "adaptations"):
            if name in payload:
                payload[name] = json_safe(payload[name])
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigurationError(f"invalid SimReport: {exc}") from exc

    def to_json(self, indent: int | None = 2) -> str:
        """Stable JSON form (sorted keys; ``Infinity`` allowed for the
        non-finite settling of infeasible designs)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimReport":
        """Inverse of :meth:`to_json` (identity round-trip)."""
        return cls.from_dict(json.loads(text))


def _demands(demands: list[float]) -> str:
    return "(" + ", ".join(f"{d:g}" for d in demands) + ")"
