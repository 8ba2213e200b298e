"""Typed runtime events: registry, tagged JSON round trips."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.sim import (
    LoadDisturbance,
    PlantModeChange,
    ScheduleSwitch,
    SimEvent,
    TaskArrival,
)

EXAMPLES = [
    TaskArrival(time=0.0, app="C1"),
    LoadDisturbance(time=0.25, demands=(1.46, 1.46, 1.46)),
    PlantModeChange(time=0.4, app="C2", factor=1.1),
    ScheduleSwitch(time=0.26, counts=(1, 1, 1), overall=0.546, reason="adaptation"),
    ScheduleSwitch(time=0.0, counts=(2, 2, 2), overall=None, reason="initial"),
]


class TestRegistry:
    def test_all_event_kinds_registered(self):
        assert {
            "TaskArrival",
            "LoadDisturbance",
            "PlantModeChange",
            "ScheduleSwitch",
        } <= set(SimEvent.event_types())

    def test_registry_maps_name_to_class(self):
        assert SimEvent.event_types()["TaskArrival"] is TaskArrival


class TestRoundTrip:
    @pytest.mark.parametrize("event", EXAMPLES, ids=lambda e: type(e).__name__)
    def test_json_identity(self, event):
        assert SimEvent.from_json(event.to_json()) == event

    @pytest.mark.parametrize("event", EXAMPLES, ids=lambda e: type(e).__name__)
    def test_wire_safe_after_json_list_coercion(self, event):
        # json.loads turns tuples into lists; from_dict must normalize.
        rebuilt = SimEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert rebuilt == event
        if isinstance(event, LoadDisturbance):
            assert isinstance(rebuilt.demands, tuple)
        if isinstance(event, ScheduleSwitch):
            assert isinstance(rebuilt.counts, tuple)
            assert all(isinstance(m, int) for m in rebuilt.counts)

    def test_dict_carries_class_tag(self):
        data = EXAMPLES[1].to_dict()
        assert data["event"] == "LoadDisturbance"
        assert data["time"] == 0.25


class TestFailFast:
    def test_unknown_event_name_lists_known(self):
        with pytest.raises(ConfigurationError) as exc:
            SimEvent.from_dict({"event": "CacheMeltdown", "time": 0.1})
        assert "CacheMeltdown" in str(exc.value)
        assert "ScheduleSwitch" in str(exc.value)

    def test_missing_tag_fails(self):
        with pytest.raises(ConfigurationError):
            SimEvent.from_dict({"time": 0.1, "app": "C1"})

    def test_malformed_payload_fails(self):
        with pytest.raises(ConfigurationError):
            SimEvent.from_dict({"event": "TaskArrival", "bogus": 1})
        with pytest.raises(ConfigurationError):
            SimEvent.from_dict([1, 2])
