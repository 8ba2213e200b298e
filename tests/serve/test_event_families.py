"""Every tagged event, of every family, round-trips and stays in its family.

The engine, study and simulation events share one
:class:`~repro.registry.TaggedEvent` base; each family root decodes
only its own tags.  One example per registered event class is checked,
and a guard fails when a class is registered without an example.
"""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.registry import TaggedEvent
from repro.sched.engine.events import EngineEvent
from repro.sim.events import SimEvent
from repro.study.events import StudyEvent

from ..sim.test_events import EXAMPLES as SIM_EXAMPLES
from .test_wire import _engine_events, _simulation_events, _study_events

ROOTS = (EngineEvent, StudyEvent, SimEvent)
TAGS = [(root, tag) for root in ROOTS for tag in sorted(root.event_types())]


def _examples(report) -> dict:
    """First example of each concrete event class, by tag."""
    examples: dict = {}
    events = (
        _engine_events()
        + _study_events(report)
        + _simulation_events()
        + list(SIM_EXAMPLES)
    )
    for event in events:
        examples.setdefault(type(event).__name__, event)
    # A recomputed scenario says why its persisted report did not answer.
    examples["ScenarioFinished"] = replace(
        examples["ScenarioFinished"],
        recompute_reason="differs in: design_options, problem",
    )
    return examples


def test_every_family_is_covered():
    assert set(TaggedEvent.__subclasses__()) == set(ROOTS)


def test_every_registered_event_has_an_example(synthetic_report):
    registered = {tag for root in ROOTS for tag in root.event_types()}
    missing = registered - set(_examples(synthetic_report))
    assert not missing, f"add examples for {sorted(missing)}"


@pytest.mark.parametrize("root, tag", TAGS, ids=[tag for _, tag in TAGS])
def test_round_trip_and_family_isolation(root, tag, synthetic_report):
    event = _examples(synthetic_report).get(tag)
    assert event is not None, f"no example of {tag}"
    assert root.from_json(event.to_json()) == event
    assert type(event).from_json(event.to_json()) == event
    for other in ROOTS:
        if other is not root:
            with pytest.raises(ConfigurationError, match=f"unknown .* '{tag}'"):
                other.from_dict(event.to_dict())
