"""The one plugin-registry mechanism behind all five extension points.

Every registry enforces its whole ``Protocol`` at registration (a
plugin missing any member the Protocol declares fails with
``ConfigurationError`` instead of an ``AttributeError`` later), and
the members it checks are exactly the ones its Protocol declares.
"""

import inspect
from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError
from repro.experiments import registry as experiments_module
from repro.experiments.registry import EXPERIMENTS, ExperimentSpec
from repro.lint import registry as lint_module
from repro.lint.registry import CHECKERS, LintChecker
from repro.multicore import allocators as allocators_module
from repro.multicore.allocators import ALLOCATORS, PartitionAllocator
from repro.sched.strategies import base as strategies_module
from repro.sched.strategies.base import STRATEGIES, SearchStrategy
from repro.wcet import models as wcet_module
from repro.wcet.models import WCET_MODELS, WcetModel


@dataclass(frozen=True)
class ProbeOptions:
    level: int = 1


def _method(self, *args):
    raise AssertionError("registration probes are never run")


#: registry id -> (registry, a complete probe plugin's members, a builtin name).
PLUGINS = {
    "strategy": (
        STRATEGIES,
        {"name": "probe", "options_type": ProbeOptions, "run": _method},
        "hybrid",
    ),
    "wcet-model": (
        WCET_MODELS,
        {"name": "probe", "analyze": _method},
        "static",
    ),
    "experiment": (
        EXPERIMENTS,
        {
            "name": "probe",
            "supports_out": False,
            "build": _method,
            "render": _method,
        },
        "table1",
    ),
    "checker": (
        CHECKERS,
        {"name": "probe", "code": "XYZ001", "check": _method},
        "determinism",
    ),
    "allocator": (
        ALLOCATORS,
        {"name": "probe", "options_type": ProbeOptions, "partitions": _method},
        "exhaustive",
    ),
}


#: registry id -> (module binding its register_* decorator, decorator, Protocol).
PROTOCOLS = {
    "strategy": (strategies_module, "register_strategy", SearchStrategy),
    "wcet-model": (wcet_module, "register_wcet_model", WcetModel),
    "experiment": (experiments_module, "register_experiment", ExperimentSpec),
    "checker": (lint_module, "register_checker", LintChecker),
    "allocator": (allocators_module, "register_allocator", PartitionAllocator),
}


def declared_members(protocol: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(attributes, methods)`` written in a Protocol's class body."""
    methods = tuple(
        name
        for name, value in vars(protocol).items()
        if inspect.isfunction(value) and not name.startswith("_")
    )
    return tuple(inspect.get_annotations(protocol)), methods


def _probe(members: dict) -> type:
    return type("Probe", (), {"__doc__": "A registration probe.", **members})


def _broken_plugins():
    """``(registry id, case, members)`` of plugins registration rejects:
    one per Protocol member left out, plus malformed members."""
    for key, (registry, members, builtin) in PLUGINS.items():
        attributes, methods = declared_members(PROTOCOLS[key][2])
        assert set(members) == {*attributes, *methods}, key  # probe is complete
        for member in (*attributes, *methods):
            broken = {k: v for k, v in members.items() if k != member}
            yield key, f"missing-{member}", broken
        for method in registry.methods:
            yield key, f"uncallable-{method}", {**members, method: 3}
        yield key, "empty-name", {**members, "name": ""}
        yield key, "duplicate", {**members, "name": builtin}
    yield "experiment", "supports_out-without-write_outputs", {
        **PLUGINS["experiment"][1], "supports_out": True,
    }
    yield "checker", "empty-code", {**PLUGINS["checker"][1], "code": ""}


BROKEN = list(_broken_plugins())


@pytest.mark.parametrize(
    "key, members",
    [(key, members) for key, _, members in BROKEN],
    ids=[f"{key}-{case}" for key, case, _ in BROKEN],
)
def test_registration_enforces_the_whole_protocol(key, members):
    registry = PLUGINS[key][0]
    before = registry.available()
    with pytest.raises(ConfigurationError):
        registry.register(_probe(members))
    assert registry.available() == before


@pytest.mark.parametrize("key", PLUGINS)
def test_complete_plugin_registers_lists_and_unregisters(key):
    registry, members, _ = PLUGINS[key]
    probe = _probe(members)
    assert registry.register(probe) is probe
    try:
        assert "probe" in registry.available()
        assert isinstance(registry.get("probe"), probe)
        assert registry.describe(registry.get("probe")) == "A registration probe."
    finally:
        registry.unregister("probe")
    assert "probe" not in registry.available()
    with pytest.raises(ConfigurationError, match=f"registered {registry.plural}: "):
        registry.get("probe")


@pytest.mark.parametrize("key", ["strategy", "allocator"])
def test_options_resolution(key):
    registry = PLUGINS[key][0]
    plugin = _probe(PLUGINS[key][1])()
    assert registry.resolve_options(plugin, None) == ProbeOptions()
    assert registry.resolve_options(plugin, ProbeOptions(2)) == ProbeOptions(2)
    with pytest.raises(ConfigurationError, match="takes ProbeOptions options"):
        registry.resolve_options(plugin, object())


def test_protocols_cover_every_registry():
    assert set(PROTOCOLS) == set(PLUGINS)


@pytest.mark.parametrize(
    "key", sorted(PROTOCOLS), ids=[PROTOCOLS[key][1] for key in sorted(PROTOCOLS)]
)
def test_registry_checks_exactly_its_protocol_members(key):
    module, decorator, protocol = PROTOCOLS[key]
    registry = PLUGINS[key][0]
    assert getattr(module, decorator).__self__ is registry
    assert (registry.attributes, registry.methods) == declared_members(protocol)
