"""The one identity encoder behind cache keys, resume and job digests.

Cache-key completeness used to be a lint rule that compared a
hand-written field list against the dataclass definitions.  Every
identity is now the canonical encoding of *all* fields, so the failure
mode cannot happen by construction; these properties prove it.  For
each run-input type, changing any identity field moves the digest and
:func:`repro.identity.diff` names that field, while changing a field
declared ``field(metadata=NON_IDENTITY)`` moves nothing.  A guard
fails when a field is added without a value strategy here.
"""

import copy
import enum
import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.control.design import DesignOptions
from repro.control.pso import PsoOptions
from repro.core.application import ControlApplication
from repro.experiments.registry import ExperimentRequest, _expected_identity
from repro.identity import NON_IDENTITY, canonical, diff, digest, encode
from repro.multicore.allocators import GreedyAllocatorOptions, available_allocators
from repro.platform import Platform
from repro.sched.annealing import AnnealingOptions
from repro.sched.engine.batch import Scenario
from repro.sched.engine.keys import problem_digest
from repro.sched.hybrid import HybridOptions
from repro.sched.strategies import available_strategies
from repro.serve.jobs import JobSpec
from repro.sim.profiles import DynamicProfile
from repro.study import RunSpec
from repro.study.report import scenario_identity
from repro.units import Clock
from repro.wcet.results import TaskWcets


class Color(enum.Enum):
    RED = "red"


@dataclass(frozen=True)
class Leaf:
    gain: np.ndarray
    color: Color
    label: str = field(default="", metadata=NON_IDENTITY)


@dataclass(frozen=True)
class Tree:
    leaves: tuple[Leaf, ...]
    table: dict
    count: np.int64


class TestEncoder:
    def tree(self) -> Tree:
        return Tree(
            leaves=(Leaf(np.array([[0.5, 1.0]]), Color.RED, label="x"),),
            table={"k": (1, None, True)},
            count=np.int64(3),
        )

    def test_canonical_json(self):
        assert encode(self.tree()) == (
            '{"count":3,"leaves":[{"color":"red","gain":[[0.5,1.0]]}],'
            '"table":{"k":[1,null,true]}}'
        )

    def test_non_identity_field_is_skipped(self):
        tree = self.tree()
        relabeled = Tree(
            leaves=(Leaf(tree.leaves[0].gain, Color.RED, label="y"),),
            table=tree.table,
            count=tree.count,
        )
        assert digest(relabeled) == digest(tree)

    def test_floats_keep_full_precision(self):
        assert digest(0.1 + 0.2) != digest(0.3)
        assert json.loads(encode(0.1 + 0.2)) == 0.1 + 0.2

    def test_json_round_trip_is_a_fixed_point(self, case_study):
        tree = canonical(case_study.apps)
        assert canonical(json.loads(encode(case_study.apps))) == tree

    @pytest.mark.parametrize(
        "value", [object(), {1: "int key"}, {"nested": {2.0}}, Path("p")]
    )
    def test_unknown_values_raise(self, value):
        with pytest.raises(TypeError):
            canonical(value)

    def test_diff_names_top_level_fields(self):
        a = {"x": 1, "y": [1, 2], "z": 0}
        assert diff(a, a) == []
        assert diff(a, {"x": 1, "y": [1, 3], "z": 0}) == ["y"]
        assert diff(a, {"x": 1, "y": [1, 2]}) == ["z"]
        assert diff({}, a) == ["x", "y", "z"]
        assert diff(1, 2) == ["<value>"]


# ----------------------------------------------------------------------
# Properties over the run-input types
# ----------------------------------------------------------------------

def _case_apps() -> list[ControlApplication]:
    from repro.apps import build_case_study

    return list(build_case_study().apps)


CASE_APPS = _case_apps()

designs = st.builds(
    DesignOptions,
    nsub=st.integers(2, 6),
    stage_a=st.builds(PsoOptions, st.integers(4, 30), st.integers(4, 30)),
    seed=st.integers(0, 10**6),
    restarts=st.integers(1, 5),
    min_damping=st.floats(0.1, 0.6),
)
platforms = st.builds(
    Platform,
    cache=st.builds(
        CacheConfig,
        n_sets=st.sampled_from([16, 32, 64, 128]),
        associativity=st.integers(1, 4),
        miss_cycles=st.integers(50, 150),
    ),
    clock=st.builds(Clock, st.floats(1e6, 1e8)),
    wcet_model=st.sampled_from(["static", "analytic"]),
)
apps = st.builds(
    lambda app, weight: ControlApplication(
        app.name, app.plant, app.spec, weight, app.max_idle, app.wcets, app.program
    ),
    st.sampled_from(CASE_APPS),
    st.floats(0.05, 1.0),
)
counts = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
strategies = st.sampled_from(available_strategies())
allocators = st.none() | st.sampled_from(available_allocators())


@dataclass(frozen=True)
class Subject:
    """One run-input type: field strategies and its identity view."""

    cls: type
    values: dict
    identity: Callable
    digest: Callable
    non_identity: frozenset
    #: Fields derived from others that may differ alongside a change.
    derived: frozenset = frozenset()
    #: Dataclass fields whose own fields the identity lists instead.
    flattened: frozenset = frozenset()


#: Every RunSpec field (the job spec's, bar its non-identity ``resume``).
SPEC_VALUES = {
    "kind": st.sampled_from(["search", "suite"]),
    "strategy": st.none() | strategies,
    "starts": st.none() | st.lists(counts, min_size=1, max_size=2).map(tuple),
    "n_starts": st.integers(1, 4),
    "seed": st.integers(0, 10**6),
    "n_cores": st.integers(1, 3),
    "max_count_per_core": st.integers(1, 6),
    "shared_cache": st.booleans(),
    "allocator": allocators,
    "suite_size": st.integers(1, 8),
    "platform": st.none() | platforms,
    "options": st.none()
    | st.builds(HybridOptions, max_steps=st.integers(1, 99))
    | st.builds(AnnealingOptions, seed=st.integers(0, 99)),
    "allocator_options": st.none()
    | st.builds(GreedyAllocatorOptions, max_partitions=st.integers(1, 99)),
    "n_apps": st.none() | st.integers(3, 8),
    "dynamic": st.none()
    | st.builds(DynamicProfile, horizon=st.floats(0.1, 10.0), adapt=st.booleans()),
    "n_apps_choices": st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
    "jitter_platform": st.booleans(),
    "random_dynamic": st.booleans(),
}

SUBJECTS = [
    Subject(
        Scenario,
        {
            "name": st.text(min_size=1, max_size=6),
            "apps": st.lists(apps, min_size=1, max_size=3),
            "clock": st.builds(Clock, st.floats(1e6, 1e8)),
            # Never None here: None resolves to the default budget and
            # platform by design (see test_scenario_defaults_resolve).
            "design_options": designs,
            # A platform of None resolves to the default platform too.
            "spec": st.fixed_dictionaries(
                {**SPEC_VALUES, "platform": platforms}
            ).map(lambda values: build(RunSpec, values)),
        },
        identity=scenario_identity,
        digest=lambda scenario: digest(scenario_identity(scenario)),
        non_identity=frozenset(),
        derived=frozenset({"problem"}),
        flattened=frozenset({"spec"}),
    ),
    Subject(
        JobSpec,
        {**SPEC_VALUES, "resume": st.booleans()},
        identity=canonical,
        digest=JobSpec.digest,
        non_identity=frozenset({"resume"}),
    ),
    Subject(
        ExperimentRequest,
        {
            **SPEC_VALUES,
            # Never None here: None resolves to the experiment's default.
            "platform": platforms,
            "design_options": st.none() | designs,
            "workers": st.integers(0, 8),
            "cache_dir": st.sampled_from([None, "cache", Path("other")]),
            "out": st.sampled_from([None, "out", Path("figures")]),
            "on_event": st.sampled_from([None, print, repr]),
        },
        identity=lambda request: _expected_identity("table1", request),
        digest=lambda request: digest(_expected_identity("table1", request)),
        non_identity=frozenset({"workers", "cache_dir", "out", "on_event"}),
    ),
]
IDS = [subject.cls.__name__ for subject in SUBJECTS]


def build(cls: type, values: dict):
    """An instance holding exactly ``values``, unvalidated: the encoder
    must see every combination, valid for a run or not."""
    instance = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(instance, name, value)
    return instance


def is_identity(cls: type, name: str) -> bool:
    (declared,) = [item for item in fields(cls) if item.name == name]
    return declared.metadata.get("identity", True)


@pytest.mark.parametrize("subject", SUBJECTS, ids=IDS)
def test_every_field_has_a_strategy(subject):
    assert set(subject.values) == {item.name for item in fields(subject.cls)}


@pytest.mark.parametrize("subject", SUBJECTS, ids=IDS)
def test_non_identity_fields_are_declared(subject):
    declared = {
        item.name for item in fields(subject.cls) if not is_identity(subject.cls, item.name)
    }
    assert declared == subject.non_identity


def test_non_identity_problem_fields_are_declared():
    assert not is_identity(ControlApplication, "program")
    assert not is_identity(TaskWcets, "name")


@pytest.mark.parametrize("subject", SUBJECTS, ids=IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_changing_a_field_moves_the_digest_iff_it_is_identity(subject, data):
    values = {
        name: data.draw(strategy, label=name)
        for name, strategy in subject.values.items()
    }
    name = data.draw(st.sampled_from(sorted(values)), label="changed field")
    identity = is_identity(subject.cls, name)

    def differs(value) -> bool:
        if identity:
            return encode(value) != encode(values[name])
        return value != values[name]

    changed = data.draw(subject.values[name].filter(differs), label="new value")
    before = build(subject.cls, values)
    after = build(subject.cls, {**values, name: changed})
    named = diff(subject.identity(before), subject.identity(after))
    if identity:
        assert subject.digest(after) != subject.digest(before)
        if name in subject.flattened:
            # Named by the inner fields that moved (``seed``, not ``spec``).
            inner = {item.name for item in fields(values[name])}
            assert named and set(named) <= inner | subject.derived
        else:
            assert name in named
            assert set(named) <= {name} | subject.derived
    else:
        assert subject.digest(after) == subject.digest(before)
        assert named == []


def test_scenario_defaults_resolve(case_study):
    """``design_options``/``platform`` of ``None`` are the same run as
    the explicit defaults, exactly as the cache keys resolve them."""
    implicit = Scenario("s", list(case_study.apps), case_study.clock, None, RunSpec())
    explicit = Scenario(
        "s",
        list(case_study.apps),
        case_study.clock,
        DesignOptions(),
        RunSpec(platform=Platform(clock=case_study.clock)),
    )
    assert scenario_identity(implicit) == scenario_identity(explicit)


def test_experiment_platform_resolves_to_its_default():
    from repro.platform import shared_paper_platform

    assert _expected_identity("shared_cache", ExperimentRequest()) == (
        _expected_identity(
            "shared_cache", ExperimentRequest(platform=shared_paper_platform())
        )
    )
    assert _expected_identity("table1", ExperimentRequest()) == _expected_identity(
        "table1", ExperimentRequest(platform=Platform())
    )


# ----------------------------------------------------------------------
# Cache keys: every leaf of the problem reaches the key
# ----------------------------------------------------------------------

def bumped(value):
    """A different value of the same kind."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        return next(member for member in type(value) if member is not value)
    if isinstance(value, (int, float, np.ndarray)):
        return value + 1
    if isinstance(value, str):
        return value + "'"
    raise TypeError(f"no bump for {type(value).__name__}")


def leaf_mutations(value, path=()):
    """``(path, root with exactly that leaf changed)`` for every
    identity leaf field of a dataclass tree."""
    for item in fields(value):
        if not item.metadata.get("identity", True):
            continue
        current = getattr(value, item.name)
        if is_dataclass(current):
            nested = leaf_mutations(current, (*path, item.name))
        else:
            nested = [((*path, item.name), bumped(current))]
        for leaf, changed in nested:
            root = copy.copy(value)
            object.__setattr__(root, item.name, changed)
            yield leaf, root


def test_every_problem_leaf_reaches_the_cache_key(case_study):
    apps = list(case_study.apps)
    clock, design, platform = case_study.clock, DesignOptions(), Platform()
    base = problem_digest(apps, clock, design, platform)
    roots = [
        (apps[0], lambda app: problem_digest([app, *apps[1:]], clock, design, platform)),
        (design, lambda changed: problem_digest(apps, clock, changed, platform)),
        (platform, lambda changed: problem_digest(apps, clock, design, changed)),
        (clock, lambda changed: problem_digest(apps, changed, design, platform)),
    ]
    seen = set()
    for root, key in roots:
        for leaf, changed in leaf_mutations(root):
            assert key(changed) != base, leaf
            seen.add(leaf)
    assert {
        ("plant", "a"),
        ("spec", "band_fraction"),
        ("wcets", "warm_cycles"),
        ("stage_b", "n_particles"),
        ("cache", "policy"),
        ("clock", "frequency_hz"),
    } <= seen
