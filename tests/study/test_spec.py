"""One run spec behind the CLI, the server and the Study builders.

Properties: every run the ``search``/``batch``/``multicore`` flags can
express round-trips through the server's ``JobSpec`` wire form, and
``Study.from_spec`` builds the very scenarios the commands built when
they spelled their keyword pass-through by hand.  The run commands'
option strings and defaults are pinned, so a parser generated from the
spec metadata cannot drift silently.
"""

import argparse
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.__main__ import build_parser
from repro.apps import build_case_study
from repro.cache.config import CacheConfig
from repro.errors import ConfigurationError
from repro.experiments.profiles import design_options_for_profile
from repro.multicore.allocators import GreedyAllocatorOptions, replicate_apps
from repro.platform import Platform, shared_paper_platform
from repro.sched.engine.batch import Scenario, synthesize_scenarios
from repro.sched.hybrid import HybridOptions
from repro.sched.strategies.builtin import AnnealingOptions
from repro.serve.jobs import JobSpec
from repro.sim import load_transient
from repro.study import RunSpec, Study
from repro.study.report import scenario_identity
from repro.study.spec import spec_from_args
from repro.units import Clock

_ENGINE_FLAGS = {
    "--json": False,
    "--run-dir": None,
    "--workers": 0,
    "--cache-dir": None,
    "--progress": False,
}
_PLATFORM_FLAGS = {
    "--wcet-model": None,
    "--cache-sets": None,
    "--cache-ways": None,
    "--miss-cycles": None,
    "--clock-mhz": None,
}

#: Every run command's option strings and defaults, as they were when
#: each command spelled its flags by hand.
PINNED_FLAGS = {
    "search": {
        "--starts": None, "--strategy": None, **_ENGINE_FLAGS, **_PLATFORM_FLAGS,
    },
    "batch": {
        "--suite-size": 4, "--seed": 2018, "--cores": 1,
        "--jitter-platform": False, "--shared-cache": False,
        "--dynamic": False, "--allocator": None, "--strategy": None,
        **_ENGINE_FLAGS, **_PLATFORM_FLAGS,
    },
    "multicore": {
        "--cores": 2, "--max-count-per-core": 6, "--shared-cache": False,
        "--apps": None, "--allocator": None, "--strategy": None,
        **_ENGINE_FLAGS, **_PLATFORM_FLAGS,
    },
    "simulate": {
        "--horizon": 1.0, "--stress": 1.46, "--disturb-at": None,
        "--recover-at": None, "--adapt-strategy": None, "--no-adapt": False,
        "--strategy": None, **_ENGINE_FLAGS, **_PLATFORM_FLAGS,
    },
    "experiment": {
        "name": None, "--out": None, "--max-count-per-core": 6,
        "--strategy": None, **_ENGINE_FLAGS, **_PLATFORM_FLAGS,
    },
    "submit": {
        "--server": "http://127.0.0.1:8765", "--starts": None,
        "--n-starts": 2, "--seed": 2018, "--cores": 1,
        "--max-count-per-core": 6, "--shared-cache": False,
        "--allocator": None, "--suite-size": None, "--no-resume": False,
        "--strategy": None, "--json": False,
        **_PLATFORM_FLAGS,
    },
}

#: Flags ``submit`` gained when it started taking every run flag.
SUBMIT_GAINED = {"--apps": None, "--jitter-platform": False, "--dynamic": False}


def _command_flags(command: str) -> dict:
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        (" ".join(action.option_strings) or action.dest): action.default
        for action in sub.choices[command]._actions
        if not isinstance(action, argparse._HelpAction)
    }


@pytest.mark.parametrize("command", sorted(PINNED_FLAGS))
def test_run_command_flags_are_pinned(command):
    expected = dict(PINNED_FLAGS[command])
    if command == "submit":
        expected.update(SUBMIT_GAINED)
    assert _command_flags(command) == expected


def test_submit_gains_only_run_command_flags():
    run_flags = {
        flag
        for command in ("search", "batch", "multicore", "simulate")
        for flag in _command_flags(command)
    }
    assert set(SUBMIT_GAINED) <= run_flags


# ----------------------------------------------------------------------
# The commands' pre-RunSpec keyword pass-through, as the oracle
# ----------------------------------------------------------------------
def _hand_platform(args, shared=False):
    flags = (args.wcet_model, args.cache_sets, args.cache_ways,
             args.miss_cycles, args.clock_mhz)
    if not shared and all(value is None for value in flags):
        return None
    default = shared_paper_platform().cache if shared else CacheConfig()
    cache = replace(
        default,
        n_sets=args.cache_sets if args.cache_sets is not None else default.n_sets,
        associativity=(
            args.cache_ways if args.cache_ways is not None else default.associativity
        ),
        miss_cycles=(
            args.miss_cycles if args.miss_cycles is not None else default.miss_cycles
        ),
    )
    clock = Clock(args.clock_mhz * 1e6) if args.clock_mhz is not None else Clock(20e6)
    return Platform(cache=cache, clock=clock, wcet_model=args.wcet_model or "static")


def _hand_case_study(design, platform, n_apps=None, **run):
    case = build_case_study(platform=platform)
    apps = case.apps if n_apps is None else replicate_apps(case.apps, n_apps)
    spec = RunSpec(platform=platform, n_apps=n_apps, **run)
    return [Scenario("casestudy", apps, case.clock, design, spec)]


def _hand_scenarios(command, args):
    """The scenarios ``command`` builds from its flags, with each
    flag's field listed by hand (the keyword lists of the old
    ``cmd_*`` functions)."""
    design = design_options_for_profile()
    if command == "search":
        starts = tuple(args.starts) if args.starts else None
        return _hand_case_study(
            design, _hand_platform(args), strategy=args.strategy, starts=starts
        )
    platform = _hand_platform(args, shared=args.shared_cache)
    if command == "batch":
        suite = RunSpec(
            kind="suite", suite_size=args.suite_size, seed=args.seed,
            strategy=args.strategy, n_cores=args.n_cores, platform=platform,
            jitter_platform=args.jitter_platform,
            shared_cache=args.shared_cache, allocator=args.allocator,
            random_dynamic=args.random_dynamic,
        )
        return synthesize_scenarios(suite, design)
    return _hand_case_study(
        design, platform, n_apps=args.n_apps, strategy=args.strategy,
        n_cores=args.n_cores, max_count_per_core=args.max_count_per_core,
        shared_cache=args.shared_cache, allocator=args.allocator,
    )


def _optional(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, str(v)]))


def _switch(flag):
    return st.sampled_from([[], [flag]])


_STRATEGY = _optional("--strategy", ["hybrid", "exhaustive", "annealing"])
_PLATFORM = st.tuples(
    _optional("--wcet-model", ["static", "analytic"]),
    _optional("--cache-sets", [32, 64, 128]),
    _optional("--cache-ways", [1, 2, 4]),
    _optional("--miss-cycles", [50, 100]),
    _optional("--clock-mhz", [16, 20.0, 25]),
)
_ALLOCATOR = _optional("--allocator", ["greedy", "scored", "exhaustive"])
_STARTS = st.one_of(
    st.just([]),
    st.lists(
        st.tuples(*[st.integers(1, 4)] * 3).map(lambda c: ",".join(map(str, c))),
        min_size=1, max_size=2,
    ).map(lambda starts: ["--starts", *starts]),
)


@st.composite
def run_argv(draw):
    """A ``search``/``batch``/``multicore`` command line."""
    command = draw(st.sampled_from(["search", "batch", "multicore"]))
    parts = [draw(_STRATEGY), *draw(_PLATFORM)]
    if command == "search":
        parts.append(draw(_STARTS))
    elif command == "batch":
        parts += [
            draw(_optional("--suite-size", [1, 2])),
            draw(_optional("--seed", [3, 2018])),
            draw(_optional("--cores", [1, 2])),
            draw(_switch("--jitter-platform")),
            draw(_switch("--shared-cache")),
            draw(_switch("--dynamic")),
            draw(_ALLOCATOR),
        ]
    else:
        parts += [
            draw(_optional("--cores", [1, 2, 3, 4])),
            draw(_optional("--max-count-per-core", [2, 6])),
            draw(_switch("--shared-cache")),
            draw(_optional("--apps", [3, 4, 6])),
            draw(_ALLOCATOR),
        ]
    return [command, *(token for part in parts for token in part)]


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=run_argv())
def test_cli_and_server_express_the_same_runs(argv):
    args = build_parser().parse_args(argv)
    values = spec_from_args(args)

    # The server's wire form carries the run losslessly.
    job = JobSpec(**values)
    assert JobSpec.from_dict(job.to_dict()) == job
    assert RunSpec.from_dict(RunSpec(**values).to_dict()) == RunSpec(**values)

    # ... and builds the scenarios the command always built.
    try:
        expected = [scenario_identity(s) for s in _hand_scenarios(argv[0], args)]
    except ConfigurationError:
        with pytest.raises(ConfigurationError):
            Study.from_spec(job, design_options_for_profile())
        return
    study = Study.from_spec(job, design_options_for_profile())
    assert [scenario_identity(s) for s in study.scenarios] == expected


CASE = build_case_study()


@st.composite
def case_study_specs(draw):
    """``kind="search"`` specs, valid or not, around the app-count rules."""
    n_apps = draw(st.sampled_from([None, 3, 4]))
    width = draw(st.integers(2, 5))
    return RunSpec(
        strategy=draw(st.sampled_from([None, "hybrid", "exhaustive", "nope"])),
        options=draw(st.sampled_from([None, HybridOptions(), AnnealingOptions()])),
        starts=draw(
            st.none()
            | st.lists(
                st.tuples(*[st.integers(0, 3)] * width), min_size=1, max_size=2
            ).map(tuple)
        ),
        n_starts=draw(st.integers(0, 2)),
        n_cores=draw(st.integers(0, 5)),
        max_count_per_core=draw(st.integers(0, 2)),
        platform=draw(st.sampled_from([None, shared_paper_platform()])),
        shared_cache=draw(st.booleans()),
        allocator=draw(st.sampled_from([None, "greedy", "bogus"])),
        n_apps=n_apps,
        dynamic=draw(st.none() | st.integers(2, 5).map(load_transient)),
    )


@settings(max_examples=200, deadline=None)
@given(spec=case_study_specs())
def test_scenario_accepts_exactly_the_valid_specs(spec):
    """A Scenario over ``spec.app_count`` applications accepts exactly
    the specs ``spec.validate()`` accepts: one rule set, no copy."""
    try:
        spec.validate()
        valid = True
    except ConfigurationError:
        valid = False
    apps = replicate_apps(CASE.apps, spec.app_count) if spec.n_apps else CASE.apps
    try:
        scenario = Scenario("s", apps, CASE.clock, None, spec)
    except ConfigurationError:
        assert not valid
        return
    assert valid
    # Stored resolved: the run-type defaults are filled in.
    assert scenario.spec.strategy is not None
    assert (scenario.spec.allocator is not None) == (spec.n_cores > 1)


def test_round_trip_of_option_objects_and_profiles():
    spec = RunSpec(
        strategy="annealing",
        options=AnnealingOptions(cooling=0.5),
        n_cores=1,
        dynamic=load_transient(3, stress=1.2),
        platform=shared_paper_platform(),
    )
    assert RunSpec.from_json(spec.to_json()) == spec
    multicore = RunSpec(
        n_cores=2, allocator="greedy",
        allocator_options=GreedyAllocatorOptions(max_partitions=8),
    )
    assert RunSpec.from_dict(multicore.to_dict()) == multicore
    assert multicore.validate() is multicore


#: The paper cache, stated explicitly: direct-mapped (one way).
ONE_WAY = Platform(cache=CacheConfig(associativity=1))


@pytest.mark.parametrize("kind", ["search", "suite"])
def test_shared_cache_rejects_an_explicit_one_way_platform(kind):
    spec = RunSpec(kind=kind, n_cores=2, shared_cache=True, platform=ONE_WAY)
    with pytest.raises(ConfigurationError, match="associativity >= 2, got 1"):
        spec.validate()
    assert replace(spec, platform=shared_paper_platform()).validate()


@pytest.mark.parametrize("kind", ["search", "suite"])
def test_shared_cache_rejects_an_omitted_platform(kind):
    """No platform is the direct-mapped paper platform: the run fails
    when it is built, not when its co-design starts."""
    with pytest.raises(ConfigurationError, match="associativity >= 2, got 1"):
        RunSpec(kind=kind, n_cores=2, shared_cache=True).validate()
    with pytest.raises(ConfigurationError, match="associativity >= 2, got 1"):
        Study.from_case_study(n_cores=2, shared_cache=True)


_FIELDS = [item.name for item in fields(RunSpec)]

#: A value of the wrong type for every field.
_WRONG = {
    "kind": 3,
    "strategy": ["hybrid"],
    "options": "fast",
    "starts": "4,2,2",
    "n_starts": "2",
    "seed": 20.18,
    "n_cores": True,
    "max_count_per_core": None,
    "platform": "paper",
    "shared_cache": "yes",
    "allocator": 1,
    "allocator_options": [1],
    "n_apps": "4",
    "dynamic": 1.0,
    "suite_size": [4],
    "n_apps_choices": 2,
    "jitter_platform": 0,
    "random_dynamic": None,
}


def test_wrong_type_table_covers_every_field():
    assert set(_WRONG) == set(_FIELDS)


@given(
    name=st.text(min_size=1, max_size=12).filter(lambda n: n not in _FIELDS),
    value=st.one_of(st.none(), st.integers(), st.text(max_size=5)),
)
def test_from_dict_rejects_unknown_fields(name, value):
    with pytest.raises(ConfigurationError, match="unknown RunSpec field"):
        RunSpec.from_dict({name: value})


@given(name=st.sampled_from(_FIELDS))
def test_from_dict_rejects_wrong_types(name):
    with pytest.raises(ConfigurationError, match=name):
        RunSpec.from_dict({name: _WRONG[name]})


def test_from_dict_rejects_bad_option_fields():
    with pytest.raises(ConfigurationError, match="options"):
        RunSpec.from_dict({"strategy": "hybrid", "options": {"nope": 1}})
    with pytest.raises(ConfigurationError, match="options"):
        RunSpec.from_dict({"strategy": "hybrid", "options": {"max_steps": 0}})
