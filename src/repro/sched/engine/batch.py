"""Scenario runner: one co-design problem through its own engine.

A *scenario* is one complete co-design problem — an application set
(plants, tracking constraints, analyzed control programs), a clock and
a design budget — plus the :class:`~repro.study.spec.RunSpec` of the
run to make on it (strategy, starts, seed, cores, platform, allocator,
dynamic profile).  :func:`scenario_engine` opens the engine one runs on
and :func:`search_scenario` runs it there; :class:`~repro.study.Study`
drives scenario lists through the two.

:func:`synthesize_scenarios` generates the deterministic random
workloads of a suite spec by jittering the case study's calibrated
programs, plants and constraints — the scenario-diversity axis of the
roadmap.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ...control.design import DesignOptions, TrackingSpec
from ...errors import ConfigurationError, SearchError
from ...platform import Platform
from ...units import Clock
from ..evaluator import ScheduleEvaluator
from ..feasibility import enumerate_idle_feasible
from ..schedule import PeriodicSchedule
from ..strategies import StrategySpec, get_strategy
from .engine import EngineOptions, SearchEngine

if TYPE_CHECKING:  # repro.study builds on this module
    from ...study.report import RunReport
    from ...study.spec import RunSpec


@dataclass
class Scenario:
    """One co-design problem plus the run to make on it.

    ``spec`` is the :class:`~repro.study.spec.RunSpec` of the run —
    strategy and options, starts, seed, cores, platform, allocator,
    dynamic profile — checked against the scenario's applications and
    stored resolved (:meth:`RunSpec.resolved
    <repro.study.spec.RunSpec.resolved>`: the strategy and allocator
    defaults filled in), so an unknown strategy or allocator name
    raises :class:`~repro.errors.ConfigurationError` listing the
    registered ones.

    ``spec.n_cores > 1`` makes the scenario a *multicore* co-design run
    through :class:`repro.multicore.MulticoreProblem` on the scenario's
    engine; a
    ``spec.dynamic`` profile is simulated through
    :class:`~repro.sim.loop.FeedbackLoop` on the scenario's still-warm
    engine after the static search.

    Its :attr:`identity` and :attr:`problem` digest are computed once,
    on first use, and shared by the run-dir lookup, the engine and the
    report — so do not change a scenario's fields after reading them.
    """

    name: str
    apps: list
    clock: Clock
    design_options: DesignOptions | None
    spec: RunSpec

    def __post_init__(self) -> None:
        self.spec = self.spec.resolved(len(self.apps))

    @cached_property
    def identity(self) -> dict[str, str]:
        """:func:`~repro.study.report.scenario_identity` of this run."""
        # Imported lazily: repro.study builds on this module.
        from ...study.report import scenario_identity

        return scenario_identity(self)

    @cached_property
    def problem(self) -> str:
        """:func:`~repro.study.report.scenario_digest` of this problem —
        the digest its engine keys the persistent cache with."""
        from ...study.report import scenario_digest

        return scenario_digest(self)


@contextmanager
def scenario_engine(
    scenario: Scenario,
    engine_options: EngineOptions | None = None,
    on_event=None,
    evaluator: ScheduleEvaluator | None = None,
) -> Iterator[SearchEngine]:
    """The warm :class:`~repro.sched.engine.SearchEngine` one scenario
    runs on, closed on exit.

    It serves the scenario's whole application set; a multicore run
    sweeps its core blocks as sub-problems of the same engine (see
    :class:`~repro.multicore.MulticoreProblem`).  ``on_event`` receives
    the engine's typed progress events
    (:mod:`repro.sched.engine.events`).  ``evaluator`` is the design
    memo the engine serves the whole problem from (default: a fresh
    one); a :class:`~repro.study.Study` passes one memo to every
    scenario of a problem.  Callers that query the engine's memo after
    the search (the ``multicore`` experiment) hold it open around
    :func:`search_scenario`.
    """
    if evaluator is None:
        evaluator = ScheduleEvaluator(scenario.apps, scenario.clock, scenario.design_options)
    with (engine_options or EngineOptions()).build(
        evaluator, platform=scenario.spec.platform, on_event=on_event, problem=scenario.problem
    ) as engine:
        yield engine


def search_scenario(scenario: Scenario, engine: SearchEngine, on_sim_event=None) -> RunReport:
    """Run the scenario's search (and simulation) on its open engine;
    the run's :class:`~repro.study.RunReport`.

    The strategy resolves through the registry — never by name
    comparison — so a typo'd or unregistered strategy raises
    :class:`~repro.errors.ConfigurationError` naming the valid ones.
    ``on_sim_event`` receives the runtime
    :class:`~repro.sim.events.SimEvent`\\ s of a dynamic scenario's
    feedback-scheduling simulation.
    """
    # Imported lazily: repro.study builds on this module.
    from ...study.report import RunReport

    spec = scenario.spec
    strategy = get_strategy(spec.strategy)
    started = time.perf_counter()
    if spec.n_cores > 1:
        # Imported lazily: repro.multicore builds on repro.sched.
        from ...multicore.partition import MulticoreProblem

        evaluation = MulticoreProblem(engine, spec).optimize()
        return RunReport.from_run(
            scenario,
            engine,
            time.perf_counter() - started,
            engine.stats.n_requested,
            multicore=evaluation,
        )
    space = enumerate_idle_feasible(engine.apps, engine.clock)
    if not space:
        raise SearchError(f"scenario {scenario.name!r}: idle-feasible space is empty")
    strategy_spec = StrategySpec(
        starts=tuple(PeriodicSchedule(counts) for counts in spec.starts or ()) or None,
        n_starts=spec.n_starts,
        seed=spec.seed,
        options=spec.options,
    )
    result = strategy.run(engine, space, strategy_spec)
    sim_report = None
    if spec.dynamic is not None:
        # Imported lazily: repro.sim builds on repro.sched.  The
        # simulation runs on the scenario's still-warm engine, so
        # re-optimizations hit the memo the static search filled.
        from ...sim.loop import FeedbackLoop

        sim_report = FeedbackLoop(
            engine,
            space,
            spec.dynamic,
            result.best,
            strategy.name,
            base_spec=strategy_spec,
            scenario=scenario.name,
            on_sim_event=on_sim_event,
        ).run()
    return RunReport.from_run(
        scenario,
        engine,
        time.perf_counter() - started,
        len(space),
        result=result,
        sim=sim_report,
    )


# ----------------------------------------------------------------------
# Workload synthesis
# ----------------------------------------------------------------------

def synthesize_scenarios(
    suite: RunSpec, design_options: DesignOptions | None = None
) -> list[Scenario]:
    """The deterministic random workloads a ``kind="suite"``
    :class:`~repro.study.spec.RunSpec` describes, derived from the case
    study.

    The suite draws ``suite_size`` scenarios from its ``seed``.  Each
    scenario's spec is the suite's :meth:`RunSpec.suite_scenario
    <repro.study.spec.RunSpec.suite_scenario>`: a single run with the
    scenario's own search seed (``seed + index``), platform and dynamic
    profile, and the suite-level fields back at their defaults — the
    scenario's applications, platform and profile record what they
    drew, so a scenario's identity does not depend on the size of its
    suite.

    ``random_dynamic`` attaches a seeded random
    :class:`~repro.sim.profiles.DynamicProfile` (load transient plus a
    plant mode change; see :func:`repro.sim.profiles.synthesize_profile`)
    to every scenario, so the suite runs the feedback-scheduling
    simulation after each static search.  Each profile is drawn from
    its own ``(seed, index)``-derived stream — the main stream advances
    exactly as in a static suite, so a dynamic suite synthesizes
    bit-identical applications to the static suite of the same seed.

    ``platform`` is the execution platform every scenario is analyzed
    on (``None`` = the paper platform, which reproduces the historical
    suites bit-exactly).  With ``jitter_platform`` each scenario
    additionally draws its own platform around that base (cache sets
    halved/kept/doubled, miss latency and clock frequency jittered);
    the ``analytic`` WCET model makes such huge sweeps orders of
    magnitude cheaper.

    ``n_cores > 1`` synthesizes *multicore* scenarios: same jittered
    application sets, each co-designed over partitions onto that many
    cores.  A scenario that drew fewer applications than ``n_cores`` is
    clamped to one core per application — the suite stays runnable —
    and a scenario clamped to one core drops the multicore-only
    ``shared_cache``/``allocator`` choices.  The synthesized
    applications are identical for every ``n_cores``, so single-core
    and multicore sweeps of one seed share sub-problem digests (and
    therefore persistent-cache entries) wherever blocks coincide.

    Every scenario jitters the calibrated control programs (loop trip
    counts and body sizes, re-analyzed through the cache/WCET pipeline),
    the plant resonances/damping and the Table-II constraints, then
    bundles ``n_apps_choices`` such applications with normalized
    weights.  The jitters are small enough that the idle-feasible space
    stays non-empty and the designs stay feasible, but large enough
    that optima move between scenarios.
    """
    # Imported lazily: repro.apps builds on repro.sched, so a module-level
    # import would be circular.
    from ...apps.brake import wedge_brake_plant
    from ...apps.casestudy import PAPER_TABLE2, TRACKING_SCENARIOS
    from ...apps.motors import dc_motor_speed_plant, servo_position_plant
    from ...apps.programs import PROGRAM_SHAPES, program_parameters
    from ...cache.memory import FlashLayout
    from ...core.application import ControlApplication
    from ...program.synth import make_control_program
    from ...wcet.reuse import analyze_task_wcets

    suite.validate()
    if suite.kind != "suite":
        raise ConfigurationError(
            f"synthesize_scenarios needs a kind='suite' spec, got kind={suite.kind!r}"
        )
    plant_builders = {
        "C1": servo_position_plant,
        "C2": dc_motor_speed_plant,
        "C3": wedge_brake_plant,
    }
    seed = suite.seed
    rng = np.random.default_rng(seed)
    base_platform = suite.platform or Platform()
    scenarios = []
    for index in range(suite.suite_size):
        if suite.jitter_platform:
            scenario_platform = _jittered_platform(rng, base_platform)
        else:
            scenario_platform = base_platform
        clock = scenario_platform.clock
        cache_config = scenario_platform.cache
        n_apps = int(rng.choice(suite.n_apps_choices))
        templates = list(rng.choice([s.name for s in PROGRAM_SHAPES], size=n_apps, replace=False))
        raw_weights = rng.uniform(0.5, 1.5, size=n_apps)
        weights = raw_weights / raw_weights.sum()
        # Exact-sum normalization: make the last weight close the total
        # so check_weights' 1e-9 tolerance is met bit-exactly.
        weights[-1] = 1.0 - float(weights[:-1].sum())
        layout = FlashLayout(cache_config, base=0)
        apps = []
        for position, template in enumerate(templates):
            shape = program_parameters(template)
            program = make_control_program(
                f"{template}s{index}",
                init_instr=shape.init_instr,
                body_instr=int(shape.body_instr * rng.uniform(0.85, 1.1)),
                iterations=max(2, int(shape.iterations * rng.uniform(0.8, 1.2))),
                exit_instr=shape.exit_instr,
            )
            region = layout.allocate(program.name, program.size_bytes)
            program.place(region.base)
            wcets = analyze_task_wcets(
                program, cache_config, scenario_platform.wcet_model
            )
            weight, deadline, max_idle = PAPER_TABLE2[template]
            y0, r, u_max = TRACKING_SCENARIOS[template]
            plant = plant_builders[template](
                natural_frequency=_jitter(rng, _default_frequency(template), 0.06),
                damping=_jitter(rng, _default_damping(template), 0.08),
            )
            apps.append(
                ControlApplication(
                    name=program.name,
                    plant=plant,
                    spec=TrackingSpec(
                        r=r,
                        y0=y0,
                        u_max=u_max,
                        deadline=deadline * float(rng.uniform(1.0, 1.3)),
                    ),
                    weight=float(weights[position]),
                    max_idle=max_idle * float(rng.uniform(1.0, 1.25)),
                    wcets=wcets,
                    program=program,
                )
            )
        scenario_cores = min(suite.n_cores, len(apps))
        # Only a clamp can make a multicore suite's scenario single-core
        # (a single-core suite carrying multicore choices fails validation).
        multicore = scenario_cores > 1
        profile = None
        if suite.random_dynamic:
            # Imported lazily: repro.sim builds on repro.sched.
            from ...sim.profiles import synthesize_profile

            # Drawn from a per-scenario derived stream, not `rng`: the
            # main stream must advance exactly as in a static suite so
            # a dynamic suite synthesizes bit-identical applications.
            profile = synthesize_profile(np.random.default_rng((seed, index)), n_apps)
        spec = suite.suite_scenario(
            seed=seed + index,
            n_cores=scenario_cores,
            platform=scenario_platform,
            shared_cache=suite.shared_cache and multicore,
            allocator=suite.allocator if multicore else None,
            allocator_options=suite.allocator_options if multicore else None,
            dynamic=profile,
        )
        scenarios.append(Scenario(f"synth-{index:03d}", apps, clock, design_options, spec))
    return scenarios


def _jitter(rng: np.random.Generator, value: float, fraction: float) -> float:
    """``value`` scaled by a uniform factor in ``1 +- fraction``."""
    return value * float(rng.uniform(1.0 - fraction, 1.0 + fraction))


def _jittered_platform(
    rng: np.random.Generator, base: Platform
) -> Platform:
    """One scenario's platform drawn around ``base``.

    The cache stays a valid power-of-two geometry (sets halved, kept or
    doubled), the miss latency moves by up to ±30 % (never below the
    hit latency) and the clock by -20 %/+25 % — wide enough that optima
    and idle-feasible spaces move, narrow enough that the calibrated
    workloads stay schedulable.
    """
    sets_factor = int(rng.choice([-1, 0, 1]))
    n_sets = base.cache.n_sets // 2 if sets_factor < 0 else base.cache.n_sets * (1 << sets_factor)
    n_sets = max(16, n_sets)
    miss_cycles = max(
        base.cache.hit_cycles + 1,
        int(round(base.cache.miss_cycles * float(rng.uniform(0.7, 1.3)))),
    )
    frequency = base.clock.frequency_hz * float(rng.uniform(0.8, 1.25))
    return Platform(
        cache=replace(base.cache, n_sets=int(n_sets), miss_cycles=miss_cycles),
        clock=Clock(frequency),
        wcet_model=base.wcet_model,
    )


def _default_frequency(template: str) -> float:
    from ...apps import brake, motors

    return {
        "C1": motors.SERVO_NATURAL_FREQUENCY,
        "C2": motors.DRIVELINE_NATURAL_FREQUENCY,
        "C3": brake.WEDGE_NATURAL_FREQUENCY,
    }[template]


def _default_damping(template: str) -> float:
    from ...apps import brake, motors

    return {
        "C1": motors.SERVO_DAMPING,
        "C2": motors.DRIVELINE_DAMPING,
        "C3": brake.WEDGE_DAMPING,
    }[template]
