"""Batch scenario runner: sweep whole suites through the engine.

A *scenario* is one complete co-design problem — an application set
(plants, tracking constraints, analyzed control programs), a clock and
a design budget — plus the registered search strategy to run on it
(see :mod:`repro.sched.strategies`).  The runner executes a suite of
scenarios through one :class:`EngineOptions` configuration, so a single
invocation can e.g. re-search fifty synthesized workloads with eight
workers and a shared persistent cache (``python -m repro batch ...``).

:func:`synthesize_scenarios` generates deterministic random workloads by
jittering the case study's calibrated programs, plants and constraints —
the scenario-diversity axis of the roadmap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ...control.design import DesignOptions, TrackingSpec
from ...errors import ConfigurationError, SearchError
from ...platform import Platform
from ...units import Clock
from ..evaluator import ScheduleEvaluator
from ..feasibility import enumerate_idle_feasible
from ..results import SearchResult
from ..schedule import PeriodicSchedule
from ..strategies import StrategySpec, get_strategy
from .engine import EngineOptions


@dataclass
class Scenario:
    """One co-design problem plus the search strategy to run on it.

    ``strategy`` names a registered search strategy
    (:func:`repro.sched.strategies.available_strategies` lists them);
    ``None`` picks the default for the run type — ``"hybrid"`` for
    single-core scenarios, ``"exhaustive"`` (per core) for multicore
    ones.  Unknown names raise
    :class:`~repro.errors.ConfigurationError` listing the registered
    strategies.

    ``n_cores > 1`` makes the scenario a *multicore* co-design: the
    runner routes it through :class:`repro.multicore.MulticoreProblem`
    (partition sweep, per-core schedule search with ``strategy``).
    ``shared_cache=True`` additionally co-optimizes the per-core way
    allocation of the platform's shared set-associative cache.

    ``platform`` declares the :class:`~repro.platform.Platform` the
    applications' WCETs were analyzed on (``None`` = the paper
    platform at the scenario's clock); it flows into the engine's
    persistent-cache keys and the run report.

    ``allocator`` names the registered partition allocator a multicore
    scenario draws its partitions from (``None`` = ``"exhaustive"``;
    see :mod:`repro.multicore.allocators`), ``allocator_options`` its
    options dataclass; both are meaningless — and rejected — for
    single-core scenarios.

    ``dynamic`` makes the scenario a *feedback-scheduling* one: after
    the static search, the attached
    :class:`~repro.sim.profiles.DynamicProfile` is simulated through
    :class:`~repro.sim.loop.FeedbackLoop` on the scenario's (still
    warm) engine, and the outcome carries the resulting
    :class:`~repro.sim.report.SimReport`.  Dynamic scenarios are
    single-core only.
    """

    name: str
    apps: list
    clock: Clock
    design_options: DesignOptions | None = None
    strategy: str | None = None
    starts: tuple[PeriodicSchedule, ...] | None = None
    n_starts: int = 2
    seed: int = 2018
    n_cores: int = 1
    options: object | None = None
    max_count_per_core: int = 6
    platform: Platform | None = None
    shared_cache: bool = False
    allocator: str | None = None
    allocator_options: object | None = None
    dynamic: object | None = None

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ConfigurationError(
                f"need at least one core, got {self.n_cores}"
            )
        if self.n_cores > len(self.apps):
            raise ConfigurationError(
                f"scenario {self.name!r}: {self.n_cores} cores for "
                f"{len(self.apps)} applications — n_cores must be between 1 "
                f"and n_apps"
            )
        if self.shared_cache and self.n_cores < 2:
            raise ConfigurationError(
                "shared_cache=True is a multicore co-design; it needs n_cores >= 2"
            )
        if self.n_cores > 1:
            # Imported lazily: repro.multicore builds on repro.sched.
            from ...multicore.allocators import get_allocator

            self.allocator = self.allocator or "exhaustive"
            get_allocator(self.allocator)  # fail fast on unknown names
        elif self.allocator is not None:
            raise ConfigurationError(
                "partition allocators apply to multicore scenarios only "
                f"(n_cores >= 2); scenario {self.name!r} has n_cores=1"
            )
        if self.strategy is None:
            self.strategy = "hybrid" if self.n_cores == 1 else "exhaustive"
        get_strategy(self.strategy)  # fail fast on unknown names
        if self.dynamic is not None:
            # Imported lazily: repro.sim builds on repro.sched.
            from ...sim.profiles import DynamicProfile

            if not isinstance(self.dynamic, DynamicProfile):
                raise ConfigurationError(
                    f"scenario {self.name!r}: dynamic= takes a "
                    f"DynamicProfile, got {type(self.dynamic).__name__}"
                )
            if self.n_cores > 1:
                raise ConfigurationError(
                    f"scenario {self.name!r}: feedback-scheduling "
                    "simulation is single-core only (n_cores=1)"
                )
            self.dynamic.check_apps(len(self.apps))


@dataclass
class ScenarioOutcome:
    """Result and bookkeeping of one scenario run.

    Exactly one of ``result`` (single-core searches) and ``multicore``
    (partition sweeps) is set.
    """

    name: str
    strategy: str
    result: SearchResult | None
    wall_time: float
    n_space: int
    engine_stats: dict = field(default_factory=dict)
    backend: str = "serial"
    n_apps: int = 0
    n_cores: int = 1
    multicore: "MulticoreEvaluation | None" = None
    #: The feedback-scheduling simulation report of a dynamic scenario
    #: (:class:`~repro.sim.report.SimReport`), ``None`` otherwise.
    sim: "SimReport | None" = None

    @property
    def best_schedule(self):
        """The optimal schedule — or the per-core schedules (multicore)."""
        if self.multicore is not None:
            return tuple(core.schedule for core in self.multicore.cores)
        return self.result.best_schedule

    @property
    def best_overall(self) -> float:
        if self.multicore is not None:
            return self.multicore.overall
        return self.result.best_value


def run_scenario(
    scenario: Scenario,
    engine_options: EngineOptions | None = None,
    on_event=None,
    on_sim_event=None,
) -> ScenarioOutcome:
    """Run one scenario through a fresh engine.

    The scenario's ``strategy`` is resolved through the strategy
    registry — never by name comparison — so a typo'd or unregistered
    strategy raises :class:`~repro.errors.ConfigurationError` naming
    the valid strategies instead of silently running some default.

    ``on_event`` receives the engine's typed progress events
    (:mod:`repro.sched.engine.events`) while the search runs; the
    ``Study`` facade wraps them into scenario-tagged study events.
    ``on_sim_event`` receives the runtime
    :class:`~repro.sim.events.SimEvent`\\ s of a dynamic scenario's
    feedback-scheduling simulation (ignored for static scenarios).
    """
    options = engine_options or EngineOptions()
    strategy = get_strategy(scenario.strategy)
    if scenario.n_cores > 1:
        return _run_multicore_scenario(scenario, options, on_event)
    evaluator = ScheduleEvaluator(
        scenario.apps, scenario.clock, scenario.design_options
    )
    with options.build(
        evaluator, platform=scenario.platform, on_event=on_event
    ) as engine:
        started = time.perf_counter()
        space = enumerate_idle_feasible(engine.apps, engine.clock)
        if not space:
            raise SearchError(
                f"scenario {scenario.name!r}: idle-feasible space is empty"
            )
        spec = StrategySpec(
            starts=tuple(scenario.starts) if scenario.starts else None,
            n_starts=scenario.n_starts,
            seed=scenario.seed,
            options=scenario.options,
        )
        result = strategy.run(engine, space, spec)
        sim_report = None
        if scenario.dynamic is not None:
            # Imported lazily: repro.sim builds on repro.sched.  The
            # simulation runs on the scenario's still-warm engine, so
            # re-optimizations hit the memo the static search filled.
            from ...sim.loop import FeedbackLoop

            sim_report = FeedbackLoop(
                engine,
                space,
                scenario.dynamic,
                result.best,
                strategy.name,
                base_spec=spec,
                scenario=scenario.name,
                on_sim_event=on_sim_event,
            ).run()
        wall_time = time.perf_counter() - started
        return ScenarioOutcome(
            name=scenario.name,
            strategy=strategy.name,
            result=result,
            wall_time=wall_time,
            n_space=len(space),
            engine_stats=engine.stats.as_dict(),
            backend=engine.backend_name,
            n_apps=len(scenario.apps),
            sim=sim_report,
        )


def _run_multicore_scenario(
    scenario: Scenario, options: EngineOptions, on_event=None
) -> ScenarioOutcome:
    """Run a multicore scenario through the search engine."""
    # Imported lazily: repro.multicore builds on repro.sched, so a
    # module-level import would be circular.
    from ...multicore.partition import MulticoreProblem

    with MulticoreProblem(
        scenario.apps,
        scenario.clock,
        scenario.n_cores,
        scenario.design_options,
        max_count_per_core=scenario.max_count_per_core,
        workers=options.workers,
        cache_dir=options.cache_dir,
        platform=scenario.platform,
        shared_cache=scenario.shared_cache,
        on_event=on_event,
        allocator=scenario.allocator,
        allocator_options=scenario.allocator_options,
    ) as problem:
        started = time.perf_counter()
        evaluation = problem.optimize(
            strategy=scenario.strategy,
            n_starts=scenario.n_starts,
            seed=scenario.seed,
            options=scenario.options,
        )
        wall_time = time.perf_counter() - started
        return ScenarioOutcome(
            name=scenario.name,
            strategy=scenario.strategy,
            result=None,
            wall_time=wall_time,
            n_space=problem.engine.stats.n_requested,
            engine_stats=problem.engine.stats.as_dict(),
            backend=problem.engine.backend_name,
            n_apps=len(scenario.apps),
            n_cores=scenario.n_cores,
            multicore=evaluation,
        )


def run_batch(
    scenarios: list[Scenario], engine_options: EngineOptions | None = None
) -> list[ScenarioOutcome]:
    """Run a suite of scenarios under one engine configuration.

    Each scenario gets its own engine (its own worker pool and memo) but
    all of them share the persistent cache directory, so overlapping
    scenarios — reruns, ablation sweeps — warm-start each other.
    """
    return [run_scenario(scenario, engine_options) for scenario in scenarios]


# ----------------------------------------------------------------------
# Workload synthesis
# ----------------------------------------------------------------------

def synthesize_scenarios(
    n_scenarios: int,
    seed: int = 2018,
    strategy: str | None = None,
    design_options: DesignOptions | None = None,
    n_apps_choices: tuple[int, ...] = (2, 3),
    n_cores: int = 1,
    platform: Platform | None = None,
    jitter_platform: bool = False,
    shared_cache: bool = False,
    allocator: str | None = None,
    allocator_options: object | None = None,
    dynamic: bool = False,
) -> list[Scenario]:
    """Deterministic random workloads derived from the case study.

    ``strategy`` names a registered search strategy (``None`` = the
    run-type default).

    ``dynamic=True`` attaches a seeded random
    :class:`~repro.sim.profiles.DynamicProfile` (load transient plus a
    plant mode change; see :func:`repro.sim.profiles.synthesize_profile`)
    to every scenario, so the suite runs the feedback-scheduling
    simulation after each static search.  Dynamic suites are
    single-core only; each profile is drawn from its own
    ``(seed, index)``-derived stream — the main stream advances exactly
    as in a static suite, so a ``dynamic=True`` suite synthesizes
    bit-identical applications to the static suite of the same seed.

    ``platform`` is the execution platform every scenario is analyzed
    on — cache geometry, clock and WCET model (``None`` = the paper
    platform, which reproduces the historical suites bit-exactly).
    With ``jitter_platform=True`` each scenario additionally draws its
    own platform around that base (cache sets halved/kept/doubled,
    miss latency and clock frequency jittered), opening the
    scenario-diversity axis to the platform itself; the ``analytic``
    WCET model makes such huge sweeps orders of magnitude cheaper.

    ``n_cores > 1`` synthesizes *multicore* scenarios: same jittered
    application sets, but each is co-designed over partitions onto that
    many cores instead of searched on one shared core
    (``shared_cache=True`` co-optimizes the way allocation of the
    platform's shared cache, ``allocator``/``allocator_options`` pick
    the registered partition allocator).  A scenario that drew fewer
    applications than ``n_cores`` is clamped to one core per
    application — the suite stays runnable while explicit
    ``MulticoreProblem``/CLI invocations fail fast on the same
    mismatch.  The synthesized applications are identical for every
    ``n_cores``, so single-core and multicore sweeps of one seed share
    sub-problem digests (and therefore persistent-cache entries)
    wherever blocks coincide.

    Every scenario jitters the calibrated control programs (loop trip
    counts and body sizes, re-analyzed through the cache/WCET pipeline),
    the plant resonances/damping and the Table-II constraints, then
    bundles 2-3 such applications with normalized weights.  The jitters
    are small enough that the idle-feasible space stays non-empty and
    the designs stay feasible, but large enough that optima move between
    scenarios.
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

    if n_scenarios < 1:
        raise SearchError(f"need at least one scenario, got {n_scenarios}")
    if dynamic and n_cores > 1:
        raise ConfigurationError(
            "dynamic=True synthesizes feedback-scheduling scenarios, "
            f"which are single-core only; got n_cores={n_cores}"
        )
    plant_builders = {
        "C1": servo_position_plant,
        "C2": dc_motor_speed_plant,
        "C3": wedge_brake_plant,
    }
    rng = np.random.default_rng(seed)
    base_platform = platform or Platform()
    scenarios = []
    for index in range(n_scenarios):
        if jitter_platform:
            scenario_platform = _jittered_platform(rng, base_platform)
        else:
            scenario_platform = base_platform
        clock = scenario_platform.clock
        cache_config = scenario_platform.cache
        n_apps = int(rng.choice(n_apps_choices))
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
        scenario_cores = min(n_cores, len(apps))
        # Multicore-only options are dropped only when the *clamp*
        # reduced the scenario to one core; an explicitly requested
        # single-core suite still fails fast in Scenario validation.
        clamped_single = n_cores > 1 and scenario_cores == 1
        profile = None
        if dynamic:
            # Imported lazily: repro.sim builds on repro.sched.
            from ...sim.profiles import synthesize_profile

            # Drawn from a per-scenario derived stream, not `rng`: the
            # main stream must advance exactly as in a static suite so
            # dynamic=True synthesizes bit-identical applications.
            profile = synthesize_profile(
                np.random.default_rng((seed, index)), n_apps
            )
        scenarios.append(
            Scenario(
                name=f"synth-{index:03d}",
                apps=apps,
                clock=clock,
                design_options=design_options,
                strategy=strategy,
                seed=seed + index,
                n_cores=scenario_cores,
                platform=scenario_platform,
                shared_cache=shared_cache and not clamped_single,
                allocator=None if clamped_single else allocator,
                allocator_options=(
                    None if clamped_single else allocator_options
                ),
                dynamic=profile,
            )
        )
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
