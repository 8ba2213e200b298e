"""The two-stage co-design on a scenario's engine (quick design profile).

Stage 1 evaluates a schedule by designing every application's
controller; stage 2 searches the idle-feasible schedule space with a
registered strategy.  Both run on the engine
:func:`~repro.sched.engine.batch.scenario_engine` opens for a scenario.
"""

import pytest

from repro.errors import ConfigurationError
from repro.sched import (
    PeriodicSchedule,
    StrategySpec,
    enumerate_idle_feasible,
    get_strategy,
    idle_feasible,
)
from repro.sched.engine.batch import Scenario, scenario_engine
from repro.study import RunSpec


@pytest.fixture(scope="module")
def case():
    from repro.apps import build_case_study

    return build_case_study()


@pytest.fixture(scope="module")
def quick():
    from repro.control.design import DesignOptions
    from repro.control.pso import PsoOptions

    return DesignOptions(restarts=1, stage_a=PsoOptions(10, 10), stage_b=PsoOptions(12, 10))


@pytest.fixture(scope="module")
def engine(case, quick):
    scenario = Scenario("codesign", case.apps, case.clock, quick, RunSpec())
    with scenario_engine(scenario) as engine:
        yield engine


def optimize(engine, strategy: str, **spec):
    """Stage 2: ``strategy`` over the engine's idle-feasible space."""
    space = enumerate_idle_feasible(engine.apps, engine.clock)
    return get_strategy(strategy).run(engine, space, StrategySpec(**spec))


class TestStageOne:
    def test_evaluate_and_cache(self, engine):
        first = engine.evaluate(PeriodicSchedule.of(1, 1, 1))
        second = engine.evaluate(PeriodicSchedule.of(1, 1, 1))
        assert first is second
        assert first.feasible

    def test_schedule_space_cached(self, case):
        space1 = enumerate_idle_feasible(case.apps, case.clock)
        space2 = enumerate_idle_feasible(case.apps, case.clock)
        assert space1 == space2
        assert len(space1) == 77

    def test_idle_feasible(self, case):
        assert idle_feasible(PeriodicSchedule.of(3, 2, 3), case.apps, case.clock)
        assert not idle_feasible(PeriodicSchedule.of(9, 9, 9), case.apps, case.clock)


class TestStageTwo:
    def test_hybrid_with_explicit_starts(self, engine):
        result = optimize(engine, "hybrid", starts=(PeriodicSchedule.of(2, 2, 2),))
        assert result.best.feasible
        assert result.best_value >= engine.evaluate(PeriodicSchedule.of(2, 2, 2)).overall - 1e-12

    def test_hybrid_random_starts_deterministic(self, engine):
        a = optimize(engine, "hybrid", n_starts=1, seed=3)
        b = optimize(engine, "hybrid", n_starts=1, seed=3)
        assert a.best_schedule == b.best_schedule

    def test_annealing_runs(self, engine):
        result = optimize(engine, "annealing", starts=(PeriodicSchedule.of(1, 1, 1),))
        assert result.best.feasible

    def test_unknown_strategy_rejected(self, case, quick):
        with pytest.raises(ConfigurationError) as excinfo:
            Scenario("bad", case.apps, case.clock, quick, RunSpec(strategy="oracle"))
        assert "hybrid" in str(excinfo.value)
