"""Builds a multicore co-design the way a scenario run does."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.multicore import MulticoreProblem
from repro.sched.engine import EngineOptions
from repro.sched.engine.batch import Scenario, scenario_engine
from repro.study import RunSpec


@contextmanager
def open_problem(
    apps, clock, design_options, *, workers=0, cache_dir=None, **run
) -> Iterator[MulticoreProblem]:
    """A :class:`MulticoreProblem` over ``apps`` on its scenario's
    engine, closed on exit; ``run`` holds the :class:`RunSpec` fields."""
    scenario = Scenario("multicore-test", list(apps), clock, design_options, RunSpec(**run))
    with scenario_engine(scenario, EngineOptions(workers, cache_dir)) as engine:
        yield MulticoreProblem(engine, scenario.spec)
