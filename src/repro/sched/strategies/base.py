"""Strategy protocol, run spec and the pluggable strategy registry.

A *search strategy* is the unit of extensibility of the schedule
search: it receives an engine (anything duck-compatible with
:class:`~repro.sched.evaluator.ScheduleEvaluator`), the enumerated
idle-feasible schedule space and a :class:`StrategySpec`, and returns a
:class:`~repro.sched.results.SearchResult`.  Strategies register
themselves by name with :func:`register_strategy` (a binding of the
:data:`STRATEGIES` :class:`~repro.registry.Registry`); every entry point
(the scenario runner and the multicore sweep, the ``Study`` facade,
the CLI) resolves names through :func:`get_strategy`,
so an unknown name fails fast with the list of registered strategies
instead of silently falling back to some default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from ...errors import SearchError
from ...registry import Registry
from ..feasibility import idle_feasible
from ..results import SearchResult
from ..schedule import PeriodicSchedule


@dataclass(frozen=True)
class StrategySpec:
    """Strategy-independent inputs of one search run.

    Parameters
    ----------
    starts:
        Explicit start schedules.  ``None`` lets the strategy draw its
        own starts from the schedule space (seeded by ``seed``).
    n_starts:
        How many random starts to draw when ``starts`` is ``None``.
    seed:
        Seed of the start-selection RNG (and, for stochastic strategies
        without explicit options, of the strategy itself).
    options:
        Strategy-specific options dataclass (e.g.
        :class:`~repro.sched.hybrid.HybridOptions`); ``None`` uses the
        strategy's defaults.  Passing the wrong options type raises
        :class:`~repro.errors.ConfigurationError`.
    feasible:
        Optional override of the idle-feasibility predicate; ``None``
        derives eq. (4) from the engine's applications and clock.  The
        multicore layer uses this to add its per-core burst-length cap.
    """

    starts: tuple[PeriodicSchedule, ...] | None = None
    n_starts: int = 2
    seed: int = 2018
    options: object | None = None
    feasible: Callable[[PeriodicSchedule], bool] | None = None


@runtime_checkable
class SearchStrategy(Protocol):
    """What a pluggable search strategy must provide.

    ``name`` is the registry key, ``options_type`` the strategy-specific
    options dataclass accepted via :attr:`StrategySpec.options`, and
    ``run`` executes the search.  ``engine`` is any object
    duck-compatible with :class:`~repro.sched.evaluator.ScheduleEvaluator`
    (``evaluate`` / ``evaluate_batch`` / ``apps`` / ``clock``) — in
    practice a :class:`~repro.sched.engine.SearchEngine`, so candidate
    evaluations inherit its memo, persistent cache and worker pool.
    """

    name: str
    options_type: type

    def run(
        self,
        engine,
        space: Sequence[PeriodicSchedule],
        spec: StrategySpec,
    ) -> SearchResult:
        ...


#: The strategy registry (see :class:`repro.registry.Registry`).
STRATEGIES: Registry[SearchStrategy] = Registry(
    "search strategy",
    "strategies",
    protocol=SearchStrategy,
)

register_strategy = STRATEGIES.register
unregister_strategy = STRATEGIES.unregister
available_strategies = STRATEGIES.available
get_strategy = STRATEGIES.get
strategy_description = STRATEGIES.describe


# ----------------------------------------------------------------------
# Helpers shared by the builtin strategies (and useful to third-party
# ones): options resolution, feasibility predicate, start selection.
# ----------------------------------------------------------------------

def resolve_options(strategy: SearchStrategy, spec: StrategySpec):
    """``spec.options`` validated against the strategy, or defaults."""
    return STRATEGIES.resolve_options(strategy, spec.options)


def feasibility_fn(engine, spec: StrategySpec):
    """The idle-feasibility predicate a strategy should search under."""
    if spec.feasible is not None:
        return spec.feasible
    apps, clock = engine.apps, engine.clock
    return lambda schedule: idle_feasible(schedule, apps, clock)


def random_starts(
    space: Sequence[PeriodicSchedule], spec: StrategySpec
) -> list[PeriodicSchedule]:
    """Draw ``spec.n_starts`` distinct random starts from the space."""
    if not space:
        raise SearchError("the idle-feasible schedule space is empty")
    rng = np.random.default_rng(spec.seed)
    indices = rng.choice(
        len(space), size=min(spec.n_starts, len(space)), replace=False
    )
    return [space[int(i)] for i in indices]
