"""Pluggable schedule-search strategies.

Every way of searching the schedule space — the paper's hybrid
algorithm, the exhaustive baseline, simulated annealing, the
interleaved-schedule extension — is a *strategy*: an object with a
``name``, a strategy-specific options dataclass and a
``run(engine, space, spec) -> SearchResult`` method, registered by name
in a global registry.  All entry points (the scenario runner and the
multicore sweep, :class:`repro.study.Study`, ``python -m repro search
--strategy ...``) resolve strategies through this registry, so adding a
new search is one registration away from every front end:

    >>> from dataclasses import dataclass
    >>> from repro.sched.strategies import StrategySpec, register_strategy
    >>> from repro.sched.strategies import feasibility_fn, resolve_options
    >>>
    >>> @dataclass(frozen=True)
    ... class GreedyOptions:
    ...     max_steps: int = 10
    >>>
    >>> @register_strategy
    ... class GreedyStrategy:
    ...     '''Greedy best-neighbor walk (demo third-party strategy).'''
    ...     name = "greedy"
    ...     options_type = GreedyOptions
    ...
    ...     def run(self, engine, space, spec):
    ...         from repro.sched.hybrid import hybrid_search, HybridOptions
    ...         options = resolve_options(self, spec)
    ...         starts = list(spec.starts or space[:1])
    ...         return hybrid_search(
    ...             engine, starts, feasibility_fn(engine, spec),
    ...             HybridOptions(max_steps=options.max_steps),
    ...         )

After this, ``Study.from_case_study(strategy="greedy")``,
``RunSpec(strategy="greedy")`` and ``python -m repro search --strategy
greedy`` all work; ``python -m repro strategies`` lists it.  Unknown names raise
:class:`~repro.errors.ConfigurationError` naming the registered
strategies.

The engine handed to ``run`` is duck-compatible with
:class:`~repro.sched.evaluator.ScheduleEvaluator` — typically a
:class:`~repro.sched.engine.SearchEngine`, so batched evaluations
(``evaluate_batch``) inherit its in-memory memo, persistent disk cache
and worker-pool parallelism for free.
"""

from .base import (
    SearchStrategy,
    StrategySpec,
    available_strategies,
    feasibility_fn,
    get_strategy,
    random_starts,
    register_strategy,
    resolve_options,
    strategy_description,
    unregister_strategy,
)
from .builtin import (
    AnnealingStrategy,
    ExhaustiveOptions,
    ExhaustiveStrategy,
    HybridStrategy,
    InterleavedOptions,
    InterleavedStrategy,
)
from .online import OnlineOptions, OnlineStrategy

__all__ = [
    "AnnealingStrategy",
    "ExhaustiveOptions",
    "ExhaustiveStrategy",
    "HybridStrategy",
    "InterleavedOptions",
    "InterleavedStrategy",
    "OnlineOptions",
    "OnlineStrategy",
    "SearchStrategy",
    "StrategySpec",
    "available_strategies",
    "feasibility_fn",
    "get_strategy",
    "random_starts",
    "register_strategy",
    "resolve_options",
    "strategy_description",
    "unregister_strategy",
]
