"""Pluggable WCET-model registry.

A *WCET model* is the unit of extensibility of the platform layer: it
receives a placed program and a cache configuration and returns the
cold/warm :class:`~repro.wcet.results.TaskWcets` pair the scheduling
layer consumes.  Models register themselves by name with
:func:`register_wcet_model`; every entry point
(:func:`repro.wcet.reuse.analyze_task_wcets`, :class:`repro.platform.Platform`,
scenario synthesis, the CLI's ``--wcet-model``) resolves names through
:func:`get_wcet_model`, so an unknown name fails fast with the list of
registered models — the one :class:`~repro.registry.Registry` contract
shared by every plugin registry.

Three models are builtin:

* ``static`` — sound must/may abstract-interpretation bounds (the
  paper's "guaranteed" semantics, the default);
* ``concrete`` — exact trace replay with worst-case path enumeration
  (ground truth under the cache model);
* ``analytic`` — a closed-form reuse-factor estimate in O(basic blocks)
  instead of O(executed instructions): optimistic (dominated by
  ``static``), but orders of magnitude cheaper, which is what makes
  huge synthesized-suite sweeps tractable.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..cache.abstract import MayCache
from ..cache.config import CacheConfig
from ..errors import AnalysisError
from ..program.blocks import BasicBlock
from ..program.program import Program
from ..program.structure import Branch, Loop, Node, Seq
from ..registry import Registry
from .concrete import simulate_worst_case
from .results import TaskWcets
from .static import AbstractState, analyze_program


@runtime_checkable
class WcetModel(Protocol):
    """What a pluggable WCET model must provide.

    ``name`` is the registry key; ``analyze`` computes the cold/warm
    WCET pair of one placed program under one cache configuration.
    """

    name: str

    def analyze(self, program: Program, config: CacheConfig) -> TaskWcets:
        ...


#: The WCET-model registry (see :class:`repro.registry.Registry`).
WCET_MODELS: Registry[WcetModel] = Registry(
    "WCET model", "models", protocol=WcetModel
)

register_wcet_model = WCET_MODELS.register
unregister_wcet_model = WCET_MODELS.unregister
available_wcet_models = WCET_MODELS.available
get_wcet_model = WCET_MODELS.get
model_description = WCET_MODELS.describe


# ----------------------------------------------------------------------
# Builtin models
# ----------------------------------------------------------------------

@register_wcet_model
class StaticWcetModel:
    """Sound must/may abstract-interpretation bounds (the paper default).

    The cold WCET assumes arbitrary prior cache contents; the warm run
    is bounded from the must-state at the cold run's exit, so every
    claimed hit is provable (the paper's "guaranteed" semantics).
    """

    name = "static"

    def analyze(self, program: Program, config: CacheConfig) -> TaskWcets:
        cold = analyze_program(program, config, AbstractState.unknown(config))
        warm_start = AbstractState(cold.must_out.copy(), MayCache.unknown(config))
        warm = analyze_program(program, config, warm_start)
        return TaskWcets(program.name, cold.cycles, warm.cycles)


@register_wcet_model
class ConcreteWcetModel:
    """Exact trace replay with worst-case path enumeration (ground truth).

    The tightest possible value under the cache model; useful to
    quantify the (lack of) pessimism of the static bound.
    """

    name = "concrete"

    def analyze(self, program: Program, config: CacheConfig) -> TaskWcets:
        cold = simulate_worst_case(program, config)
        warm = simulate_worst_case(program, config, initial_cache=cold.final_cache)
        return TaskWcets(program.name, cold.cycles, warm.cycles)


def _guaranteed_path_bounds(
    node: Node | None, config: CacheConfig
) -> tuple[int, set[int]]:
    """(fetches, memory lines) guaranteed on *every* path through ``node``.

    Branches contribute the minimum fetch count over their arms and the
    intersection of the arms' line sets (nothing, when an arm may be
    skipped entirely), so both quantities lower-bound every concrete
    execution — which is what makes the analytic estimate provably
    dominated by the sound ``static`` bound.
    """
    if node is None:
        return 0, set()
    if isinstance(node, BasicBlock):
        first = config.line_of(node.base)
        last = config.line_of(node.end - 1)
        return node.n_instr, set(range(first, last + 1))
    if isinstance(node, Seq):
        fetches, lines = 0, set()
        for child in node.children:
            child_fetches, child_lines = _guaranteed_path_bounds(child, config)
            fetches += child_fetches
            lines |= child_lines
        return fetches, lines
    if isinstance(node, Loop):
        body_fetches, body_lines = _guaranteed_path_bounds(node.body, config)
        return body_fetches * node.iterations, body_lines
    if isinstance(node, Branch):
        if node.taken is None or node.not_taken is None:
            return 0, set()
        taken_fetches, taken_lines = _guaranteed_path_bounds(node.taken, config)
        untaken_fetches, untaken_lines = _guaranteed_path_bounds(
            node.not_taken, config
        )
        return min(taken_fetches, untaken_fetches), taken_lines & untaken_lines
    raise AnalysisError(f"unknown node type: {type(node).__name__}")


@register_wcet_model
class AnalyticWcetModel:
    """Closed-form reuse-factor estimate: O(blocks) instead of O(instructions).

    Costs every guaranteed fetch one hit plus one miss penalty per
    guaranteed memory line (cold), and charges the warm run only for the
    part of the footprint that provably cannot be retained by the cache
    capacity.  Optimistic by construction — dominated by the sound
    ``static`` bound — but cheap enough to sweep huge synthesized suites
    orders of magnitude faster.
    """

    name = "analytic"

    def analyze(self, program: Program, config: CacheConfig) -> TaskWcets:
        if not program.placed:
            raise AnalysisError(f"program {program.name!r} must be placed first")
        fetches, lines = _guaranteed_path_bounds(program.root, config)
        footprint = len(lines)
        cold = fetches * config.hit_cycles + footprint * config.miss_penalty
        retained = min(footprint, config.n_lines)
        warm = fetches * config.hit_cycles + (footprint - retained) * config.miss_penalty
        return TaskWcets(program.name, cold, warm)
