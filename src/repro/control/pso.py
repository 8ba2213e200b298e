"""Vectorized particle swarm optimization (paper Section III, ref [14]).

The paper uses PSO to pick pole locations for the holistic controller.
This is a generic, deterministic (seeded) global-best PSO over a box,
run for many independent problems in lockstep: each iteration scores
every swarm of every problem through one objective call, which lets the
controller-design objective batch its closed-loop simulations across
problems.  A single problem is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigurationError

#: Fused objective: maps per-problem positions ``[(P, d_i), ...]`` to
#: per-problem values ``[(P,), ...]``.
ManyObjective = Callable[[list[np.ndarray]], list[np.ndarray]]


@dataclass(frozen=True)
class PsoOptions:
    """Swarm hyper-parameters (standard constricted values by default)."""

    n_particles: int = 24
    n_iterations: int = 30
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49
    velocity_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ConfigurationError(
                f"need at least 2 particles, got {self.n_particles}"
            )
        if self.n_iterations < 1:
            raise ConfigurationError(
                f"need at least 1 iteration, got {self.n_iterations}"
            )
        if not 0 < self.velocity_fraction <= 1:
            raise ConfigurationError(
                f"velocity_fraction must be in (0, 1], got {self.velocity_fraction}"
            )


@dataclass
class PsoResult:
    """Outcome of a swarm run."""

    best_position: np.ndarray
    best_value: float
    n_evaluations: int
    history: list[float] = field(default_factory=list)


@dataclass
class _SwarmState:
    """Per-problem swarm state of a lockstep :func:`pso_minimize_many`."""

    lower: np.ndarray
    upper: np.ndarray
    velocity_cap: np.ndarray
    rng: np.random.Generator
    positions: np.ndarray
    velocities: np.ndarray
    values: np.ndarray | None = None
    best_positions: np.ndarray | None = None
    best_values: np.ndarray | None = None
    g_index: int = 0
    history: list[float] = field(default_factory=list)


def pso_minimize_many(
    objective_many: ManyObjective,
    problems: list[tuple[np.ndarray, np.ndarray, np.random.Generator, np.ndarray | None]],
    options: PsoOptions,
) -> list[PsoResult]:
    """Minimize one batched objective per problem, in lockstep.

    Each problem is a ``(lower, upper, rng, seeds)`` tuple: the box
    bounds, shape ``(d_i,)`` each; the generator the swarm draws from
    (passing it explicitly keeps every run deterministic); and an
    optional ``(k, d_i)`` array of seed positions injected into the
    initial swarm (clipped to the box).  ``objective_many`` maps the
    per-problem positions ``[(P, d_i), ...]`` to per-problem values
    ``[(P,), ...]``, so a batched objective can stack its numerical work
    across problems.  A problem's trajectory — its draws from its own
    ``rng`` and its update arithmetic — never depends on the other
    problems in the call, so its result is the one it gets alone.  All
    problems share the swarm ``options`` (that is what keeps them in
    lockstep).
    """
    n = options.n_particles
    states: list[_SwarmState] = []
    for lower, upper, rng, seeds in problems:
        lower = np.asarray(lower, dtype=float).reshape(-1)
        upper = np.asarray(upper, dtype=float).reshape(-1)
        if lower.shape != upper.shape or np.any(lower > upper):
            raise ConfigurationError("invalid PSO bounds")
        dim = lower.shape[0]
        span = upper - lower
        positions = lower + rng.random((n, dim)) * span
        if seeds is not None:
            seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
            count = min(len(seeds), n)
            positions[:count] = np.clip(seeds[:count], lower, upper)
        velocity_cap = options.velocity_fraction * np.where(span > 0, span, 1.0)
        velocities = (rng.random((n, dim)) - 0.5) * velocity_cap
        states.append(
            _SwarmState(lower, upper, velocity_cap, rng, positions, velocities)
        )

    def evaluate() -> None:
        values_list = objective_many([state.positions for state in states])
        for state, values in zip(states, values_list):
            values = np.asarray(values, dtype=float)
            if values.shape != (n,):
                raise ConfigurationError(
                    f"objective must return shape ({n},), got {values.shape}"
                )
            state.values = values

    evaluate()
    for state in states:
        state.best_positions = state.positions.copy()
        state.best_values = state.values.copy()
        state.g_index = int(np.argmin(state.best_values))
        state.history.append(float(state.best_values[state.g_index]))
    evaluations = n

    for _ in range(options.n_iterations):
        for state in states:
            dim = state.lower.shape[0]
            r_cognitive = state.rng.random((n, dim))
            r_social = state.rng.random((n, dim))
            state.velocities = (
                options.inertia * state.velocities
                + options.cognitive * r_cognitive
                * (state.best_positions - state.positions)
                + options.social * r_social
                * (state.best_positions[state.g_index] - state.positions)
            )
            state.velocities = np.clip(
                state.velocities, -state.velocity_cap, state.velocity_cap
            )
            state.positions = np.clip(
                state.positions + state.velocities, state.lower, state.upper
            )
        evaluate()
        evaluations += n
        for state in states:
            improved = state.values < state.best_values
            state.best_positions[improved] = state.positions[improved]
            state.best_values[improved] = state.values[improved]
            state.g_index = int(np.argmin(state.best_values))
            state.history.append(float(state.best_values[state.g_index]))

    return [
        PsoResult(
            best_position=state.best_positions[state.g_index].copy(),
            best_value=float(state.best_values[state.g_index]),
            n_evaluations=evaluations,
            history=state.history,
        )
        for state in states
    ]
