"""Holistic controller design for a given schedule timing (Section III).

Given the non-uniform sampling periods and sensing-to-actuation delays a
schedule induces for one application, find per-task gains
``u_j = K_j x + F_j r`` minimizing the worst-case settling time subject
to closed-loop stability (all eigenvalues of the lifted ``A_hol`` inside
the unit circle) and input saturation ``|u| <= U_max``.

Design engines
--------------
``hybrid`` (default)
    Stage A searches a low-dimensional, well-scaled space of
    continuous-time pole targets (natural frequency / damping per pole
    pair), realized per task by Ackermann placement on the segment
    dynamics; stage B then runs PSO directly over all ``m·l`` gain
    entries around the stage-A optimum.  This mirrors the paper's
    PSO-over-pole-locations + Ackermann scheme while keeping the search
    robustly scaled.
``seeded``
    Stage A only (fast; used by tests and quick sweeps).
``uniform``
    Non-holistic baseline for the ablation: one gain designed for the
    *average* sampling period and reused for every task — the design
    style the paper's holistic method improves upon.
``poles``
    Paper-literal engine: PSO over the ``m·l`` lifted pole locations
    with gains recovered by characteristic-polynomial matching
    (see :mod:`repro.control.polesearch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ControlError
from .ackermann import place_poles_siso
from .lifted import build_segments
from .lti import LtiPlant
from .pso import PsoOptions
from .simulate import build_simulation_plan

#: The design engines :class:`DesignOptions` accepts (module docstring).
ENGINES = ("hybrid", "seeded", "uniform", "poles")


@dataclass(frozen=True)
class TrackingSpec:
    """Reference-tracking scenario and constraints for one application.

    Parameters
    ----------
    r:
        Reference value after the step.
    y0:
        Output value before the step (tracking starts from the matching
        equilibrium).
    u_max:
        Input saturation bound (paper constraint ``u[k] <= U_max``).
    deadline:
        Settling deadline ``s_max`` (normalization reference ``s0``).
    band_fraction:
        Relative settling band; the paper's example is 2 % around ``r``.
    """

    r: float
    y0: float
    u_max: float
    deadline: float
    band_fraction: float = 0.02

    @property
    def band(self) -> float:
        """Absolute settling band around the reference."""
        reference = abs(self.r)
        if reference == 0.0:
            reference = abs(self.r - self.y0)
        if reference == 0.0:
            raise ControlError("tracking spec has zero reference and zero step")
        return self.band_fraction * reference


@dataclass(frozen=True)
class DesignOptions:
    """Knobs of the holistic design search.

    ``restarts`` independent swarm runs (deterministically seeded from
    ``seed``) are performed and the best design kept; the settling-time
    landscape is multi-modal (settling quantizes to "idle gap + k
    samples" plateaus), so restarts matter for an honest comparison
    between schedules.
    """

    engine: str = "hybrid"
    nsub: int = 4
    horizon_factor: float = 2.2
    stage_a: PsoOptions = field(default_factory=lambda: PsoOptions(20, 25))
    stage_b: PsoOptions = field(default_factory=lambda: PsoOptions(28, 35))
    seed: int = 2018
    restarts: int = 3
    min_damping: float = 0.35
    max_damping: float = 1.4

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ControlError(
                f"unknown design engine {self.engine!r}; "
                f"known engines: {', '.join(ENGINES)}"
            )
        if self.restarts < 1:
            raise ControlError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class ControllerDesign:
    """Result of a holistic design for one application and timing.

    Frozen: a decoded design is shared between jobs and threads (the
    evaluation store's memo), so :meth:`from_dict` also makes its
    arrays read-only.
    """

    gains: np.ndarray         # (m, l)
    feedforward: np.ndarray   # (m,)
    settling: float
    u_peak: float
    spectral_radius: float
    objective: float
    n_evaluations: int
    engine: str

    @property
    def stable(self) -> bool:
        """Whether the lifted closed loop is Schur stable."""
        return self.spectral_radius < 1.0

    def satisfies(self, spec: TrackingSpec) -> bool:
        """Stability + saturation + finite settling (not the deadline)."""
        return self.stable and self.u_peak <= spec.u_max and math.isfinite(self.settling)

    def performance(self, spec: TrackingSpec) -> float:
        """Paper eq. (2) term: ``1 - s / s0`` (negative when late)."""
        if not math.isfinite(self.settling):
            return -1.0
        return 1.0 - self.settling / spec.deadline

    def to_dict(self) -> dict:
        """JSON-serializable form (used by the persistent search cache).

        Floats round-trip exactly through ``repr`` so a deserialized
        design is numerically identical to the computed one.
        """
        return {
            "gains": self.gains.tolist(),
            "feedforward": self.feedforward.tolist(),
            "settling": self.settling,
            "u_peak": self.u_peak,
            "spectral_radius": self.spectral_radius,
            "objective": self.objective,
            "n_evaluations": self.n_evaluations,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ControllerDesign":
        """Inverse of :meth:`to_dict` (with read-only arrays)."""
        gains = np.asarray(data["gains"], dtype=float)
        feedforward = np.asarray(data["feedforward"], dtype=float)
        gains.setflags(write=False)
        feedforward.setflags(write=False)
        return cls(
            gains=gains,
            feedforward=feedforward,
            settling=float(data["settling"]),
            u_peak=float(data["u_peak"]),
            spectral_radius=float(data["spectral_radius"]),
            objective=float(data["objective"]),
            n_evaluations=int(data["n_evaluations"]),
            engine=str(data["engine"]),
        )


class _DesignProblem:
    """Gain-independent setup of one (plant, timing, spec) problem.

    Segments, simulation plan, horizon, initial equilibrium, penalty
    scale and feedforward operands: everything particle scoring needs
    that the gains do not change.  It is read-only, so every restart of
    a problem shares one instance; the scoring itself is
    :class:`repro.control.lockstep.BatchGainEvaluator`.
    """

    def __init__(
        self,
        plant: LtiPlant,
        periods: list[float],
        delays: list[float],
        spec: TrackingSpec,
        horizon_factor: float,
        nsub: int,
    ) -> None:
        self.plant = plant
        self.segments = build_segments(plant.a, plant.b, periods, delays)
        self.plan = build_simulation_plan(
            plant.a, plant.b, plant.c, periods, delays, nsub=nsub
        )
        self.spec = spec
        self.horizon = horizon_factor * spec.deadline + self.plan.idle_gap
        self.m = len(self.segments)
        self.order = plant.order
        x_eq, u_eq = plant.equilibrium(spec.y0)
        self.x0 = x_eq
        self.u0 = u_eq
        # Penalty scales: large enough to dominate any real settling time
        # but graded so the swarm can descend toward feasibility.
        self.big = 50.0 * spec.deadline
        # Per-segment (I - Ad) and Gamma for feedforward computation.
        eye = np.eye(self.order)
        self._ff_a = np.stack([eye - seg.ad for seg in self.segments])       # (m,l,l)
        self._ff_b = np.stack([seg.b1 + seg.b2 for seg in self.segments])    # (m,l)


def _continuous_poles(theta: np.ndarray, order: int) -> np.ndarray:
    """Map stage-A parameters to ``order`` continuous-time poles.

    ``theta`` holds (wn, zeta) per complex pair followed by one decay
    rate per leftover real pole, along its last axis; leading axes (a
    particle batch) map row by row.  Underdamped pairs (``zeta < 1``)
    give ``-zeta wn ± j wn sqrt(1 - zeta^2)``, the others the real pair
    ``-zeta wn ± wn sqrt(zeta^2 - 1)``.
    """
    theta = np.asarray(theta, dtype=float)
    poles = np.empty(theta.shape[:-1] + (order,), dtype=complex)
    for i in range(order // 2):
        wn = theta[..., 2 * i]
        zeta = theta[..., 2 * i + 1]
        zeta_sq = zeta * zeta
        under = zeta < 1.0
        root = wn * np.sqrt(np.where(under, 1.0 - zeta_sq, zeta_sq - 1.0))
        center = -zeta * wn
        poles[..., 2 * i].real = np.where(under, center, center + root)
        poles[..., 2 * i].imag = np.where(under, root, 0.0)
        poles[..., 2 * i + 1].real = np.where(under, center, center - root)
        poles[..., 2 * i + 1].imag = np.where(under, -root, 0.0)
    if order % 2:
        poles[..., -1] = -theta[..., -1]
    return poles


class _StageA:
    """Pole-target parametrization: theta -> per-task Ackermann gains."""

    def __init__(self, problem: _DesignProblem, options: DesignOptions) -> None:
        self.problem = problem
        self.order = problem.order
        self.m = problem.m
        hyper = sum(seg.h for seg in problem.segments)
        h_mean = hyper / self.m
        self.w_min = 0.25 / problem.spec.deadline
        self.w_max = math.pi / h_mean
        lower = []
        upper = []
        for _ in range(self.order // 2):
            lower += [self.w_min, options.min_damping]
            upper += [self.w_max, options.max_damping]
        if self.order % 2:
            lower.append(self.w_min)
            upper.append(self.w_max)
        self.lower = np.array(lower)
        self.upper = np.array(upper)

    def gains_for(self, theta: np.ndarray) -> np.ndarray | None:
        """Per-task gains realizing the pole targets, or ``None``."""
        poles_ct = _continuous_poles(theta, self.order)
        gains = np.empty((self.m, self.order))
        for j, seg in enumerate(self.problem.segments):
            desired = np.exp(poles_ct * seg.h)
            try:
                gains[j] = place_poles_siso(seg.ad, seg.b1 + seg.b2, desired)
            except ControlError:
                return None
        return gains

    def default_seeds(self) -> np.ndarray:
        """A spread of aggressiveness levels as deterministic seeds."""
        seeds = []
        for factor in (0.15, 0.3, 0.5, 0.7, 0.85):
            theta = []
            wn = self.w_min + factor * (self.w_max - self.w_min)
            for _ in range(self.order // 2):
                theta += [wn, 0.85]
            if self.order % 2:
                theta.append(wn)
            seeds.append(theta)
        return np.array(seeds)


def design_controller(
    plant: LtiPlant,
    periods: list[float],
    delays: list[float],
    spec: TrackingSpec,
    options: DesignOptions | None = None,
) -> ControllerDesign:
    """Design the holistic controller for one application and timing.

    A batch of one for :func:`repro.control.lockstep.design_controllers_batch`,
    the one design kernel.  Returns the best design found; it may be
    infeasible (unstable or saturating) only when the engine could not
    find any feasible point, in which case
    :attr:`ControllerDesign.satisfies` is ``False``.
    """
    from .lockstep import DesignRequest, design_controllers_batch

    request = DesignRequest(
        plant, tuple(periods), tuple(delays), spec, options or DesignOptions()
    )
    return design_controllers_batch([request])[0]
