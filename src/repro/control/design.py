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

from ..errors import ControlError, DesignInfeasibleError
from .ackermann import place_poles_siso
from .lifted import Segment, build_segments, lifted_closed_loop
from .lti import LtiPlant
from .pso import PsoOptions, pso_minimize
from .simulate import SimulationPlan, build_simulation_plan, simulate_tracking


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


@dataclass
class ControllerDesign:
    """Result of a holistic design for one application and timing."""

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
        """Inverse of :meth:`to_dict`."""
        return cls(
            gains=np.asarray(data["gains"], dtype=float),
            feedforward=np.asarray(data["feedforward"], dtype=float),
            settling=float(data["settling"]),
            u_peak=float(data["u_peak"]),
            spectral_radius=float(data["spectral_radius"]),
            objective=float(data["objective"]),
            n_evaluations=int(data["n_evaluations"]),
            engine=str(data["engine"]),
        )


class _GainEvaluator:
    """Batched objective: gains -> penalized worst-case settling."""

    def __init__(
        self,
        plant: LtiPlant,
        segments: list[Segment],
        plan: SimulationPlan,
        spec: TrackingSpec,
        horizon: float,
    ) -> None:
        self.plant = plant
        self.segments = segments
        self.plan = plan
        self.spec = spec
        self.horizon = horizon
        self.m = len(segments)
        self.order = plant.order
        x_eq, u_eq = plant.equilibrium(spec.y0)
        self.x0 = x_eq
        self.u0 = u_eq
        self.n_evaluations = 0
        # Penalty scales: large enough to dominate any real settling time
        # but graded so the swarm can descend toward feasibility.
        self.big = 50.0 * spec.deadline
        # Per-segment (I - Ad) and Gamma for feedforward computation.
        eye = np.eye(self.order)
        self._ff_a = np.stack([eye - seg.ad for seg in segments])       # (m,l,l)
        self._ff_b = np.stack([seg.b1 + seg.b2 for seg in segments])    # (m,l)

    def feedforward_batch(self, gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Paper eq. (17) for a batch: returns ``(F, invalid_mask)``."""
        n_batch = gains.shape[0]
        f_out = np.zeros((n_batch, self.m))
        invalid = np.zeros(n_batch, dtype=bool)
        c = self.plant.c
        for j in range(self.m):
            # M_p = I - Ad_j - Gamma_j K_jp  for every particle p
            mats = self._ff_a[j][None, :, :] - np.einsum(
                "l,pk->plk", self._ff_b[j], gains[:, j, :]
            )
            dets = np.linalg.det(mats)
            bad = np.abs(dets) < 1e-12
            safe = mats.copy()
            safe[bad] = np.eye(self.order)
            solved = np.linalg.solve(safe, np.broadcast_to(
                self._ff_b[j], (n_batch, self.order)
            )[..., None])[..., 0]
            denom = solved @ c
            bad |= np.abs(denom) < 1e-12
            f_out[:, j] = np.where(bad, 0.0, 1.0 / np.where(bad, 1.0, denom))
            invalid |= bad
        return f_out, invalid

    def spectral_radii(self, gains: np.ndarray, feedforward: np.ndarray) -> np.ndarray:
        """Spectral radius of ``A_hol`` for every particle."""
        radii = np.empty(gains.shape[0])
        for p in range(gains.shape[0]):
            a_hol, _ = lifted_closed_loop(self.segments, gains[p], feedforward[p])
            radii[p] = np.abs(np.linalg.eigvals(a_hol)).max()
        return radii

    def evaluate(self, gains: np.ndarray) -> dict[str, np.ndarray]:
        """Objective and diagnostics for a batch of gain sets."""
        gains = np.asarray(gains, dtype=float)
        if gains.ndim == 2:
            gains = gains[None]
        self.n_evaluations += gains.shape[0]
        feedforward, invalid = self.feedforward_batch(gains)
        radii = self.spectral_radii(gains, feedforward)
        tracking = simulate_tracking(
            self.plan,
            gains,
            feedforward,
            r=self.spec.r,
            x0=self.x0,
            u0=self.u0,
            horizon=self.horizon,
            band=self.spec.band,
        )
        settling = tracking.settling
        u_peak = tracking.u_peak

        objective = np.where(np.isfinite(settling), settling, self.big)
        unstable = radii >= 1.0
        objective = objective + np.where(
            unstable, self.big * (1.0 + np.minimum(radii - 1.0, 10.0)), 0.0
        )
        saturated = u_peak > self.spec.u_max
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = np.where(
                saturated, np.minimum(u_peak / self.spec.u_max - 1.0, 100.0), 0.0
            )
        objective = objective + np.where(
            saturated, 0.2 * self.big * (1.0 + excess), 0.0
        )
        objective = objective + np.where(invalid, 2.0 * self.big, 0.0)
        return {
            "objective": objective,
            "settling": settling,
            "u_peak": u_peak,
            "rho": radii,
            "feedforward": feedforward,
            "invalid": invalid,
        }


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

    def __init__(self, evaluator: _GainEvaluator, options: DesignOptions) -> None:
        self.evaluator = evaluator
        self.options = options
        self.order = evaluator.order
        self.m = evaluator.m
        hyper = sum(seg.h for seg in evaluator.segments)
        h_mean = hyper / self.m
        self.w_min = 0.25 / evaluator.spec.deadline
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
        return self._gains_for_poles(_continuous_poles(theta, self.order))

    def _gains_for_poles(self, poles_ct: np.ndarray) -> np.ndarray | None:
        gains = np.empty((self.m, self.order))
        for j, seg in enumerate(self.evaluator.segments):
            desired = np.exp(poles_ct * seg.h)
            try:
                gains[j] = place_poles_siso(seg.ad, seg.b1 + seg.b2, desired)
            except ControlError:
                return None
        return gains

    def objective(self, thetas: np.ndarray) -> np.ndarray:
        batch = []
        bad = np.zeros(thetas.shape[0], dtype=bool)
        poles_ct = _continuous_poles(thetas, self.order)
        for p in range(thetas.shape[0]):
            gains = self._gains_for_poles(poles_ct[p])
            if gains is None:
                bad[p] = True
                batch.append(np.zeros((self.m, self.order)))
            else:
                batch.append(gains)
        result = self.evaluator.evaluate(np.stack(batch))
        objective = result["objective"]
        objective[bad] = 4.0 * self.evaluator.big
        return objective

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

    Returns the best design found; it may be infeasible (unstable or
    saturating) only when the engine could not find any feasible point,
    in which case :attr:`ControllerDesign.satisfies` is ``False``.
    """
    options = options or DesignOptions()
    if options.engine not in ("hybrid", "seeded", "uniform", "poles"):
        raise ControlError(f"unknown design engine {options.engine!r}")
    if options.restarts < 1:
        raise ControlError(f"restarts must be >= 1, got {options.restarts}")
    segments = build_segments(plant.a, plant.b, periods, delays)
    plan = build_simulation_plan(
        plant.a, plant.b, plant.c, periods, delays, nsub=options.nsub
    )
    horizon = options.horizon_factor * spec.deadline + plan.idle_gap
    evaluator = _GainEvaluator(plant, segments, plan, spec, horizon)

    best: ControllerDesign | None = None
    for restart in range(options.restarts):
        rng = np.random.default_rng(options.seed + 104729 * restart)
        design = _design_once(plant, evaluator, options, rng)
        if best is None or design.objective < best.objective:
            best = design
    assert best is not None
    return best


def _design_once(
    plant: LtiPlant,
    evaluator: _GainEvaluator,
    options: DesignOptions,
    rng: np.random.Generator,
) -> ControllerDesign:
    """One swarm run of the selected engine."""
    if options.engine == "poles":
        from .polesearch import design_poles_engine

        return design_poles_engine(evaluator, options, rng)

    if options.engine == "uniform":
        best_gains = _design_uniform(evaluator, options, rng)
    else:
        stage_a = _StageA(evaluator, options)
        result_a = pso_minimize(
            stage_a.objective,
            stage_a.lower,
            stage_a.upper,
            options.stage_a,
            rng,
            seeds=stage_a.default_seeds(),
        )
        best_gains = stage_a.gains_for(result_a.best_position)
        if best_gains is None:
            raise DesignInfeasibleError(
                f"no pole target is realizable for plant {plant.name!r}"
            )
        if options.engine == "hybrid":
            best_gains = _refine_gains(evaluator, best_gains, options, rng)

    return _finalize(evaluator, best_gains, options.engine)


def _refine_gains(
    evaluator: _GainEvaluator,
    center: np.ndarray,
    options: DesignOptions,
    rng: np.random.Generator,
) -> np.ndarray:
    """Stage B: direct PSO over all gain entries around ``center``."""
    flat = center.reshape(-1)
    spread = 2.5 * np.abs(flat) + 0.5 * (np.abs(flat).mean() + 1e-9)
    lower = flat - spread
    upper = flat + spread

    def objective(batch_flat: np.ndarray) -> np.ndarray:
        batch = batch_flat.reshape(-1, evaluator.m, evaluator.order)
        return evaluator.evaluate(batch)["objective"]

    result = pso_minimize(
        objective, lower, upper, options.stage_b, rng, seeds=flat[None, :]
    )
    refined = result.best_position.reshape(evaluator.m, evaluator.order)
    # Keep whichever of (center, refined) evaluates better — PSO noise
    # must never make the final design worse than its seed.
    both = evaluator.evaluate(np.stack([center, refined]))
    if both["objective"][1] <= both["objective"][0]:
        return refined
    return center


def _design_uniform(
    evaluator: _GainEvaluator,
    options: DesignOptions,
    rng: np.random.Generator,
) -> np.ndarray:
    """Non-holistic ablation: one average-period design for all tasks."""
    from .discretize import zoh

    order = evaluator.order
    m = evaluator.m
    h_mean = sum(seg.h for seg in evaluator.segments) / m
    ad, gamma = zoh(evaluator.plant.a, evaluator.plant.b, h_mean)
    spec = evaluator.spec
    w_min = 0.25 / spec.deadline
    w_max = math.pi / h_mean
    lower = []
    upper = []
    for _ in range(order // 2):
        lower += [w_min, options.min_damping]
        upper += [w_max, options.max_damping]
    if order % 2:
        lower.append(w_min)
        upper.append(w_max)

    def objective(thetas: np.ndarray) -> np.ndarray:
        batch = np.empty((thetas.shape[0], m, order))
        bad = np.zeros(thetas.shape[0], dtype=bool)
        poles_ct = _continuous_poles(thetas, order)
        for p in range(thetas.shape[0]):
            desired = np.exp(poles_ct[p] * h_mean)
            try:
                k_row = place_poles_siso(ad, gamma, desired)
            except ControlError:
                bad[p] = True
                k_row = np.zeros(order)
            batch[p] = np.tile(k_row, (m, 1))
        values = evaluator.evaluate(batch)["objective"]
        values[bad] = 4.0 * evaluator.big
        return values

    result = pso_minimize(
        objective, np.array(lower), np.array(upper), options.stage_a, rng
    )
    desired = np.exp(_continuous_poles(result.best_position, order) * h_mean)
    k_row = place_poles_siso(ad, gamma, desired)
    return np.tile(k_row, (m, 1))


def _finalize(
    evaluator: _GainEvaluator, gains: np.ndarray, engine: str
) -> ControllerDesign:
    """Evaluate the final gain set once and package the result."""
    result = evaluator.evaluate(gains[None])
    return ControllerDesign(
        gains=gains,
        feedforward=result["feedforward"][0],
        settling=float(result["settling"][0]),
        u_peak=float(result["u_peak"][0]),
        spectral_radius=float(result["rho"][0]),
        objective=float(result["objective"][0]),
        n_evaluations=evaluator.n_evaluations,
        engine=engine,
    )
