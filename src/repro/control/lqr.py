"""Quadratic-cost (LQR) design alternative.

The paper optimizes settling time and remarks it is "more difficult to
optimize than quadratic cost".  This module provides the quadratic-cost
end of that comparison: a discrete LQR design on the delay-augmented
average-period model, evaluated on the true switched timing.  It serves

* as a classical baseline for the ablation "settling-optimal vs
  LQR-optimal" (how much settling time the convenient quadratic
  surrogate gives away), and
* as a deterministic, swarm-free designer for quick studies.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_discrete_are

from ..errors import ControlError
from .design import ControllerDesign, TrackingSpec, _DesignProblem
from .discretize import zoh_delayed
from .lockstep import BatchGainEvaluator, design_from_result
from .lti import LtiPlant


def lqr_gain_augmented(
    a: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
    c: np.ndarray,
    control_weight: float,
) -> np.ndarray:
    """LQR state gain for the delay-augmented model.

    The one-step-delay model ``x+ = A x + B1 u_prev + B2 u`` augments to
    ``z = (x, u_prev)`` with input ``u``; the stage cost is
    ``(C x)^2 + rho u^2``.  Returns the row gain on ``x`` only (the
    library's controller structure ``u = K x + F r`` has no ``u_prev``
    term, so the augmented gain's last entry is dropped — evaluated, as
    always, on the true switched simulation).
    """
    order = a.shape[0]
    a_aug = np.zeros((order + 1, order + 1))
    a_aug[:order, :order] = a
    a_aug[:order, order] = b1
    b_aug = np.zeros((order + 1, 1))
    b_aug[:order, 0] = b2
    b_aug[order, 0] = 1.0
    q = np.zeros((order + 1, order + 1))
    q[:order, :order] = np.outer(c, c)
    r = np.array([[control_weight]])
    try:
        p = solve_discrete_are(a_aug, b_aug, q, r)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise ControlError(f"discrete Riccati solve failed: {exc}") from exc
    gain = np.linalg.solve(
        r + b_aug.T @ p @ b_aug, b_aug.T @ p @ a_aug
    )[0]
    return -gain[:order]


def design_lqr(
    plant: LtiPlant,
    periods: list[float],
    delays: list[float],
    spec: TrackingSpec,
    control_weight: float = 1e-4,
    horizon_factor: float = 2.2,
    nsub: int = 4,
) -> ControllerDesign:
    """Deterministic LQR design for a schedule timing.

    One gain is computed on the average-period delay-augmented model and
    applied to every task (LQR has no native notion of the switched
    pattern); feedforward follows paper eq. (17).  The returned design
    carries the *true* switched-system settling time, input peak and
    spectral radius, so it is directly comparable with the holistic
    designs.
    """
    problem = _DesignProblem(plant, periods, delays, spec, horizon_factor, nsub)
    segments = problem.segments
    m = len(segments)
    h_mean = sum(seg.h for seg in segments) / m
    tau_mean = min(sum(seg.tau for seg in segments) / m, h_mean)
    ad, b1, b2 = zoh_delayed(plant.a, plant.b, h_mean, tau_mean)
    k_row = lqr_gain_augmented(ad, b1, b2, plant.c, control_weight)
    gains = np.tile(k_row, (m, 1))

    [result] = BatchGainEvaluator([problem]).evaluate([gains[None]])
    return design_from_result(gains, result, 1, "lqr")


def sweep_control_weight(
    plant: LtiPlant,
    periods: list[float],
    delays: list[float],
    spec: TrackingSpec,
    weights: list[float],
) -> list[ControllerDesign]:
    """LQR designs across a control-weight sweep (aggressiveness knob)."""
    if not weights:
        raise ControlError("need at least one control weight")
    return [
        design_lqr(plant, periods, delays, spec, control_weight=w)
        for w in weights
    ]


def best_lqr(
    plant: LtiPlant,
    periods: list[float],
    delays: list[float],
    spec: TrackingSpec,
    weights: list[float] | None = None,
) -> ControllerDesign:
    """Best feasible LQR design over a default control-weight sweep.

    This is the fair "quadratic-cost surrogate" baseline: the weight is
    tuned (as a practitioner would) but the design target remains the
    quadratic cost, not settling time.
    """
    if weights is None:
        weights = list(np.logspace(-7, -1, 13))
    designs = sweep_control_weight(plant, periods, delays, spec, weights)
    feasible = [d for d in designs if d.satisfies(spec)]
    pool = feasible or designs
    return min(pool, key=lambda d: d.objective)
