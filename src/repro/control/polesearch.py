"""Paper-literal design engine: PSO over lifted pole locations.

Section III of the paper places all ``m·l`` poles of the lifted matrix
``A_hol`` and computes the feedback gains with a "trivially extended"
Ackermann formula.  Because the gain structure is block-diagonal
(``K_j`` only multiplies ``x_j``), arbitrary pole placement is a
*nonlinear* problem; the natural extension of Ackermann's coefficient
matching is to solve

``coeffs(char_poly(A_hol(K_1..K_m))) = coeffs(prod (z - p_i))``

for the stacked gains — ``m·l`` polynomial equations in ``m·l``
unknowns — which we do with Levenberg–Marquardt, warm-started from a
per-segment Ackermann seed.  The outer PSO then searches the pole
locations themselves, exactly as the paper describes
(:class:`PoleSearch`; the lockstep designer runs its swarm).

This engine is slower than the default ``hybrid`` engine and exists for
fidelity and for the A5 ablation (`benchmarks/bench_ablation_engine.py`).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ControlError
from .design import _StageA
from .lifted import lifted_closed_loop


def characteristic_coefficients(matrix: np.ndarray) -> np.ndarray:
    """Real coefficients of ``det(zI - matrix)`` (monic, descending)."""
    return np.poly(matrix).real


def poles_from_parameters(params: np.ndarray, dim: int) -> np.ndarray:
    """Map PSO parameters to ``dim`` poles inside the unit disk.

    Parameters are (magnitude, angle) per complex pair followed by a
    signed magnitude per leftover real pole.
    """
    poles = np.empty(dim, dtype=complex)
    n_pairs = dim // 2
    for i in range(n_pairs):
        magnitude = params[2 * i]
        angle = params[2 * i + 1]
        poles[2 * i] = magnitude * complex(math.cos(angle), math.sin(angle))
        poles[2 * i + 1] = poles[2 * i].conjugate()
    if dim % 2:
        poles[-1] = complex(params[-1], 0.0)
    return poles


def gains_for_poles(
    segments,
    desired_poles: np.ndarray,
    seed_gains: np.ndarray,
    max_nfev: int = 400,
) -> np.ndarray | None:
    """Solve the extended-Ackermann matching problem for ``desired_poles``.

    Returns stacked gains ``(m, l)`` whose lifted characteristic
    polynomial matches the desired one, or ``None`` when the nonlinear
    solve does not converge to a satisfactory residual.
    """
    # Imported here: scipy.optimize is slow to import and only this
    # ablation engine needs it, so it stays off every other run's start-up.
    from scipy.optimize import least_squares

    m = len(segments)
    order = segments[0].ad.shape[0]
    target = np.poly(np.asarray(desired_poles, dtype=complex))
    if np.abs(target.imag).max() > 1e-8:
        raise ControlError("desired poles must be conjugate-closed")
    target = target.real
    zeros_f = np.zeros(m)

    def residual(flat: np.ndarray) -> np.ndarray:
        gains = flat.reshape(m, order)
        a_hol, _ = lifted_closed_loop(list(segments), gains, zeros_f)
        coefficients = characteristic_coefficients(a_hol)
        return coefficients[1:] - target[1:]

    scale = max(1.0, float(np.abs(target).max()))
    rng = np.random.default_rng(1)
    start = seed_gains.reshape(-1).astype(float)
    for attempt in range(4):
        # The Jacobian at degenerate seeds (e.g. all-zero gains) can be
        # singular; deterministic jitter recovers.
        x0 = start if attempt == 0 else start + rng.normal(
            scale=0.1 * (1.0 + np.abs(start)), size=start.shape
        )
        try:
            solution = least_squares(residual, x0, method="lm", max_nfev=max_nfev)
        except Exception:  # lint: allow-broad-except(LM can fail on pathological Jacobians; next seed retries)
            continue
        if not np.all(np.isfinite(solution.x)):
            continue
        if np.abs(residual(solution.x)).max() <= 1e-6 * scale:
            return solution.x.reshape(m, order)
    return None


class PoleSearch:
    """The ``poles`` engine's swarm space for one design problem.

    Particles are lifted pole locations; each maps to gains through
    :func:`gains_for_poles`, warm-started from a stage-A Ackermann seed.
    The lifted dimension is ``m·l`` for ``m >= 2`` and ``l + 1`` for
    ``m == 1`` (input augmentation); in the latter case only ``l`` gain
    degrees of freedom exist, so the match is least-squares rather than
    exact — the simulation-based objective judges the result either way.
    """

    seeds = None

    def __init__(self, problem, options) -> None:
        self.segments = problem.segments
        self.m = problem.m
        self.order = problem.order
        self.dim = self.m * self.order if self.m >= 2 else self.order + 1
        stage_a = _StageA(problem, options)
        seed_gains = stage_a.gains_for(stage_a.default_seeds()[2])
        if seed_gains is None:
            seed_gains = np.zeros((self.m, self.order))
        self.seed_gains = seed_gains
        lower = []
        upper = []
        for _ in range(self.dim // 2):
            lower += [0.01, 0.0]
            upper += [0.985, math.pi]
        if self.dim % 2:
            lower.append(-0.985)
            upper.append(0.985)
        self.lower = np.array(lower)
        self.upper = np.array(upper)
        self._cache: dict[bytes, np.ndarray | None] = {}

    def _gains_of(self, params: np.ndarray) -> np.ndarray | None:
        key = params.tobytes()
        if key not in self._cache:
            poles = poles_from_parameters(params, self.dim)
            self._cache[key] = gains_for_poles(self.segments, poles, self.seed_gains)
        return self._cache[key]

    def gains_batch(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Matched gains ``(P, m, l)`` and the unmatched-particle mask."""
        gains = np.zeros((thetas.shape[0], self.m, self.order))
        bad = np.zeros(thetas.shape[0], dtype=bool)
        for p, params in enumerate(thetas):
            matched = self._gains_of(params)
            if matched is None:
                bad[p] = True
            else:
                gains[p] = matched
        return gains, bad

    def best_gains(self, theta: np.ndarray) -> np.ndarray:
        """Gains of the swarm's best particle (the seed if unmatched)."""
        gains = self._gains_of(theta)
        return self.seed_gains if gains is None else gains
