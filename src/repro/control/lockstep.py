"""The controller-design kernel: many design problems in lockstep.

The schedule search spends essentially all of its time designing
controllers: PSO over pole targets, Ackermann placement per task, a
lifted-eigenvalue stability check and a switched closed-loop
simulation, per (application, timing) pair and per restart.
:func:`design_controllers_batch` is the one place that work happens
(:func:`repro.control.design.design_controller` is a batch of one).
It runs one "design unit" per (problem, restart), advances every swarm
in lockstep through :func:`repro.control.pso.pso_minimize_many`, and
scores the particles of all units with stacked array operations
(:class:`BatchGainEvaluator`).

Batch contract
--------------
A design's bits never depend on the batch it rides in: designing a
problem alone, with other problems, in any order or with any batch
split gives the same gains, feedforwards, diagnostics and evaluation
counts, so tests assert exact equality, not tolerances, and the designs
pinned by ``tests/control/test_golden_designs.py`` hold whatever the
batch.  Each numerical stage is checked against an independent
reference that stays in the library for its own callers
(:func:`~repro.control.simulate.simulate_tracking`,
:func:`~repro.control.lifted.lifted_closed_loop`,
:func:`~repro.control.ackermann.place_poles_siso`,
:func:`~repro.control.lifted.feedforward_gain`).  What a speedup here may
and may not do follows from that.

It may:

* drop rows that no longer contribute — the tracking loop sorts units
  by horizon and stops computing a unit once it is past its own;
* hoist work that does not depend on the gains — placement tables
  (controllability test, powers of ``A``, the solve against ``e_l``),
  the simulation clock, stacked segment matrices — out of the per-call
  path;
* batch Python-level prologues and epilogues — factor arrays, pole
  maps, masks and rejection tests over whole particle arrays — and fuse
  element-wise work across units and particles: single-rounded IEEE
  operations give the same bits whatever the array shape or layout;
* re-derive ``np.convolve`` only as its complex dot kernel's exact
  arithmetic (:func:`_poly_rows`: the same partial sums from zero, in
  the same term order, onto numpy's zero accumulator), pinned against
  ``np.poly`` row by row and bit by bit by a property test, with the
  rows it cannot reproduce (non-finite ones) sent through
  ``np.convolve`` itself.

It may not, without re-pinning the golden designs:

* change the per-slice shape or layout of any BLAS/LAPACK call: every
  matmul, solve, determinant and eigenvalue problem runs on one unit's
  ``(P, l)``-style blocks, as stacked gufunc batches whose per-slice
  kernels do not depend on which other units are stacked alongside;
* re-derive any other library kernel, or fuse or reorder the
  operations of a re-derived one;
* reorder an accumulation: sums, products and the simulation clock add
  their terms in a fixed per-unit order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DesignInfeasibleError
from .ackermann import controllability_matrix, place_poles_siso
from .design import (
    ControllerDesign,
    DesignOptions,
    TrackingSpec,
    _continuous_poles,
    _DesignProblem,
    _StageA,
)
from .discretize import zoh
from .lifted import Segment
from .lti import LtiPlant
from .polesearch import PoleSearch
from .pso import pso_minimize_many


@dataclass(frozen=True)
class DesignRequest:
    """One (plant, timing, spec) controller-design problem."""

    plant: LtiPlant
    periods: tuple[float, ...]
    delays: tuple[float, ...]
    spec: TrackingSpec
    options: DesignOptions


def _convolve_chain(roots: np.ndarray) -> np.ndarray:
    """Complex ``np.poly`` coefficients of one root row: its ``np.convolve`` chain."""
    coefficients = np.ones((1,), dtype=complex)
    for root in roots:
        coefficients = np.convolve(
            coefficients, np.array([1, -root], dtype=complex), mode="full"
        )
    return coefficients


def _poly_rows(roots: np.ndarray) -> np.ndarray:
    """Complex ``np.poly`` coefficients ``(R, l + 1)`` of root rows ``(R, l)``.

    ``np.poly`` convolves the ``[1, -root]`` factors one by one, and
    every ``np.convolve`` output element is one complex BLAS dot of at
    most two terms: ``c[j-1] * (-root)`` first, then ``c[j] * 1``.  That
    kernel keeps four real partial sums from zero — re·re, im·im, re·im
    and im·re, in term order — returns ``s0 - s1`` and ``s2 + s3``, and
    numpy adds the pair onto its zero accumulator.  Repeating exactly
    those IEEE operations on real arrays, all rows at once, gives
    ``np.poly``'s bits for every row that stays finite (the trailing
    product is exact, so a kernel that fuses it into a multiply-add
    rounds the same).  NaN and overflow propagate differently, so rows
    with a non-finite coefficient — every row with a non-finite root
    has one — rerun the ``np.convolve`` chain itself.  Conjugate-closed
    rows are real up to the ``.real`` cast ``np.poly`` applies, which
    the caller takes.
    """
    n_rows = roots.shape[0]
    re = np.ones((n_rows, 1))
    im = np.zeros((n_rows, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for root in roots.T:
            root_re = -root.real[:, None]
            root_im = -root.imag[:, None]
            sums = []
            for x, by_one, by_root in (
                (re, 1.0, root_re),
                (im, 0.0, root_im),
                (re, 0.0, root_im),
                (im, 1.0, root_re),
            ):
                ones = x * by_one
                partial = 0.0 + np.concatenate([ones[:, :1], x * by_root], axis=1)
                partial[:, 1:-1] += ones[:, 1:]
                sums.append(partial)
            re = 0.0 + (sums[0] - sums[1])
            im = 0.0 + (sums[2] + sums[3])
    poly = np.empty(re.shape, dtype=complex)
    poly.real = re
    poly.imag = im
    finite = np.isfinite(re).all(axis=1) & np.isfinite(im).all(axis=1)
    for row in np.flatnonzero(~finite):
        poly[row] = _convolve_chain(roots[row])
    return poly


def _placement_tables(
    a: np.ndarray, b: np.ndarray, rcond: float = 1e-12
) -> tuple[bool, np.ndarray, np.ndarray]:
    """Gain-independent Ackermann tables of one ``(A, B)`` pair.

    Everything in :func:`place_poles_siso` that does not depend on the
    pole targets: the controllability test, the powers ``I, A, ...,
    A^l`` (generated as its ``phi(A)`` loop does: ``I @ A``, then
    repeated right-multiplication) and the solve against ``e_l``.
    Returns ``(uncontrollable, powers, k_solve)``; an uncontrollable
    pair gets a zero ``k_solve``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    order = a.shape[0]
    ctrb = controllability_matrix(a, b)
    scale = np.abs(ctrb).max()
    uncontrollable = bool(scale == 0 or 1.0 / np.linalg.cond(ctrb) < rcond)
    powers = [np.eye(order)]
    for _ in range(order):
        powers.append(powers[-1] @ a)
    if uncontrollable:
        return True, np.array(powers), np.zeros(order)
    last_row = np.zeros(order)
    last_row[-1] = 1.0
    return False, np.array(powers), np.linalg.solve(ctrb.T, last_row)


def _ackermann_rows(
    desired: np.ndarray,
    uncontrollable: np.ndarray,
    powers: np.ndarray,
    k_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`place_poles_siso` on every row; returns gain rows and ``bad``.

    Row ``r`` places the poles ``desired[r]`` on the pair whose
    :func:`_placement_tables` are gathered at ``r``: ``uncontrollable``
    ``(R,)``, ``powers`` ``(l + 1, R, l, l)`` and ``k_rows`` ``(R, 1, l)``.
    ``bad`` marks the rows it would reject; their gains are garbage.
    """
    order = desired.shape[1]
    poly = _poly_rows(desired)
    # np.poly casts conjugate-closed rows to real; the others must
    # pass place_poles_siso's imaginary-residue test (np.fmax, like
    # place_poles_siso's max(1.0, .), ignores a NaN magnitude).
    conjugate_closed = np.all(
        np.sort(desired, axis=1) == np.sort(desired.conjugate(), axis=1),
        axis=1,
    )
    bad = uncontrollable | (
        ~conjugate_closed
        & (
            np.abs(poly.imag).max(axis=1)
            > 1e-8 * np.fmax(1.0, np.abs(poly).max(axis=1))
        )
    )
    coefficients = poly.real.copy()
    coefficients[bad] = 0.0
    phi = np.zeros((desired.shape[0], order, order))
    for i, power in enumerate(powers):
        phi += coefficients[:, order - i, None, None] * power
    return -np.matmul(k_rows, phi)[:, 0, :], bad


class _PlacementGroup:
    """Stacked Ackermann placement for units sharing one plant order.

    Every (unit, target, particle) triple is one row, unit-major: the
    pole map, ``exp(poles·h)``, the polynomial expansion, the
    conjugate-closed and imaginary-residue tests, the ``phi(A)``
    accumulation and the ``(1, l) @ (l, l)`` product with ``k_solve``
    all run once over the rows of the whole group (reference:
    :func:`place_poles_siso`, bitwise).  The per-target tables are
    gathered per row once per particle-count tuple and reused.
    """

    def __init__(self, spaces: list, unit_indices: list[int]) -> None:
        self.unit_indices = unit_indices
        self.order = spaces[0].order
        self.m_list = [space.m for space in spaces]
        self.n_targets = [len(space.targets) for space in spaces]
        h, uncontrollable, powers, k_solve = [], [], [], []
        for space in spaces:
            for target_h, a, b in space.targets:
                tables = _placement_tables(a, b)
                h.append(target_h)
                uncontrollable.append(tables[0])
                powers.append(tables[1])
                k_solve.append(tables[2])
        self.h = np.array(h)
        self.uncontrollable = np.array(uncontrollable)
        self.powers = np.array(powers)      # (targets, l + 1, l, l)
        self.k_solve = np.array(k_solve)    # (targets, l)
        self._rows: dict[tuple[int, ...], tuple] = {}

    def _rows_for(self, counts: tuple[int, ...]) -> tuple:
        cached = self._rows.get(counts)
        if cached is not None:
            return cached
        theta_index, target_index = [], []
        theta_lo = target_lo = 0
        for count, n_targets in zip(counts, self.n_targets):
            theta_index.append(theta_lo + np.repeat(np.arange(count), n_targets))
            target_index.append(target_lo + np.tile(np.arange(n_targets), count))
            theta_lo += count
            target_lo += n_targets
        targets = np.concatenate(target_index)
        cached = (
            np.concatenate(theta_index),
            self.h[targets][:, None],
            self.uncontrollable[targets],
            np.ascontiguousarray(self.powers[targets].transpose(1, 0, 2, 3)),
            self.k_solve[targets][:, None, :],
        )
        self._rows[counts] = cached
        return cached

    def place(self, thetas_list: list[np.ndarray], gains_out: list, bad_out: list) -> None:
        order = self.order
        counts = tuple(thetas.shape[0] for thetas in thetas_list)
        theta_index, h, uncontrollable, powers, k_rows = self._rows_for(counts)
        poles = _continuous_poles(np.concatenate(thetas_list), order)
        placed, bad = _ackermann_rows(
            np.exp(poles[theta_index] * h), uncontrollable, powers, k_rows
        )
        lo = 0
        for u, count in enumerate(counts):
            n_targets = self.n_targets[u]
            hi = lo + count * n_targets
            unit_bad = bad[lo:hi].reshape(count, n_targets).any(axis=1)
            # A tied space (one target) reuses its row for every task.
            gains = np.empty((count, self.m_list[u], order))
            gains[:] = placed[lo:hi].reshape(count, n_targets, order)
            gains[unit_bad] = 0.0
            gains_out[self.unit_indices[u]] = gains
            bad_out[self.unit_indices[u]] = unit_bad
            lo = hi


class _BatchedStageA:
    """Cross-unit pole placement: pole-target particles to per-task gains.

    Serves every unit of a lockstep group whose swarm space places pole
    targets (``hybrid``/``seeded``/``uniform``): each space lists its
    placement ``targets`` as ``(h, A, B)`` triples, and one stacked
    :class:`_PlacementGroup` per plant order places all of their
    particles per call.
    """

    def __init__(self, spaces: list) -> None:
        self.n_units = len(spaces)
        by_order: dict[int, list[int]] = {}
        for u, space in enumerate(spaces):
            by_order.setdefault(space.order, []).append(u)
        self.groups = [
            _PlacementGroup([spaces[u] for u in indices], indices)
            for indices in by_order.values()
        ]

    def gains_batch(
        self, thetas_list: list[np.ndarray]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-unit gains ``(P, m, l)`` and infeasible-particle masks ``(P,)``."""
        gains: list = [None] * self.n_units
        bad: list = [None] * self.n_units
        for group in self.groups:
            group.place(
                [thetas_list[u] for u in group.unit_indices], gains, bad
            )
        return gains, bad


class _PoleTargetSpace:
    """The ``hybrid``/``seeded`` swarm space: pole targets, placed per task."""

    def __init__(self, problem: _DesignProblem, options: DesignOptions) -> None:
        self.stage_a = _StageA(problem, options)
        self.lower = self.stage_a.lower
        self.upper = self.stage_a.upper
        self.seeds = self.stage_a.default_seeds()
        self.order = problem.order
        self.m = problem.m
        self.plant_name = problem.plant.name
        self.targets = [(seg.h, seg.ad, seg.b1 + seg.b2) for seg in problem.segments]

    def best_gains(self, theta: np.ndarray) -> np.ndarray:
        gains = self.stage_a.gains_for(theta)
        if gains is None:
            raise DesignInfeasibleError(
                f"no pole target is realizable for plant {self.plant_name!r}"
            )
        return gains


class _UniformSearch:
    """The ``uniform`` swarm space: one average-period design for all tasks.

    The non-holistic ablation baseline: pole targets (stage A's box) are
    placed on the ZOH model at the mean sampling period and the one gain
    row is reused for every task.
    """

    seeds = None

    def __init__(self, problem: _DesignProblem, options: DesignOptions) -> None:
        stage_a = _StageA(problem, options)
        self.lower = stage_a.lower
        self.upper = stage_a.upper
        self.order = problem.order
        self.m = problem.m
        self.h_mean = sum(seg.h for seg in problem.segments) / self.m
        self.ad, self.gamma = zoh(problem.plant.a, problem.plant.b, self.h_mean)
        self.targets = [(self.h_mean, self.ad, self.gamma)]

    def best_gains(self, theta: np.ndarray) -> np.ndarray:
        row = place_poles_siso(
            self.ad, self.gamma, np.exp(_continuous_poles(theta, self.order) * self.h_mean)
        )
        return np.tile(row, (self.m, 1))


#: Engine name -> its stage-A swarm space (``hybrid`` refines further).
#: Each space has box bounds ``lower``/``upper``, ``seeds`` (initial
#: positions, or ``None``) and ``best_gains(theta)`` for the swarm's
#: final position.  Pole-target spaces list their placement ``targets``
#: for :class:`_BatchedStageA`; ``poles`` builds its own gains with
#: ``gains_batch(thetas) -> (gains, bad)``.
_SEARCHES = {
    "hybrid": _PoleTargetSpace,
    "seeded": _PoleTargetSpace,
    "uniform": _UniformSearch,
    "poles": PoleSearch,
}


class _FeedforwardGroup:
    """Fused feedforward gains (paper eq. 17) across units of one order.

    Stacks every (unit, segment) pair into one flat axis so the whole
    batch needs a single outer product, one stacked determinant, one
    stacked solve and one stacked matrix-vector product — all gufuncs
    whose per-slice kernels are the per-segment ``(P, l, l)`` calls of
    one unit, whatever else is stacked (reference:
    :func:`repro.control.lifted.feedforward_gain`).
    """

    def __init__(self, problems: list[_DesignProblem], unit_indices: list[int]) -> None:
        self.unit_indices = unit_indices
        self.m_list = [problem.m for problem in problems]
        offsets = [0]
        for m in self.m_list:
            offsets.append(offsets[-1] + m)
        self.offsets = offsets
        order = problems[0].order
        self.order = order
        self.ff_a = np.concatenate([problem._ff_a for problem in problems], axis=0)
        self.ff_b = np.concatenate([problem._ff_b for problem in problems], axis=0)
        self.c = np.concatenate(
            [
                np.ascontiguousarray(
                    np.broadcast_to(problem.plant.c, (m, order))
                )
                for problem, m in zip(problems, self.m_list)
            ],
            axis=0,
        )
        self.eye = np.eye(order)

    def run(self, gains: list[np.ndarray], f_out: list, invalid_out: list) -> None:
        order = self.order
        n_flat = self.ff_a.shape[0]
        n_batch = gains[0].shape[0]
        g = np.empty((n_flat, n_batch, order))
        for u, lo in enumerate(self.offsets[:-1]):
            g[lo:lo + self.m_list[u]] = gains[u].transpose(1, 0, 2)
        # M = I - Ad - Gamma K per (unit, segment, particle); the einsum
        # is a pure outer product, element-wise identical to
        # feedforward_gain's per-segment np.outer.
        mats = self.ff_a[:, None, :, :] - np.einsum(
            "fl,fpk->fplk", self.ff_b, g
        )
        dets = np.linalg.det(mats)
        bad = np.abs(dets) < 1e-12
        safe = mats.copy()
        safe[bad] = self.eye
        rhs = np.broadcast_to(
            self.ff_b[:, None, :, None], (n_flat, n_batch, order, 1)
        )
        solved = np.linalg.solve(safe, rhs)[..., 0]
        denom = np.matmul(solved, self.c[:, :, None])[..., 0]
        bad |= np.abs(denom) < 1e-12
        f_flat = np.where(bad, 0.0, 1.0 / np.where(bad, 1.0, denom))
        for u, lo in enumerate(self.offsets[:-1]):
            hi = lo + self.m_list[u]
            out = self.unit_indices[u]
            f_out[out] = np.ascontiguousarray(f_flat[lo:hi].T)
            invalid_out[out] = bad[lo:hi].any(axis=0)


class _LiftedBatch:
    """Stacked construction of the lifted ``A_hol`` across units.

    Mirrors :func:`repro.control.lifted.lifted_closed_loop` term by term
    for every particle of every unit in one build: the units share
    ``(m, l)`` and their inner-actuation pattern, so the term structure
    is common and only the segment matrices differ, and those are
    repeated per particle row.  Matrix products become stacked gufunc
    matmuls (per-slice kernels identical to its 2-D calls), outer
    products and additions stay element-wise and fuse across rows.
    """

    def __init__(self, segment_lists: list[list[Segment]]) -> None:
        first = segment_lists[0]
        self.n_units = len(segment_lists)
        self.m = len(first)
        self.order = first[0].ad.shape[0]
        self.dim = self.order + 1 if self.m == 1 else self.m * self.order
        self.inner = [seg.has_inner_actuation for seg in first]
        self.ad = [
            np.stack([segments[j].ad for segments in segment_lists])
            for j in range(self.m)
        ]
        self.b1 = [
            np.stack([segments[j].b1 for segments in segment_lists])
            for j in range(self.m)
        ]
        self.b2 = [
            np.stack([segments[j].b2 for segments in segment_lists])
            for j in range(self.m)
        ]
        # Gain-independent per-row stacks (segment matrices repeated per
        # particle, basis selectors, zero reference vector) keyed by the
        # particle count; they are only ever read, so reuse across
        # evaluate calls is safe.
        self._static: dict[int, tuple] = {}

    def _static_for(self, n_batch: int) -> tuple:
        cached = self._static.get(n_batch)
        if cached is not None:
            return cached
        m, order, dim = self.m, self.order, self.dim
        n_rows = self.n_units * n_batch
        ad, b1, b2 = (
            [np.repeat(table, n_batch, axis=0) for table in tables]
            for tables in (self.ad, self.b1, self.b2)
        )
        basis = []
        if m > 1:
            for j in range(m):
                coeff = np.zeros((n_rows, order, dim))
                coeff[:, :, j * order:(j + 1) * order] = np.eye(order)
                basis.append(coeff)
        zero_rvec = np.zeros((n_rows, order))
        cached = (ad, b1, b2, basis, zero_rvec)
        self._static[n_batch] = cached
        return cached

    def build(self, gains: np.ndarray, feedforward: np.ndarray) -> np.ndarray:
        """``A_hol`` per row of the unit-major stacked ``(U·P, m, l)`` gains."""
        m, order = self.m, self.order
        n_rows = gains.shape[0]
        ad, b1, b2, basis, zero_rvec = self._static_for(n_rows // self.n_units)
        if m == 1:
            k = gains[:, 0, :]
            a_hol = np.zeros((n_rows, order + 1, order + 1))
            a_hol[:, :order, :order] = ad[0] + b2[0][:, :, None] * k[:, None, :]
            a_hol[:, :order, order] = b1[0]
            a_hol[:, order, :order] = k
            return a_hol

        dim = self.dim
        g_rows = [
            np.ascontiguousarray(gains[:, j, :])[:, None, :] for j in range(m)
        ]

        def input_expr(j, coeff, rvec):
            u_coeff = np.matmul(g_rows[j], coeff)[:, 0, :]
            u_rvec = (
                np.matmul(g_rows[j], rvec[:, :, None])[:, 0, 0]
                + feedforward[:, j]
            )
            return u_coeff, u_rvec

        u_prev_hp = [input_expr(j, basis[j], zero_rvec) for j in range(m)]

        u_before = u_prev_hp[m - 2]
        u_after = u_prev_hp[m - 1]
        coeff = (
            np.matmul(ad[m - 1], basis[m - 1])
            + b1[m - 1][:, :, None] * u_before[0][:, None, :]
            + b2[m - 1][:, :, None] * u_after[0][:, None, :]
        )
        rvec = (
            np.matmul(ad[m - 1], zero_rvec[:, :, None])[:, :, 0]
            + b1[m - 1] * u_before[1][:, None]
            + b2[m - 1] * u_after[1][:, None]
        )
        new_exprs = [(coeff, rvec)]

        new_inputs = [input_expr(0, new_exprs[0][0], new_exprs[0][1])]
        for j in range(m - 1):
            coeff_j, rvec_j = new_exprs[j]
            active = u_prev_hp[m - 1] if j == 0 else new_inputs[j - 1]
            coeff = (
                np.matmul(ad[j], coeff_j)
                + b1[j][:, :, None] * active[0][:, None, :]
            )
            rvec = (
                np.matmul(ad[j], rvec_j[:, :, None])[:, :, 0]
                + b1[j] * active[1][:, None]
            )
            if self.inner[j]:
                own = new_inputs[j]
                coeff = coeff + b2[j][:, :, None] * own[0][:, None, :]
                rvec = rvec + b2[j] * own[1][:, None]
            new_exprs.append((coeff, rvec))
            if j + 1 < m:
                new_inputs.append(
                    input_expr(j + 1, new_exprs[j + 1][0], new_exprs[j + 1][1])
                )

        a_hol = np.empty((n_rows, dim, dim))
        for j, (coeff, _rvec) in enumerate(new_exprs):
            a_hol[:, j * order:(j + 1) * order, :] = coeff
        return a_hol


@dataclass(frozen=True)
class _TrackingStep:
    """Gathered coefficient tables of one fused time step.

    Covers the active prefix only: row ``u`` belongs to the ``u``-th
    (step-sorted) unit, ``seg_index[u]`` is its flat segment.
    Observation tables are laid out ``(unit, grid point, particle)`` so
    the band check runs along contiguous particle rows.
    """

    n_active: int
    seg_index: np.ndarray               # (n,)
    ad_t: np.ndarray                    # (n, l, l) transposed views
    b1: np.ndarray                      # (n, 1, l)
    b2: np.ndarray
    s1: np.ndarray                      # (n, s_max, 1)
    s2: np.ndarray
    t_abs: np.ndarray                   # (n, s_max, 1) observation times
    obs_groups: list[tuple[slice | np.ndarray, np.ndarray, int]]


class _TrackingGroup:
    """Fused tracking simulation for units sharing one plant order.

    One global time loop advances every unit's trajectory batch at once.
    Units are sorted by step count, longest first, so the units still
    inside their own horizon at step ``k`` are always the prefix
    ``[:n_active]`` and the loop works on prefix views: a unit past its
    horizon is never computed again.  The two per-segment matrix products
    keep their per-unit shapes (one per active unit on its contiguous
    ``(P, l)`` block), while the input law, intersample band checks,
    state updates and settling bookkeeping fuse across the active units
    via gathered per-step coefficient tables.  The segment clock does
    not depend on the gains, so the absolute observation times are
    accumulated once, here, with the additions of
    :func:`repro.control.simulate.simulate_tracking`.
    """

    def __init__(self, problems: list[_DesignProblem], unit_indices: list[int]) -> None:
        steps = []
        for problem in problems:
            gap = problem.plan.idle_gap
            hyper = problem.plan.hyperperiod
            n_hyper = max(1, math.ceil((problem.horizon - gap) / hyper))
            steps.append(n_hyper * problem.plan.n_phases)
        rank = sorted(range(len(problems)), key=lambda u: -steps[u])
        problems = [problems[u] for u in rank]
        steps = [steps[u] for u in rank]
        self.unit_indices = [unit_indices[u] for u in rank]
        self.n_units = len(problems)
        order = problems[0].plan.order
        self.order = order
        m_list = [problem.plan.n_phases for problem in problems]
        offsets = [0]
        for m in m_list:
            offsets.append(offsets[-1] + m)
        self.offsets = offsets
        total_m = offsets[-1]

        self.r = np.array([float(problem.spec.r) for problem in problems])
        self.band = np.array([problem.spec.band for problem in problems])
        self.gap = np.array([problem.plan.idle_gap for problem in problems])
        self.u0 = np.array([float(problem.u0) for problem in problems])
        self.x0 = np.stack(
            [np.asarray(problem.x0, dtype=float).reshape(-1) for problem in problems]
        )
        self.c_list = [problem.plan.c for problem in problems]

        segment_objs = [seg for problem in problems for seg in problem.plan.segments]
        n_obs = [len(seg.obs_times) for seg in segment_objs]
        s_max = max(n_obs)
        self.s_max = s_max
        ad = np.empty((total_m, order, order))
        b1 = np.empty((total_m, 1, order))
        b2 = np.empty((total_m, 1, order))
        s1 = np.zeros((total_m, s_max, 1))
        s2 = np.zeros((total_m, s_max, 1))
        # Padded observation slots carry t = -inf so whatever garbage the
        # padded output rows hold can never become a violation time.
        obs_t = np.full((total_m, s_max), -np.inf)
        periods = [h for problem in problems for h in problem.plan.periods]
        for flat, seg in enumerate(segment_objs):
            count = n_obs[flat]
            ad[flat] = seg.ad
            b1[flat, 0] = seg.b1
            b2[flat, 0] = seg.b2
            s1[flat, :count, 0] = seg.obs_s1
            s2[flat, :count, 0] = seg.obs_s2
            obs_t[flat, :count] = seg.obs_times

        # The step pattern is static, so gather it once per step: stacked
        # A_d used through a transpose view so each slice presents the
        # same layout as ``simulate_tracking``'s ``x @ ad.T`` call, and observation-map
        # stacks sub-grouped by grid size so the fused matmul never pads a
        # GEMM shape (a group spanning a contiguous run of units is
        # addressed by a slice, not a gather).
        self.steps: list[_TrackingStep] = []
        clock = [0.0] * self.n_units
        for k in range(steps[0]):
            n_active = sum(1 for count in steps if count > k)
            seg_index = np.array(
                [offsets[u] + k % m_list[u] for u in range(n_active)],
                dtype=np.intp,
            )
            t_abs = np.empty((n_active, s_max, 1))
            by_size: dict[int, list[int]] = {}
            for u in range(n_active):
                flat = seg_index[u]
                t_abs[u, :, 0] = clock[u] + obs_t[flat]
                clock[u] += periods[flat]
                by_size.setdefault(n_obs[flat], []).append(u)
            groups = []
            for count, members in by_size.items():
                stack = np.stack(
                    [segment_objs[seg_index[u]].obs_w for u in members]
                )
                lo, hi = members[0], members[-1] + 1
                rows = (
                    slice(lo, hi)
                    if hi - lo == len(members)
                    else np.array(members)
                )
                groups.append((rows, stack.transpose(0, 2, 1), count))
            self.steps.append(
                _TrackingStep(
                    n_active=n_active,
                    seg_index=seg_index,
                    ad_t=ad[seg_index].transpose(0, 2, 1),
                    b1=b1[seg_index],
                    b2=b2[seg_index],
                    s1=s1[seg_index],
                    s2=s2[seg_index],
                    t_abs=t_abs,
                    obs_groups=groups,
                )
            )
        self.t_final = clock

    def run(
        self,
        gains: list[np.ndarray],
        feedforwards: list[np.ndarray],
        settling_out: list,
        u_peak_out: list,
        final_error_out: list,
    ) -> None:
        """Simulate every unit; ``gains``/``feedforwards`` follow ``unit_indices``."""
        n_units = self.n_units
        order = self.order
        n_batch = gains[0].shape[0]
        total_m = self.offsets[-1]

        g_flat = np.empty((total_m, n_batch, order))
        f_flat = np.empty((total_m, n_batch))
        for u in range(n_units):
            lo, hi = self.offsets[u], self.offsets[u + 1]
            g_flat[lo:hi] = gains[u].transpose(1, 0, 2)
            f_flat[lo:hi] = feedforwards[u].transpose(1, 0)

        x = np.empty((n_units, n_batch, order))
        x[:] = self.x0[:, None, :]
        u_prev = np.empty((n_units, n_batch))
        u_prev[:] = self.u0[:, None]
        y_start = np.empty((n_units, n_batch))
        for u in range(n_units):
            y_start[u] = x[u] @ self.c_list[u]
        violating0 = np.abs(y_start - self.r[:, None]) > self.band[:, None]
        last_violation = np.where(violating0, 0.0, (-self.gap)[:, None])
        u_peak = np.zeros((n_units, n_batch))
        y_buf = np.empty((n_units, self.s_max, n_batch))
        r2 = self.r[:, None]
        r3 = self.r[:, None, None]
        band3 = self.band[:, None, None]

        # Padded observation rows may hold inf/nan garbage that their
        # t = -inf slots discard; silence only those spurious warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            for step in self.steps:
                n = step.n_active
                x_act = x[:n]
                u_prev_act = u_prev[:n]
                u_curr = (
                    np.einsum(
                        "pl,pl->p",
                        g_flat[step.seg_index].reshape(n * n_batch, order),
                        x_act.reshape(n * n_batch, order),
                    ).reshape(n, n_batch)
                    + f_flat[step.seg_index] * r2[:n]
                )
                np.maximum(u_peak[:n], np.abs(u_curr), out=u_peak[:n])

                for rows, obs_w_t, count in step.obs_groups:
                    y_buf[rows, :count] = np.matmul(
                        x[rows], obs_w_t
                    ).transpose(0, 2, 1)
                y_sub = (
                    y_buf[:n]
                    + u_prev_act[:, None, :] * step.s1
                    + u_curr[:, None, :] * step.s2
                )
                violating = np.abs(y_sub - r3[:n]) > band3[:n]
                candidate = np.where(violating, step.t_abs, -np.inf).max(axis=1)
                np.maximum(
                    last_violation[:n], candidate, out=last_violation[:n]
                )

                x[:n] = (
                    np.matmul(x_act, step.ad_t)
                    + u_prev_act[:, :, None] * step.b1
                    + u_curr[:, :, None] * step.b2
                )
                u_prev[:n] = u_curr

        for u in range(n_units):
            final_y = x[u] @ self.c_list[u]
            final_error = np.abs(final_y - self.r[u])
            settled = last_violation[u] < self.t_final[u] - 1e-15
            settling = np.where(
                settled, last_violation[u] + self.gap[u], np.inf
            )
            out = self.unit_indices[u]
            settling_out[out] = settling
            u_peak_out[out] = u_peak[u].copy()
            final_error_out[out] = final_error


class _StackedTracking:
    """Order-grouped dispatcher over :class:`_TrackingGroup`."""

    def __init__(self, problems: list[_DesignProblem]) -> None:
        self.n_units = len(problems)
        by_order: dict[int, list[int]] = {}
        for i, problem in enumerate(problems):
            by_order.setdefault(problem.plan.order, []).append(i)
        self.groups = [
            _TrackingGroup([problems[i] for i in indices], indices)
            for indices in by_order.values()
        ]

    def run(self, gains: list[np.ndarray], feedforwards: list[np.ndarray]):
        settling = [None] * self.n_units
        u_peak = [None] * self.n_units
        final_error = [None] * self.n_units
        for group in self.groups:
            group.run(
                [gains[i] for i in group.unit_indices],
                [feedforwards[i] for i in group.unit_indices],
                settling,
                u_peak,
                final_error,
            )
        return settling, u_peak, final_error


class BatchGainEvaluator:
    """Penalized worst-case settling of gain particles, across design units.

    Takes one gain batch per unit (all with the same particle count) and
    returns one result dict per unit (objective, settling, input peak,
    spectral radius, feedforward, invalid mask), whatever other units
    share the call.  Feedforward gains fuse per plant order; the
    stability check builds and solves the lifted-matrix eigenvalue
    problems once per group of units sharing ``(m, l)`` and
    inner-actuation pattern; the tracking simulations run through one
    fused time loop per plant order.  ``n_evaluations[i]`` counts the
    particles scored for unit ``i``.
    """

    def __init__(self, problems: list[_DesignProblem]) -> None:
        self.problems = problems
        self.n_evaluations = [0] * len(problems)
        self._tracking = _StackedTracking(problems)
        by_pattern: dict[tuple, list[int]] = {}
        for i, problem in enumerate(problems):
            key = (problem.m, problem.order) + tuple(
                seg.has_inner_actuation for seg in problem.segments
            )
            by_pattern.setdefault(key, []).append(i)
        self._lift_groups = [
            (indices, _LiftedBatch([problems[i].segments for i in indices]))
            for indices in by_pattern.values()
        ]
        by_order: dict[int, list[int]] = {}
        for i, problem in enumerate(problems):
            by_order.setdefault(problem.order, []).append(i)
        self._ff_groups = [
            _FeedforwardGroup([problems[i] for i in indices], indices)
            for indices in by_order.values()
        ]

    def _spectral_radii(self, gains: list[np.ndarray], feedforwards: list[np.ndarray]):
        radii = [None] * len(self.problems)
        for indices, lift in self._lift_groups:
            a_hol = lift.build(
                np.concatenate([gains[i] for i in indices]),
                np.concatenate([feedforwards[i] for i in indices]),
            )
            rho = np.abs(np.linalg.eigvals(a_hol)).max(axis=1)
            offset = 0
            for i in indices:
                count = gains[i].shape[0]
                radii[i] = rho[offset:offset + count]
                offset += count
        return radii

    def evaluate(self, gains_list: list[np.ndarray]) -> list[dict[str, np.ndarray]]:
        gains_list = [np.asarray(gains, dtype=float) for gains in gains_list]
        for i, gains in enumerate(gains_list):
            self.n_evaluations[i] += gains.shape[0]
        feedforwards: list = [None] * len(self.problems)
        invalids: list = [None] * len(self.problems)
        for group in self._ff_groups:
            group.run(
                [gains_list[i] for i in group.unit_indices],
                feedforwards,
                invalids,
            )
        radii = self._spectral_radii(gains_list, feedforwards)
        settling, u_peak, _final_error = self._tracking.run(
            gains_list, feedforwards
        )
        results = []
        for i, problem in enumerate(self.problems):
            objective = np.where(
                np.isfinite(settling[i]), settling[i], problem.big
            )
            unstable = radii[i] >= 1.0
            objective = objective + np.where(
                unstable,
                problem.big * (1.0 + np.minimum(radii[i] - 1.0, 10.0)),
                0.0,
            )
            saturated = u_peak[i] > problem.spec.u_max
            with np.errstate(divide="ignore", invalid="ignore"):
                excess = np.where(
                    saturated,
                    np.minimum(u_peak[i] / problem.spec.u_max - 1.0, 100.0),
                    0.0,
                )
            objective = objective + np.where(
                saturated, 0.2 * problem.big * (1.0 + excess), 0.0
            )
            objective = objective + np.where(invalids[i], 2.0 * problem.big, 0.0)
            results.append(
                {
                    "objective": objective,
                    "settling": settling[i],
                    "u_peak": u_peak[i],
                    "rho": radii[i],
                    "feedforward": feedforwards[i],
                    "invalid": invalids[i],
                }
            )
        return results


class _DesignUnit:
    """One (request, restart) pair advancing through the lockstep stages."""

    def __init__(self, request_index, restart, request, problem):
        self.request_index = request_index
        self.problem = problem
        self.rng = np.random.default_rng(
            request.options.seed + 104729 * restart
        )
        self.search = _SEARCHES[request.options.engine](problem, request.options)
        self.gains: np.ndarray | None = None


def _design_lockstep_group(
    requests: list[DesignRequest],
    indices: list[int],
    designs_out: list[ControllerDesign | None],
) -> None:
    """Design ``requests[indices]`` (one engine and swarm budget) together."""
    units: list[_DesignUnit] = []
    for i in indices:
        request = requests[i]
        options = request.options
        problem = _DesignProblem(
            request.plant,
            list(request.periods),
            list(request.delays),
            request.spec,
            options.horizon_factor,
            options.nsub,
        )
        for restart in range(options.restarts):
            units.append(_DesignUnit(i, restart, request, problem))
    options = requests[indices[0]].options
    batch_eval = BatchGainEvaluator([unit.problem for unit in units])
    spaces = [unit.search for unit in units]
    placement = None if options.engine == "poles" else _BatchedStageA(spaces)

    def stage_a_objective(positions_list):
        if placement is not None:
            gains_list, bad_list = placement.gains_batch(positions_list)
        else:
            gains_list, bad_list = zip(
                *(
                    space.gains_batch(positions)
                    for space, positions in zip(spaces, positions_list)
                )
            )
        results = batch_eval.evaluate(list(gains_list))
        values = []
        for unit, bad, result in zip(units, bad_list, results):
            objective = result["objective"]
            objective[bad] = 4.0 * unit.problem.big
            values.append(objective)
        return values

    swarms = [
        (unit.search.lower, unit.search.upper, unit.rng, unit.search.seeds)
        for unit in units
    ]
    results_a = pso_minimize_many(stage_a_objective, swarms, options.stage_a)
    for unit, result in zip(units, results_a):
        unit.gains = unit.search.best_gains(result.best_position)

    if options.engine == "hybrid":
        # Stage B: direct PSO over all gain entries around the stage-A
        # optimum, seeded with it.
        refine_swarms = []
        for unit in units:
            flat = unit.gains.reshape(-1)
            spread = 2.5 * np.abs(flat) + 0.5 * (np.abs(flat).mean() + 1e-9)
            refine_swarms.append(
                (flat - spread, flat + spread, unit.rng, flat[None, :])
            )

        def stage_b_objective(positions_list):
            batches = [
                positions.reshape(-1, unit.problem.m, unit.problem.order)
                for unit, positions in zip(units, positions_list)
            ]
            return [
                result["objective"] for result in batch_eval.evaluate(batches)
            ]

        results_b = pso_minimize_many(
            stage_b_objective, refine_swarms, options.stage_b
        )
        pairs = [
            np.stack(
                [
                    unit.gains,
                    result.best_position.reshape(unit.problem.m, unit.problem.order),
                ]
            )
            for unit, result in zip(units, results_b)
        ]
        # Keep whichever of (center, refined) evaluates better — PSO noise
        # must never make the final design worse than its seed.
        for unit, pair, both in zip(units, pairs, batch_eval.evaluate(pairs)):
            if both["objective"][1] <= both["objective"][0]:
                unit.gains = pair[1]

    finals = batch_eval.evaluate([unit.gains[None] for unit in units])
    best: dict[int, ControllerDesign] = {}
    cumulative: dict[int, int] = {}
    for u, (unit, result) in enumerate(zip(units, finals)):
        # A request's restarts run one after another in its evaluation
        # count: each restart's design records the cumulative count.
        i = unit.request_index
        cumulative[i] = cumulative.get(i, 0) + batch_eval.n_evaluations[u]
        design = design_from_result(
            unit.gains, result, cumulative[i], options.engine
        )
        if i not in best or design.objective < best[i].objective:
            best[i] = design
    for i, design in best.items():
        designs_out[i] = design


def design_from_result(
    gains: np.ndarray, result: dict[str, np.ndarray], n_evaluations: int, engine: str
) -> ControllerDesign:
    """Package a final one-row :meth:`BatchGainEvaluator.evaluate` result."""
    return ControllerDesign(
        gains=gains,
        feedforward=result["feedforward"][0],
        settling=float(result["settling"][0]),
        u_peak=float(result["u_peak"][0]),
        spectral_radius=float(result["rho"][0]),
        objective=float(result["objective"][0]),
        n_evaluations=n_evaluations,
        engine=engine,
    )


def design_controllers_batch(
    requests: list[DesignRequest],
) -> list[ControllerDesign]:
    """Design controllers for many problems at once.

    Requests sharing an engine and swarm budget advance together, every
    restart of every request one lockstep unit.  Each returned design —
    gains, feedforward, diagnostics and evaluation count — is the one
    the request gets alone: batching never changes a design's bits.
    """
    designs: list[ControllerDesign | None] = [None] * len(requests)
    groups: dict[tuple, list[int]] = {}
    for i, request in enumerate(requests):
        options = request.options
        key = (options.engine, options.stage_a, options.stage_b)
        groups.setdefault(key, []).append(i)
    for indices in groups.values():
        _design_lockstep_group(requests, indices, designs)
    return designs
