"""The lockstep design kernel: batch independence and stage references.

``design_controllers_batch`` must give every request *exactly* the
design it gets alone — same gains, feedforwards, objectives, settling
times and evaluation counts — whatever batch it rides in, because the
schedule search compares overall performances across candidates and any
drift would reorder them.  Each numerical stage is checked against an
independent reference kept in the library for its own callers; the
designs themselves are pinned by ``test_golden_designs.py``.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import LtiPlant, simulate_tracking
from repro.control.ackermann import place_poles_siso
from repro.control.design import (
    DesignOptions,
    TrackingSpec,
    _continuous_poles,
    _DesignProblem,
    _StageA,
    design_controller,
)
from repro.control.lifted import (
    build_segments,
    feedforward_gains,
    lifted_closed_loop,
)
from repro.control import lockstep
from repro.control.lockstep import (
    BatchGainEvaluator,
    DesignRequest,
    _ackermann_rows,
    _BatchedStageA,
    _placement_tables,
    _PoleTargetSpace,
    _poly_rows,
    _StackedTracking,
    _UniformSearch,
    design_controllers_batch,
)
from repro.control.pso import PsoOptions, pso_minimize_many
from repro.errors import ControlError
from repro.sched import PeriodicSchedule, derive_timing


ENGINES = ("hybrid", "seeded", "uniform", "poles")


def _assert_designs_identical(alone, batched):
    assert np.array_equal(alone.gains, batched.gains)
    assert np.array_equal(alone.feedforward, batched.feedforward)
    assert alone.objective == batched.objective
    assert alone.settling == batched.settling
    assert alone.spectral_radius == batched.spectral_radius
    assert alone.n_evaluations == batched.n_evaluations
    assert alone.engine == batched.engine


def _case_requests(case_study, options, counts_list):
    """One DesignRequest per (app, schedule) with the evaluator's seeding."""
    wcets = [app.wcets for app in case_study.apps]
    requests = []
    for counts in counts_list:
        timing = derive_timing(
            PeriodicSchedule(counts), wcets, case_study.clock
        )
        for i, app in enumerate(case_study.apps):
            app_timing = timing.for_app(i)
            requests.append(
                DesignRequest(
                    plant=app.plant,
                    periods=app_timing.periods,
                    delays=app_timing.delays,
                    spec=app.spec,
                    options=replace(options, seed=options.seed + 7919 * i),
                )
            )
    return requests


def _alone_designs(requests):
    """Each request designed in a batch of its own."""
    return [
        design_controller(
            r.plant, list(r.periods), list(r.delays), r.spec, r.options
        )
        for r in requests
    ]


#: First- and third-order plants to mix with the order-2 case study.
LAG1 = LtiPlant("lag1", np.array([[-80.0]]), np.array([80.0]), np.array([1.0]))
LAG3 = LtiPlant(
    "lag3",
    np.array([[-40.0, 40.0, 0.0], [0.0, -60.0, 60.0], [0.0, 0.0, -90.0]]),
    np.array([0.0, 0.0, 90.0]),
    np.array([1.0, 0.0, 0.0]),
)


def _mixed_requests(case_study, options):
    """Orders 1-3, one to three tasks per hyperperiod, unequal deadlines.

    Unequal deadlines give unequal simulation horizons, so the fused
    tracking loop freezes units at different steps; the servo units
    alternate one- and two-task timings, so after sorting by horizon the
    units sharing an observation-grid size are not always adjacent.
    """
    wcets = [app.wcets for app in case_study.apps]
    servo = case_study.apps[0]
    cases = [  # (plant, deadline, schedule, timing of app)
        (LAG1, 0.03, (2, 1, 1), 0),
        (servo.plant, servo.spec.deadline, (1, 1, 1), 0),
        (LAG3, 0.08, (3, 2, 1), 1),
        (LAG1, 0.012, (1, 2, 2), 2),
        (LAG3, 0.05, (2, 2, 2), 0),
        (servo.plant, 0.03, (3, 1, 2), 1),
        (servo.plant, 0.06, (2, 1, 1), 0),
        (servo.plant, 0.02, (2, 1, 1), 0),
    ]
    requests = []
    for i, (plant, deadline, counts, app) in enumerate(cases):
        timing = derive_timing(
            PeriodicSchedule(counts), wcets, case_study.clock
        ).for_app(app)
        if plant is servo.plant:
            spec = replace(servo.spec, deadline=deadline)
        else:
            spec = TrackingSpec(r=1.0, y0=0.0, u_max=10.0, deadline=deadline)
        requests.append(
            DesignRequest(
                plant=plant,
                periods=timing.periods,
                delays=timing.delays,
                spec=spec,
                options=replace(options, seed=options.seed + 7919 * i),
            )
        )
    return requests


def _problems(requests):
    """One design problem per request, built as the lockstep designer does."""
    return [
        _DesignProblem(
            r.plant,
            list(r.periods),
            list(r.delays),
            r.spec,
            r.options.horizon_factor,
            r.options.nsub,
        )
        for r in requests
    ]


def _gain_batches(problems, rng, n_batch=5):
    """Placed stage-A gains per problem plus reference feedforwards."""
    gains, feedforwards = [], []
    for problem in problems:
        stage_a = _StageA(problem, DesignOptions())
        rows = []
        while len(rows) < n_batch:
            theta = rng.uniform(stage_a.lower, stage_a.upper)
            rows.append(stage_a.gains_for(theta))
        batch = np.stack(rows)
        batch[-1] *= 3.0  # an aggressive row that may never settle
        gains.append(batch)
        feedforwards.append(
            np.stack(
                [
                    feedforward_gains(problem.plant.c, problem.segments, row)
                    for row in batch
                ]
            )
        )
    return gains, feedforwards


def _scalar_continuous_poles(theta, order):
    """The per-particle loop ``_continuous_poles`` vectorizes (reference)."""
    poles = np.empty(order, dtype=complex)
    for i in range(order // 2):
        wn = theta[2 * i]
        zeta = theta[2 * i + 1]
        if zeta < 1.0:
            wd = wn * math.sqrt(1.0 - zeta * zeta)
            poles[2 * i] = complex(-zeta * wn, wd)
            poles[2 * i + 1] = complex(-zeta * wn, -wd)
        else:
            spread = wn * math.sqrt(zeta * zeta - 1.0)
            poles[2 * i] = complex(-zeta * wn + spread, 0.0)
            poles[2 * i + 1] = complex(-zeta * wn - spread, 0.0)
    if order % 2:
        poles[-1] = complex(-theta[-1], 0.0)
    return poles


def _bits(array):
    """Raw IEEE bits, so ``-0.0`` and NaN payloads count as differences."""
    return np.ascontiguousarray(array).view(np.uint64).tolist()


def _np_poly_uncast(roots):
    """``np.poly``'s convolution loop without its final ``.real`` cast."""
    coefficients = np.ones((1,), dtype=complex)
    for root in roots:
        coefficients = np.convolve(
            coefficients, np.array([1, -root], dtype=complex), mode="full"
        )
    return coefficients


def _assert_rows_equal_np_poly(roots):
    got = _poly_rows(roots)
    assert got.shape == (roots.shape[0], roots.shape[1] + 1)
    assert got.dtype == complex
    for row, expected_roots in zip(got, roots):
        assert _bits(row) == _bits(_np_poly_uncast(expected_roots))
        cast = np.poly(expected_roots)
        assert _bits(row if cast.dtype == complex else row.real) == _bits(cast)


_PART = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-2.0, 2.0),
    st.floats(-1e3, 1e3),
)
_ZERO = st.sampled_from([0.0, -0.0])


@st.composite
def _root_rows(draw, kind):
    """Finite root rows of one order 1-5: ``real``, ``conjugate``-closed
    or ``complex``, some with repeated roots or (signed) zeros."""
    order = draw(st.integers(1, 5), label="order")
    rows = []
    for _ in range(draw(st.integers(1, 6), label="rows")):
        zero = draw(st.booleans())
        part = _ZERO if zero and draw(st.booleans()) else _PART
        if kind == "real":
            roots = [complex(draw(part), draw(_ZERO)) for _ in range(order)]
        elif kind == "conjugate":
            roots = []
            for _ in range(order // 2):
                pair = complex(draw(part), draw(part))
                roots += [pair, pair.conjugate()]
            roots += [complex(draw(part), 0.0)] * (order % 2)
        else:
            roots = [complex(draw(part), draw(part)) for _ in range(order)]
        if draw(st.booleans(), label="repeated"):
            if kind == "conjugate":
                n_pairs = order // 2
                roots = roots[:2] * n_pairs + roots[2 * n_pairs:]
            else:
                roots = roots[:1] * order
        rows.append(draw(st.permutations(roots)))
    return np.array(rows, dtype=complex)


class TestPolyFromRoots:
    """``_poly_rows`` rows equal ``np.poly``, bitwise, before its ``.real`` cast."""

    @given(roots=_root_rows("conjugate"))
    @settings(max_examples=150, deadline=None)
    def test_matches_np_poly_conjugate_roots(self, roots):
        _assert_rows_equal_np_poly(roots)
        assert all(np.poly(row).dtype == float for row in roots)

    @given(roots=_root_rows("complex"))
    @settings(max_examples=150, deadline=None)
    def test_matches_np_poly_non_conjugate_roots(self, roots):
        _assert_rows_equal_np_poly(roots)

    @given(roots=_root_rows("real"))
    @settings(max_examples=100, deadline=None)
    def test_real_roots(self, roots):
        _assert_rows_equal_np_poly(roots)

    @given(
        roots=st.sampled_from(["real", "conjugate", "complex"]).flatmap(_root_rows)
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_are_independent(self, roots):
        batch = _poly_rows(roots)
        for r in range(roots.shape[0]):
            assert _bits(batch[r]) == _bits(_poly_rows(roots[r:r + 1])[0])

    def test_stage_a_targets(self, rng):
        for order in range(1, 6):
            thetas = rng.uniform(5.0, 900.0, size=(200, order // 2 * 2 + order % 2))
            for i in range(order // 2):
                thetas[:, 2 * i + 1] = rng.uniform(0.35, 1.4, size=200)
            h = rng.uniform(1e-4, 2e-2, size=(200, 1))
            _assert_rows_equal_np_poly(np.exp(_continuous_poles(thetas, order) * h))

    def test_non_finite_rows_take_the_convolve_fallback(self, monkeypatch):
        inf, nan = math.inf, math.nan
        roots = np.array(
            [
                [0.5 + 0.1j, 0.5 - 0.1j, 0.2],
                [inf, 0.5, 0.25],
                [0.5 + 0.1j, complex(nan, 0.0), 0.3],
                [complex(-inf, inf), 0.1, 0.1],
                [1e200, 1e200, 1e-3],  # finite roots, overflowing coefficients
                [0.3 + 0.2j, 0.3 - 0.2j, complex(0.0, nan)],
            ]
        )
        fallback_rows = []
        real_chain = lockstep._convolve_chain

        def spy(row):
            fallback_rows.append(_bits(row))
            return real_chain(row)

        monkeypatch.setattr(lockstep, "_convolve_chain", spy)
        with np.errstate(all="ignore"):
            _assert_rows_equal_np_poly(roots)
        assert fallback_rows == [_bits(roots[i]) for i in (1, 2, 3, 4, 5)]


class TestContinuousPoles:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_batch_matches_scalar_loop(self, rng, order):
        thetas = np.empty((40, order // 2 * 2 + order % 2))
        thetas[:] = rng.uniform(5.0, 900.0, size=thetas.shape)
        for i in range(order // 2):
            zeta = rng.uniform(0.35, 1.4, size=40)
            zeta[:4] = (1.0, np.nextafter(1.0, 0.0), 0.35, 1.4)
            thetas[:, 2 * i + 1] = zeta
        batch = _continuous_poles(thetas, order)
        for theta, row in zip(thetas, batch):
            expected = _scalar_continuous_poles(theta, order)
            assert np.array_equal(row, expected)
            assert np.array_equal(_continuous_poles(theta, order), expected)


def _uncontrollable_space():
    """A two-task pole-target space whose second segment is uncontrollable."""
    servo = build_segments(
        LtiPlant("servo2", np.array([[0.0, 1.0], [-400.0, -30.0]]),
                 np.array([0.0, 400.0]), np.array([1.0, 0.0])).a,
        np.array([0.0, 400.0]),
        [0.002],
        [0.0015],
    )[0]
    return SimpleNamespace(
        order=2,
        m=2,
        lower=np.array([20.0, 0.35]),
        upper=np.array([600.0, 1.4]),
        targets=[
            (servo.h, servo.ad, servo.b1 + servo.b2),
            (0.002, np.diag([0.9, 0.8]), np.array([0.1, 0.0])),
        ],
    )


@pytest.fixture(scope="module")
def placement_spaces(case_study):
    """Pole-target spaces of orders 1-3 and one or two tasks, one of
    them tied (``uniform``) and one with an uncontrollable segment."""
    requests = _mixed_requests(case_study, DesignOptions())
    problems = _problems(requests)
    spaces = [_PoleTargetSpace(problem, DesignOptions()) for problem in problems]
    spaces.append(_UniformSearch(problems[2], DesignOptions()))
    spaces.append(_uncontrollable_space())
    return spaces


def _draw_thetas(rng, space, n, zeta=None):
    """``n`` stage-A positions in the space's box, dampings in ``zeta``."""
    thetas = rng.uniform(space.lower, space.upper, size=(n, space.lower.size))
    if zeta is not None:
        for i in range(space.order // 2):
            thetas[:, 2 * i + 1] = rng.uniform(*zeta, size=n)
    return thetas


def _reference_gains(space, theta):
    """Per-target ``place_poles_siso`` rows, or ``None`` if any raises."""
    poles = _continuous_poles(theta, space.order)
    rows = []
    for h, a, b in space.targets:
        try:
            rows.append(place_poles_siso(a, b, np.exp(poles * h)))
        except ControlError:
            return None
    return np.array([rows[j % len(rows)] for j in range(space.m)])


def _assert_units_match_serial(spaces, thetas):
    """One cross-unit call; every unit's rows equal the serial reference.

    Returns the per-unit ``bad`` masks.
    """
    gains, bad = _BatchedStageA(spaces).gains_batch(thetas)
    for space, unit_thetas, unit_gains, unit_bad in zip(spaces, thetas, gains, bad):
        assert unit_gains.shape == (len(unit_thetas), space.m, space.order)
        assert unit_bad.shape == (len(unit_thetas),)
        for theta, row, row_bad in zip(unit_thetas, unit_gains, unit_bad):
            expected = _reference_gains(space, theta)
            assert row_bad == (expected is None)
            if expected is None:
                expected = np.zeros_like(row)
            assert _bits(row) == _bits(expected)
    return bad


class TestSegmentPlacer:
    """Segment rows placed across units equal serial ``place_poles_siso``.

    Each call mixes plant orders 1-3, one- and two-task units, a tied
    (``uniform``) unit and a unit with an uncontrollable segment.
    """

    def test_underdamped_pairs(self, placement_spaces, rng):
        spaces = placement_spaces
        assert {space.order for space in spaces} == {1, 2, 3}
        assert {space.m for space in spaces} == {1, 2}
        thetas = [
            _draw_thetas(rng, space, 7 + u % 3, zeta=(0.35, 0.99))
            for u, space in enumerate(spaces)
        ]
        bad = _assert_units_match_serial(spaces, thetas)
        assert not any(unit_bad.any() for unit_bad in bad[:-1])

    def test_damping_at_least_one_gives_real_pairs(self, placement_spaces, rng):
        spaces = placement_spaces
        thetas = [_draw_thetas(rng, space, 6, zeta=(1.0, 1.4)) for space in spaces]
        for space, unit_thetas in zip(spaces, thetas):
            if space.order > 1:
                unit_thetas[0, 1] = 1.0  # a repeated real pole
            assert not _continuous_poles(unit_thetas, space.order).imag.any()
        bad = _assert_units_match_serial(spaces, thetas)
        assert not any(unit_bad.any() for unit_bad in bad[:-1])

    @pytest.mark.parametrize("plant", [LAG1, LAG3], ids=["order1", "order3"])
    def test_odd_plant_order(self, placement_spaces, rng, plant):
        spaces = [space for space in placement_spaces if space.order == plant.order]
        assert len(spaces) >= 2
        thetas = [_draw_thetas(rng, space, 9) for space in spaces]
        bad = _assert_units_match_serial(spaces, thetas)
        assert not any(unit_bad.any() for unit_bad in bad)

    def test_non_conjugate_rows_come_back_bad(self, case_study):
        plant = case_study.apps[0].plant
        segment = build_segments(plant.a, plant.b, [0.002], [0.0015])[0]
        b = segment.b1 + segment.b2
        uncontrollable, powers, k_solve = _placement_tables(segment.ad, b)
        desired = np.array(
            [
                [0.6 + 0.3j, 0.6 - 0.3j],
                [0.5 + 0.2j, 0.4 - 0.2j],
                [0.5, 0.25],
                [0.3 + 0.1j, 0.3 + 0.1j],
            ]
        )
        n = len(desired)
        rows, bad = _ackermann_rows(
            desired,
            np.full(n, uncontrollable),
            np.ascontiguousarray(np.broadcast_to(powers[:, None], (3, n, 2, 2))),
            np.ascontiguousarray(np.broadcast_to(k_solve, (n, 2)))[:, None, :],
        )
        assert bad.tolist() == [False, True, False, True]
        for row, row_bad, poles in zip(rows, bad, desired):
            if row_bad:
                with pytest.raises(ControlError):
                    place_poles_siso(segment.ad, b, poles)
            else:
                assert _bits(row) == _bits(place_poles_siso(segment.ad, b, poles))

    def test_uncontrollable_segment_rejects_every_row(self, placement_spaces, rng):
        space = placement_spaces[-1]
        _h, a, b = space.targets[1]
        with pytest.raises(ControlError):
            place_poles_siso(a, b, np.array([0.6 + 0.3j, 0.6 - 0.3j]))
        thetas = [_draw_thetas(rng, s, 4) for s in placement_spaces]
        bad = _assert_units_match_serial(placement_spaces, thetas)
        assert bad[-1].all()

    def test_tied_space_reuses_its_row(self, placement_spaces, rng):
        space = placement_spaces[-2]
        assert len(space.targets) == 1 and space.m == 2
        gains, bad = _BatchedStageA([space]).gains_batch(
            [_draw_thetas(rng, space, 5)]
        )
        assert not bad[0].any()
        assert np.array_equal(gains[0][:, 0], gains[0][:, 1])

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_unit_results_do_not_depend_on_the_call(self, placement_spaces, data):
        spaces = placement_spaces
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        thetas = [_draw_thetas(rng, s, 6) for s in spaces]
        alone = [
            _BatchedStageA([space]).gains_batch([unit_thetas])
            for space, unit_thetas in zip(spaces, thetas)
        ]
        members = data.draw(
            st.lists(
                st.sampled_from(range(len(spaces))), min_size=1, unique=True
            ),
            label="members",
        )
        counts = data.draw(
            st.lists(st.integers(1, 6), min_size=len(members), max_size=len(members)),
            label="counts",
        )
        # One placement serves calls with different particle counts.
        placement = _BatchedStageA([spaces[u] for u in members])
        for call_counts in ([6] * len(members), counts):
            gains, bad = placement.gains_batch(
                [thetas[u][:n] for u, n in zip(members, call_counts)]
            )
            for u, n, unit_gains, unit_bad in zip(members, call_counts, gains, bad):
                assert _bits(unit_gains) == _bits(alone[u][0][0][:n])
                assert unit_bad.tolist() == alone[u][1][0][:n].tolist()


class TestPsoMinimizeMany:
    """A problem's swarm never depends on the problems sharing its call."""

    def _problems(self, dims, seed, seeds=None):
        problems = []
        for i, dim in enumerate(dims):
            lower = -np.ones(dim) * (i + 1)
            upper = np.ones(dim) * (i + 2)
            problems.append(
                (lower, upper, np.random.default_rng(seed + i), seeds)
            )
        return problems

    @staticmethod
    def _objective(batches):
        return [
            np.sum(positions**2, axis=1) + 0.1 * np.sin(positions[:, 0])
            for positions in batches
        ]

    def test_lockstep_matches_individual_runs(self):
        options = PsoOptions(n_particles=8, n_iterations=12)
        dims = [2, 3, 2]
        many = pso_minimize_many(
            self._objective, self._problems(dims, seed=7), options
        )
        for i, problem in enumerate(self._problems(dims, seed=7)):
            [alone] = pso_minimize_many(self._objective, [problem], options)
            assert np.array_equal(many[i].best_position, alone.best_position)
            assert many[i].best_value == alone.best_value
            assert many[i].history == alone.history
            assert many[i].n_evaluations == alone.n_evaluations

    def test_seed_positions_respected(self):
        options = PsoOptions(n_particles=6, n_iterations=8)
        seeds = np.array([[0.1, -0.2], [0.3, 0.4]])
        many = pso_minimize_many(
            self._objective, self._problems([2, 2], 3, seeds), options
        )
        [alone] = pso_minimize_many(
            self._objective, self._problems([2], 3, seeds), options
        )
        assert np.array_equal(many[0].best_position, alone.best_position)
        assert many[0].best_value == alone.best_value
        assert alone.history[0] <= self._objective([seeds])[0].min()


class TestBatchDesignIdentity:
    def test_single_restart_case_study(self, case_study, tiny_design_options):
        requests = _case_requests(
            case_study, tiny_design_options, [(1, 1, 1), (2, 1, 1)]
        )
        batched = design_controllers_batch(requests)
        for alone, got in zip(_alone_designs(requests), batched):
            _assert_designs_identical(alone, got)

    def test_multi_restart_case_study(self, case_study):
        options = DesignOptions(
            restarts=2, stage_a=PsoOptions(8, 6), stage_b=PsoOptions(10, 7)
        )
        requests = _case_requests(case_study, options, [(2, 2, 2)])
        batched = design_controllers_batch(requests)
        for alone, got in zip(_alone_designs(requests), batched):
            _assert_designs_identical(alone, got)

    def test_mixed_engines_in_one_batch(self, case_study):
        """Every engine, and restarts of one request, share one call."""
        base = DesignOptions(
            restarts=1, stage_a=PsoOptions(6, 6), stage_b=PsoOptions(6, 6)
        )
        wcets = [app.wcets for app in case_study.apps]
        timing = derive_timing(
            PeriodicSchedule((1, 1, 1)), wcets, case_study.clock
        )
        app = case_study.apps[0]
        app_timing = timing.for_app(0)
        requests = [
            DesignRequest(
                plant=app.plant,
                periods=app_timing.periods,
                delays=app_timing.delays,
                spec=app.spec,
                options=replace(base, engine=engine, restarts=restarts),
            )
            for engine in ENGINES
            for restarts in (1, 2)
        ]
        batched = design_controllers_batch(requests)
        assert [d.engine for d in batched] == [r.options.engine for r in requests]
        for alone, got in zip(_alone_designs(requests), batched):
            _assert_designs_identical(alone, got)

    def test_empty_batch(self):
        assert design_controllers_batch([]) == []

    def test_unknown_engine_rejected(self):
        with pytest.raises(ControlError, match="gradient"):
            DesignOptions(engine="gradient")

    def test_invalid_restarts_rejected(self):
        with pytest.raises(ControlError, match="restarts"):
            DesignOptions(restarts=0)

    def test_mixed_orders_and_horizons(self, case_study):
        options = DesignOptions(
            restarts=1, stage_a=PsoOptions(6, 5), stage_b=PsoOptions(6, 5)
        )
        requests = _mixed_requests(case_study, options)
        requests[2] = replace(
            requests[2], options=replace(requests[2].options, restarts=2)
        )
        batched = design_controllers_batch(requests)
        for alone, got in zip(_alone_designs(requests), batched):
            _assert_designs_identical(alone, got)

    def test_one_unit_batch(self, case_study):
        options = DesignOptions(
            restarts=1, stage_a=PsoOptions(6, 5), stage_b=PsoOptions(6, 5)
        )
        request = _mixed_requests(case_study, options)[2]
        (got,) = design_controllers_batch([request])
        _assert_designs_identical(_alone_designs([request])[0], got)


class TestStackedTracking:
    """The fused, prefix-compacted tracking loop vs ``simulate_tracking``."""

    def _assert_matches_reference(self, problems, rng):
        gains, feedforwards = _gain_batches(problems, rng)
        tracking = _StackedTracking(problems)
        settling, u_peak, final_error = tracking.run(gains, feedforwards)
        for i, problem in enumerate(problems):
            reference = simulate_tracking(
                problem.plan,
                gains[i],
                feedforwards[i],
                r=problem.spec.r,
                x0=problem.x0,
                u0=problem.u0,
                horizon=problem.horizon,
                band=problem.spec.band,
            )
            assert np.array_equal(settling[i], reference.settling)
            assert np.array_equal(u_peak[i], reference.u_peak, equal_nan=True)
            assert np.array_equal(
                final_error[i], reference.final_error, equal_nan=True
            )
        return tracking

    def test_units_freezing_at_different_steps(self, case_study, rng):
        options = DesignOptions(restarts=1)
        problems = _problems(_mixed_requests(case_study, options))
        tracking = self._assert_matches_reference(problems, rng)
        assert len(tracking.groups) == 3
        steps = [step for group in tracking.groups for step in group.steps]
        # Some units freeze before others, and both observation-group
        # addressings (contiguous slice and gathered rows) are exercised.
        assert any(
            group.steps[-1].n_active < group.n_units for group in tracking.groups
        )
        kinds = {
            type(rows) for step in steps for rows, _w, _n in step.obs_groups
        }
        assert kinds == {slice, np.ndarray}

    def test_one_unit(self, case_study, rng):
        options = DesignOptions(restarts=1)
        problems = _problems(_mixed_requests(case_study, options)[2:3])
        self._assert_matches_reference(problems, rng)


class TestStageReferences:
    """Feedforward and stability stages vs the per-gain library functions."""

    def test_feedforward_matches_feedforward_gain(self, case_study, rng):
        problems = _problems(_mixed_requests(case_study, DesignOptions()))
        gains, reference = _gain_batches(problems, rng)
        results = BatchGainEvaluator(problems).evaluate(gains)
        for result, expected in zip(results, reference):
            assert not result["invalid"].any()
            np.testing.assert_allclose(
                result["feedforward"], expected, rtol=1e-9
            )

    def test_spectral_radii_match_lifted_closed_loop(self, case_study, rng):
        problems = _problems(_mixed_requests(case_study, DesignOptions()))
        gains, feedforwards = _gain_batches(problems, rng)
        radii = BatchGainEvaluator(problems)._spectral_radii(gains, feedforwards)
        for problem, rows, ffs, rho in zip(problems, gains, feedforwards, radii):
            for row, ff, value in zip(rows, ffs, rho):
                a_hol, _ = lifted_closed_loop(problem.segments, row, ff)
                assert value == np.abs(np.linalg.eigvals(a_hol)).max()

    def test_counts_evaluations_per_unit(self, case_study, rng):
        problems = _problems(_mixed_requests(case_study, DesignOptions())[:2])
        gains, _ = _gain_batches(problems, rng, n_batch=3)
        evaluator = BatchGainEvaluator(problems)
        evaluator.evaluate(gains)
        evaluator.evaluate([batch[:1] for batch in gains])
        assert evaluator.n_evaluations == [4, 4]


@pytest.fixture(scope="module")
def composition_case(case_study):
    """Small mixed request list plus each request's alone design per engine."""
    options = DesignOptions(
        restarts=1, stage_a=PsoOptions(3, 2), stage_b=PsoOptions(3, 2)
    )
    requests = _mixed_requests(case_study, options)
    requests[4] = replace(
        requests[4], options=replace(requests[4].options, restarts=2)
    )
    variants = {
        (i, engine): replace(r, options=replace(r.options, engine=engine))
        for i, r in enumerate(requests)
        for engine in ENGINES
    }
    keys = list(variants)
    alone = _alone_designs([variants[key] for key in keys])
    return variants, dict(zip(keys, alone)), len(requests)


class TestBatchComposition:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_designs_do_not_depend_on_batch(self, composition_case, data):
        variants, reference, n = composition_case
        order = data.draw(st.permutations(range(n)), label="order")
        engines = data.draw(
            st.lists(st.sampled_from(ENGINES), min_size=n, max_size=n),
            label="engines",
        )
        cuts = data.draw(st.sets(st.integers(1, n - 1)), label="cuts")
        bounds = [0, *sorted(cuts), n]
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = [(i, engines[i]) for i in order[lo:hi]]
            designs = design_controllers_batch([variants[key] for key in chunk])
            for key, design in zip(chunk, designs):
                _assert_designs_identical(reference[key], design)
