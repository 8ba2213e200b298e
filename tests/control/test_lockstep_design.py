"""Bitwise identity of the lockstep batch designer vs the serial oracle.

``design_controllers_batch`` must reproduce serial ``design_controller``
results *exactly* — same gains, feedforwards, objectives, settling times
and evaluation counts — because the schedule search compares overall
performances across candidates and any drift would reorder them.
"""

import math
from dataclasses import replace

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
    _GainEvaluator,
    _StageA,
    design_controller,
)
from repro.control.lifted import Segment, build_segments
from repro.control.lockstep import (
    DesignRequest,
    _poly_batch,
    _SegmentPlacer,
    _StackedTracking,
    design_controllers_batch,
)
from repro.control.pso import PsoOptions, pso_minimize, pso_minimize_many
from repro.control.simulate import build_simulation_plan
from repro.errors import ControlError
from repro.sched import PeriodicSchedule, derive_timing


def _assert_designs_identical(serial, batched):
    assert np.array_equal(serial.gains, batched.gains)
    assert np.array_equal(serial.feedforward, batched.feedforward)
    assert serial.objective == batched.objective
    assert serial.settling == batched.settling
    assert serial.n_evaluations == batched.n_evaluations


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


def _serial_designs(requests):
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


def _evaluators(requests):
    """One unit evaluator per request, built as the lockstep designer does."""
    evaluators = []
    for r in requests:
        periods, delays = list(r.periods), list(r.delays)
        segments = build_segments(r.plant.a, r.plant.b, periods, delays)
        plan = build_simulation_plan(
            r.plant.a, r.plant.b, r.plant.c, periods, delays, nsub=r.options.nsub
        )
        horizon = r.options.horizon_factor * r.spec.deadline + plan.idle_gap
        evaluators.append(_GainEvaluator(r.plant, segments, plan, r.spec, horizon))
    return evaluators


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


class TestPolyFromRoots:
    """``_poly_batch`` rows equal ``np.poly`` (complex before its cast)."""

    def test_matches_np_poly_conjugate_roots(self, rng):
        for _ in range(20):
            real = rng.normal(size=2)
            imag = rng.normal(size=2)
            roots = np.concatenate(
                [real + 1j * imag, (real + 1j * imag).conj()]
            )
            assert np.array_equal(
                _poly_batch(roots[None])[0].real, np.poly(roots)
            )

    def test_matches_np_poly_non_conjugate_roots(self, rng):
        for _ in range(20):
            roots = rng.normal(size=3) + 1j * rng.normal(size=3)
            expected = np.poly(roots)
            got = _poly_batch(roots[None])[0]
            assert got.dtype == expected.dtype == complex
            assert np.array_equal(got, expected)

    def test_real_roots(self, rng):
        roots = rng.normal(size=4)
        assert np.array_equal(
            _poly_batch(roots.astype(complex)[None])[0].real,
            np.poly(roots),
        )

    def test_rows_are_independent(self, rng):
        roots = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        batch = _poly_batch(roots)
        for row, expected in zip(batch, roots):
            assert np.array_equal(row, np.poly(expected))


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


class TestSegmentPlacer:
    """``place_batch`` rows equal serial ``place_poles_siso``, bitwise."""

    @staticmethod
    def _segment(plant, h=0.002, tau=0.0015):
        return build_segments(plant.a, plant.b, [h], [tau])[0]

    @staticmethod
    def _assert_rows_match_serial(segment, desired):
        rows, bad = _SegmentPlacer(segment).place_batch(desired)
        assert rows.shape == desired.shape and bad.shape == desired.shape[:1]
        for p in range(desired.shape[0]):
            try:
                expected = place_poles_siso(
                    segment.ad, segment.b1 + segment.b2, desired[p]
                )
            except ControlError:
                assert bad[p]
                continue
            assert not bad[p]
            assert np.array_equal(rows[p], expected)
        return bad

    def _desired(self, rng, segment, order, zeta_low, zeta_high, n=12):
        thetas = rng.uniform(20.0, 600.0, size=(n, order // 2 * 2 + order % 2))
        for i in range(order // 2):
            thetas[:, 2 * i + 1] = rng.uniform(zeta_low, zeta_high, size=n)
        return np.exp(_continuous_poles(thetas, order) * segment.h)

    def test_underdamped_pairs(self, rng, case_study):
        segment = self._segment(case_study.apps[0].plant)
        desired = self._desired(rng, segment, 2, 0.35, 0.99)
        assert not self._assert_rows_match_serial(segment, desired).any()

    def test_damping_at_least_one_gives_real_pairs(self, rng, case_study):
        segment = self._segment(case_study.apps[0].plant)
        desired = self._desired(rng, segment, 2, 1.0, 1.4)
        desired[0] = np.exp(_continuous_poles(np.array([300.0, 1.0]), 2) * segment.h)
        assert not np.iscomplex(desired).any()
        assert not self._assert_rows_match_serial(segment, desired).any()

    @pytest.mark.parametrize("plant", [LAG1, LAG3], ids=["order1", "order3"])
    def test_odd_plant_order(self, rng, plant):
        segment = self._segment(plant)
        desired = self._desired(rng, segment, plant.order, 0.35, 1.4)
        assert not self._assert_rows_match_serial(segment, desired).any()

    def test_non_conjugate_rows_come_back_bad(self, case_study):
        segment = self._segment(case_study.apps[0].plant)
        desired = np.array(
            [
                [0.6 + 0.3j, 0.6 - 0.3j],
                [0.5 + 0.2j, 0.4 - 0.2j],
                [0.5, 0.25],
                [0.3 + 0.1j, 0.3 + 0.1j],
            ]
        )
        bad = self._assert_rows_match_serial(segment, desired)
        assert bad.tolist() == [False, True, False, True]

    def test_uncontrollable_segment_rejects_every_row(self):
        segment = Segment(
            h=0.002,
            tau=0.002,
            ad=np.diag([0.9, 0.8]),
            b1=np.array([0.1, 0.0]),
            b2=np.zeros(2),
        )
        desired = np.array([[0.6 + 0.3j, 0.6 - 0.3j], [0.5, 0.25]])
        rows, bad = _SegmentPlacer(segment).place_batch(desired)
        assert bad.all() and not rows.any()
        with pytest.raises(ControlError):
            place_poles_siso(segment.ad, segment.b1 + segment.b2, desired[0])


class TestPsoMinimizeMany:
    def _problems(self, dims, seed):
        problems = []
        for i, dim in enumerate(dims):
            lower = -np.ones(dim) * (i + 1)
            upper = np.ones(dim) * (i + 2)
            problems.append(
                (lower, upper, np.random.default_rng(seed + i), None)
            )
        return problems

    @staticmethod
    def _objective(positions):
        return np.sum(positions**2, axis=1) + 0.1 * np.sin(positions[:, 0])

    def test_lockstep_matches_individual_runs(self):
        options = PsoOptions(n_particles=8, n_iterations=12)
        many = pso_minimize_many(
            lambda batches: [self._objective(p) for p in batches],
            self._problems([2, 3, 2], seed=7),
            options,
        )
        for i, dim in enumerate([2, 3, 2]):
            lower = -np.ones(dim) * (i + 1)
            upper = np.ones(dim) * (i + 2)
            alone = pso_minimize(
                self._objective,
                lower,
                upper,
                options,
                np.random.default_rng(7 + i),
            )
            assert np.array_equal(many[i].best_position, alone.best_position)
            assert many[i].best_value == alone.best_value
            assert many[i].n_evaluations == alone.n_evaluations

    def test_seed_positions_respected(self):
        options = PsoOptions(n_particles=6, n_iterations=8)
        seeds = np.array([[0.1, -0.2], [0.3, 0.4]])
        lower, upper = -np.ones(2), np.ones(2)
        many = pso_minimize_many(
            lambda batches: [self._objective(p) for p in batches],
            [(lower, upper, np.random.default_rng(3), seeds)],
            options,
        )
        alone = pso_minimize(
            self._objective,
            lower,
            upper,
            options,
            np.random.default_rng(3),
            seeds=seeds,
        )
        assert np.array_equal(many[0].best_position, alone.best_position)
        assert many[0].best_value == alone.best_value


class TestBatchDesignIdentity:
    def test_single_restart_case_study(self, case_study, tiny_design_options):
        requests = _case_requests(
            case_study, tiny_design_options, [(1, 1, 1), (2, 1, 1)]
        )
        batched = design_controllers_batch(requests)
        for serial, got in zip(_serial_designs(requests), batched):
            _assert_designs_identical(serial, got)

    def test_multi_restart_case_study(self, case_study):
        options = DesignOptions(
            restarts=2, stage_a=PsoOptions(8, 6), stage_b=PsoOptions(10, 7)
        )
        requests = _case_requests(case_study, options, [(2, 2, 2)])
        batched = design_controllers_batch(requests)
        for serial, got in zip(_serial_designs(requests), batched):
            _assert_designs_identical(serial, got)

    def test_mixed_engines_fall_back_serially(self, case_study):
        """Engines without a lockstep path defer to design_controller."""
        lockstep = DesignOptions(
            restarts=1, stage_a=PsoOptions(6, 6), stage_b=PsoOptions(6, 6)
        )
        fallback = DesignOptions(
            engine="uniform",
            restarts=1,
            stage_a=PsoOptions(6, 6),
            stage_b=PsoOptions(6, 6),
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
                options=options,
            )
            for options in (lockstep, fallback)
        ]
        batched = design_controllers_batch(requests)
        for serial, got in zip(_serial_designs(requests), batched):
            _assert_designs_identical(serial, got)

    def test_empty_batch(self):
        assert design_controllers_batch([]) == []

    def test_unknown_engine_rejected(self, case_study, tiny_design_options):
        request = _case_requests(
            case_study, tiny_design_options, [(1, 1, 1)]
        )[0]
        bad = DesignRequest(
            plant=request.plant,
            periods=request.periods,
            delays=request.delays,
            spec=request.spec,
            options=DesignOptions(engine="gradient"),
        )
        with pytest.raises(ControlError):
            design_controllers_batch([bad])

    def test_invalid_restarts_rejected(self, case_study, tiny_design_options):
        request = _case_requests(
            case_study, tiny_design_options, [(1, 1, 1)]
        )[0]
        bad = DesignRequest(
            plant=request.plant,
            periods=request.periods,
            delays=request.delays,
            spec=request.spec,
            options=DesignOptions(restarts=0),
        )
        with pytest.raises(ControlError):
            design_controllers_batch([bad])

    def test_mixed_orders_and_horizons(self, case_study):
        options = DesignOptions(
            restarts=1, stage_a=PsoOptions(6, 5), stage_b=PsoOptions(6, 5)
        )
        requests = _mixed_requests(case_study, options)
        requests[2] = replace(
            requests[2], options=replace(requests[2].options, restarts=2)
        )
        batched = design_controllers_batch(requests)
        for serial, got in zip(_serial_designs(requests), batched):
            _assert_designs_identical(serial, got)

    def test_one_unit_batch(self, case_study):
        options = DesignOptions(
            restarts=1, stage_a=PsoOptions(6, 5), stage_b=PsoOptions(6, 5)
        )
        request = _mixed_requests(case_study, options)[2]
        (got,) = design_controllers_batch([request])
        _assert_designs_identical(_serial_designs([request])[0], got)


class TestStackedTracking:
    """The fused, prefix-compacted tracking loop vs ``simulate_tracking``."""

    @staticmethod
    def _gain_batches(evaluators, rng, n_batch=5):
        gains, feedforwards = [], []
        for ge in evaluators:
            stage_a = _StageA(ge, DesignOptions())
            rows = []
            while len(rows) < n_batch:
                theta = rng.uniform(stage_a.lower, stage_a.upper)
                rows.append(stage_a.gains_for(theta))
            batch = np.stack(rows)
            batch[-1] *= 3.0  # an aggressive row that may never settle
            gains.append(batch)
            feedforwards.append(ge.feedforward_batch(batch)[0])
        return gains, feedforwards

    def _assert_matches_serial(self, evaluators, rng):
        gains, feedforwards = self._gain_batches(evaluators, rng)
        tracking = _StackedTracking(evaluators)
        settling, u_peak, final_error = tracking.run(gains, feedforwards)
        for i, ge in enumerate(evaluators):
            serial = simulate_tracking(
                ge.plan,
                gains[i],
                feedforwards[i],
                r=ge.spec.r,
                x0=ge.x0,
                u0=ge.u0,
                horizon=ge.horizon,
                band=ge.spec.band,
            )
            assert np.array_equal(settling[i], serial.settling)
            assert np.array_equal(u_peak[i], serial.u_peak, equal_nan=True)
            assert np.array_equal(
                final_error[i], serial.final_error, equal_nan=True
            )
        return tracking

    def test_units_freezing_at_different_steps(self, case_study, rng):
        options = DesignOptions(restarts=1)
        evaluators = _evaluators(_mixed_requests(case_study, options))
        tracking = self._assert_matches_serial(evaluators, rng)
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
        evaluators = _evaluators(_mixed_requests(case_study, options)[2:3])
        self._assert_matches_serial(evaluators, rng)


@pytest.fixture(scope="module")
def composition_case(case_study):
    """Small mixed request list plus its serial-oracle designs."""
    options = DesignOptions(
        restarts=1, stage_a=PsoOptions(4, 3), stage_b=PsoOptions(4, 3)
    )
    requests = _mixed_requests(case_study, options)
    requests[1] = replace(
        requests[1], options=replace(requests[1].options, engine="seeded")
    )
    requests[4] = replace(
        requests[4], options=replace(requests[4].options, restarts=2)
    )
    return requests, _serial_designs(requests)


class TestBatchComposition:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_designs_do_not_depend_on_batch(self, composition_case, data):
        requests, reference = composition_case
        n = len(requests)
        order = data.draw(st.permutations(range(n)), label="order")
        cuts = data.draw(st.sets(st.integers(1, n - 1)), label="cuts")
        bounds = [0, *sorted(cuts), n]
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = order[lo:hi]
            designs = design_controllers_batch([requests[i] for i in chunk])
            for i, design in zip(chunk, designs):
                _assert_designs_identical(reference[i], design)
