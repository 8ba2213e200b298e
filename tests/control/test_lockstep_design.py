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
    Segment,
    build_segments,
    feedforward_gains,
    lifted_closed_loop,
)
from repro.control.lockstep import (
    BatchGainEvaluator,
    DesignRequest,
    _poly_batch,
    _SegmentPlacer,
    _StackedTracking,
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
