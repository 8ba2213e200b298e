"""Tests for the holistic controller design driver."""

import numpy as np
import pytest

from repro.control import DesignOptions, LtiPlant, TrackingSpec, design_controller
from repro.control.pso import PsoOptions
from repro.errors import ControlError


def plant() -> LtiPlant:
    return LtiPlant(
        "resonant",
        np.array([[0.0, 1.0], [-250.0 ** 2, -2 * 0.15 * 250.0]]),
        np.array([0.0, 2500.0]),
        np.array([1.0, 0.0]),
    )


def spec() -> TrackingSpec:
    return TrackingSpec(r=0.2, y0=0.0, u_max=12.0, deadline=0.05)


def pattern():
    return [800e-6, 400e-6, 2400e-6], [800e-6, 400e-6, 300e-6]


class TestTrackingSpec:
    def test_band_from_reference(self):
        assert spec().band == pytest.approx(0.004)

    def test_band_falls_back_to_step(self):
        s = TrackingSpec(r=0.0, y0=2.0, u_max=1.0, deadline=1.0)
        assert s.band == pytest.approx(0.04)

    def test_degenerate_spec_rejected(self):
        s = TrackingSpec(r=0.0, y0=0.0, u_max=1.0, deadline=1.0)
        with pytest.raises(ControlError):
            _ = s.band


class TestDesign:
    def test_quick_design_is_feasible(self, quick_design_options):
        periods, delays = pattern()
        design = design_controller(plant(), periods, delays, spec(), quick_design_options)
        assert design.stable
        assert design.u_peak <= spec().u_max
        assert np.isfinite(design.settling)
        assert design.satisfies(spec())
        assert design.gains.shape == (3, 2)
        assert design.feedforward.shape == (3,)

    def test_design_is_deterministic(self, quick_design_options):
        periods, delays = pattern()
        d1 = design_controller(plant(), periods, delays, spec(), quick_design_options)
        d2 = design_controller(plant(), periods, delays, spec(), quick_design_options)
        assert d1.settling == d2.settling
        np.testing.assert_array_equal(d1.gains, d2.gains)

    def test_performance_index(self, quick_design_options):
        periods, delays = pattern()
        design = design_controller(plant(), periods, delays, spec(), quick_design_options)
        assert design.performance(spec()) == pytest.approx(
            1.0 - design.settling / spec().deadline
        )

    def test_more_restarts_never_hurt(self):
        periods, delays = pattern()
        base = DesignOptions(restarts=1, stage_a=PsoOptions(8, 8), stage_b=PsoOptions(8, 8))
        more = DesignOptions(restarts=3, stage_a=PsoOptions(8, 8), stage_b=PsoOptions(8, 8))
        d1 = design_controller(plant(), periods, delays, spec(), base)
        d3 = design_controller(plant(), periods, delays, spec(), more)
        assert d3.objective <= d1.objective + 1e-12

    def test_uniform_engine_ties_gains_across_phases(self, quick_design_options):
        from dataclasses import replace

        periods, delays = pattern()
        options = replace(quick_design_options, engine="uniform")
        design = design_controller(plant(), periods, delays, spec(), options)
        np.testing.assert_array_equal(design.gains[0], design.gains[1])
        np.testing.assert_array_equal(design.gains[0], design.gains[2])
        assert design.engine == "uniform"

    def test_holistic_at_least_as_good_as_uniform(self, quick_design_options):
        """The paper's Section III claim, at matched budgets."""
        from dataclasses import replace

        periods, delays = pattern()
        uniform = design_controller(
            plant(), periods, delays, spec(),
            replace(quick_design_options, engine="uniform", restarts=2),
        )
        holistic = design_controller(
            plant(), periods, delays, spec(),
            replace(quick_design_options, engine="hybrid", restarts=2),
        )
        assert holistic.objective <= uniform.objective * 1.05

    def test_single_task_pattern(self, quick_design_options):
        design = design_controller(
            plant(), [2400e-6], [700e-6], spec(), quick_design_options
        )
        assert design.satisfies(spec())
        assert design.gains.shape == (1, 2)

    def test_unknown_engine_rejected(self):
        from dataclasses import replace

        periods, delays = pattern()
        with pytest.raises(ControlError):
            design_controller(
                plant(), periods, delays, spec(),
                replace(DesignOptions(), engine="alchemy"),
            )

    def test_bad_restarts_rejected(self):
        from dataclasses import replace

        periods, delays = pattern()
        with pytest.raises(ControlError):
            design_controller(
                plant(), periods, delays, spec(),
                replace(DesignOptions(), restarts=0),
            )


class TestDesignOptions:
    """Options are checked when built, not at the first design."""

    @pytest.mark.parametrize(
        "bad", [dict(engine="bogus"), dict(restarts=0), dict(engine="bogus", restarts=0)]
    )
    def test_invalid_options_rejected_at_construction(self, bad):
        with pytest.raises(ControlError):
            DesignOptions(**bad)
