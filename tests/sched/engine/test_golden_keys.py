"""Golden cache-key digests.

These hex digests were computed once from the fixed inputs below and
are asserted verbatim.  If any of them changes, the on-disk evaluation
cache layout changed: every persisted cache is invalidated.  That can
be the *right* outcome (the fingerprint learned a new input — that is
why ``SCHEMA_VERSION`` exists), but it must never happen by accident;
update the constants here and bump ``SCHEMA_VERSION`` together.
"""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.control.design import DesignOptions, TrackingSpec
from repro.control.lti import LtiPlant
from repro.core.application import ControlApplication
from repro.platform import Platform
from repro.sched.engine.keys import (
    SCHEMA_VERSION,
    evaluation_key,
    problem_digest,
    subproblem_digest,
)
from repro.sched.schedule import PeriodicSchedule
from repro.units import Clock
from repro.wcet.results import TaskWcets

GOLDEN_PROBLEM = "0e1f66636be1ea95115b0e8e9bf2f20947e4f4b360c47e25931b36a0da889062"
GOLDEN_SUBPROBLEM = "0139b3f0157d7fe176c3e30f1be6ddaebc91492f0b1bf12c4295be4cc3a36936"
GOLDEN_PLATFORM = "3fe678bdf2aa8386deccb848c0c04bb66da738937d54198fe08765207ac3e23b"


@pytest.fixture
def apps() -> list[ControlApplication]:
    plant_a = LtiPlant(
        name="golden-a",
        a=np.array([[0.0, 1.0], [-2.0, -3.0]]),
        b=np.array([0.0, 1.0]),
        c=np.array([1.0, 0.0]),
    )
    plant_b = LtiPlant(
        name="golden-b",
        a=np.array([[0.0, 1.0], [-5.0, -1.0]]),
        b=np.array([0.0, 2.0]),
        c=np.array([1.0, 0.0]),
    )
    spec_a = TrackingSpec(
        r=1.0, y0=0.0, u_max=5.0, deadline=0.5, band_fraction=0.02
    )
    spec_b = TrackingSpec(
        r=2.0, y0=0.5, u_max=10.0, deadline=0.8, band_fraction=0.05
    )
    return [
        ControlApplication(
            name="alpha",
            plant=plant_a,
            spec=spec_a,
            weight=0.6,
            max_idle=0.01,
            wcets=TaskWcets(name="alpha", cold_cycles=9000, warm_cycles=7000),
        ),
        ControlApplication(
            name="beta",
            plant=plant_b,
            spec=spec_b,
            weight=0.4,
            max_idle=0.02,
            wcets=TaskWcets(name="beta", cold_cycles=12000, warm_cycles=8000),
        ),
    ]


CLOCK = Clock(20e6)


def test_schema_version_pinned():
    assert SCHEMA_VERSION == 3


def test_problem_digest_golden(apps):
    assert problem_digest(apps, CLOCK, DesignOptions()) == GOLDEN_PROBLEM


def test_subproblem_digest_golden(apps):
    digest = subproblem_digest(apps, CLOCK, DesignOptions(), (0,))
    assert digest == GOLDEN_SUBPROBLEM
    assert digest != GOLDEN_PROBLEM


def test_platform_variant_digest_golden(apps):
    platform = Platform(
        cache=CacheConfig(
            n_sets=16,
            associativity=2,
            line_size=16,
            hit_cycles=1,
            miss_cycles=40,
        ),
        clock=CLOCK,
        wcet_model="analytic",
    )
    digest = problem_digest(apps, CLOCK, DesignOptions(), platform)
    assert digest == GOLDEN_PLATFORM
    assert digest != GOLDEN_PROBLEM


def test_evaluation_key_keeps_schedule_readable(apps):
    key = evaluation_key(GOLDEN_PROBLEM, PeriodicSchedule((3, 2)))
    assert key == f"{GOLDEN_PROBLEM}:3,2"


def test_digest_sensitivity(apps):
    # Any drift in the fixed inputs must change the digest.
    bumped = DesignOptions(restarts=DesignOptions().restarts + 1)
    assert problem_digest(apps, CLOCK, bumped) != GOLDEN_PROBLEM
