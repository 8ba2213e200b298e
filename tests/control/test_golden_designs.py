"""Golden controller designs: the design kernel's results, pinned.

``golden_designs.json`` holds designs computed once under the ``quick``
profile for every case-study application under the schedules (1,1,1)
and (3,2,3): the ``hybrid``, ``seeded``, ``uniform`` and ``poles``
engines (with the schedule evaluator's per-application seeding) plus
:func:`~repro.control.lqr.design_lqr`.  Gains, feedforward, settling,
objective and spectral radius must match at ``rtol=1e-9`` (the
tolerance the benchmark's result check uses) and ``n_evaluations``
exactly.  A change here means the kernel's numbers changed: that needs
a deliberate re-pin together with a ``SCHEMA_VERSION`` bump of the
persistent evaluation cache, never an accidental one.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.apps import build_case_study
from repro.control.design import design_controller
from repro.control.lqr import design_lqr
from repro.experiments.profiles import design_options_for_profile
from repro.sched import PeriodicSchedule, derive_timing

GOLDEN = json.loads((Path(__file__).parent / "golden_designs.json").read_text())

#: The LM-matched ``poles`` engine is slow on three-task timings.
_SLOW = {(3, 2, 3)}


def _cases():
    for row in GOLDEN:
        marks = (
            [pytest.mark.slow]
            if row["engine"] == "poles" and tuple(row["schedule"]) in _SLOW
            else []
        )
        case_id = "{engine}-{counts}-app{app}".format(
            engine=row["engine"],
            counts="".join(map(str, row["schedule"])),
            app=row["app"],
        )
        yield pytest.param(row, id=case_id, marks=marks)


@pytest.fixture(scope="module")
def case():
    return build_case_study()


def _design(case, row):
    app = case.apps[row["app"]]
    timing = derive_timing(
        PeriodicSchedule(tuple(row["schedule"])),
        [a.wcets for a in case.apps],
        case.clock,
    ).for_app(row["app"])
    periods, delays = list(timing.periods), list(timing.delays)
    if row["engine"] == "lqr":
        return design_lqr(app.plant, periods, delays, app.spec)
    base = design_options_for_profile("quick")
    options = replace(
        base, engine=row["engine"], seed=base.seed + 7919 * row["app"]
    )
    return design_controller(app.plant, periods, delays, app.spec, options)


def test_golden_table_covers_every_case():
    keys = {(tuple(r["schedule"]), r["app"], r["engine"]) for r in GOLDEN}
    assert keys == {
        (counts, app, engine)
        for counts in [(1, 1, 1), (3, 2, 3)]
        for app in range(3)
        for engine in ("hybrid", "seeded", "uniform", "poles", "lqr")
    }


@pytest.mark.parametrize("row", _cases())
def test_design_matches_golden(case, row):
    design = _design(case, row)
    assert design.engine == row["engine"]
    np.testing.assert_allclose(design.gains, row["gains"], rtol=1e-9)
    np.testing.assert_allclose(design.feedforward, row["feedforward"], rtol=1e-9)
    for name in ("settling", "objective", "spectral_radius"):
        np.testing.assert_allclose(
            getattr(design, name), row[name], rtol=1e-9, err_msg=name
        )
    assert design.n_evaluations == row["n_evaluations"]
