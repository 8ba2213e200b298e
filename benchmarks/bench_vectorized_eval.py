"""Benchmark — batched evaluation vs per-candidate evaluation.

Evaluates a 64-schedule candidate grid of the paper's case study twice,
on two fresh evaluators:

* per candidate — ``evaluate(s)`` for each schedule in turn, so every
  schedule's controller designs are one kernel call of their own;
* batched — ``evaluate_batch(schedules)``, which stacks all ~200 unique
  controller-design problems of the grid into one lockstep kernel call.

The two must agree **bitwise** — same gains, settling times, objectives
and evaluation counts, not merely close values: a design never depends
on the batch it rides in — and batching must clear the speedup floor
(``BENCH_SPEEDUP_FLOOR``, default 5x).  The CI benchmark-regression job
runs this file and gates on both.

Run:  python -m pytest benchmarks/bench_vectorized_eval.py -s -q
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np

from repro.sched.schedule import PeriodicSchedule

#: Minimum accepted batched-over-per-candidate speedup.
SPEEDUP_FLOOR = float(os.environ.get("BENCH_SPEEDUP_FLOOR", "5.0"))

#: All burst-count combinations up to 4 per app: 64 schedules whose
#: timings induce ~200 distinct controller-design problems — large
#: enough that the lockstep path's per-iteration Python overhead is
#: fully amortized across the stacked units.
COUNTS = list(itertools.product((1, 2, 3, 4), repeat=3))


def _assert_identical(per_candidate, batched):
    """Field-by-field bitwise comparison of two evaluation lists."""
    assert len(per_candidate) == len(batched)
    for expected, got in zip(per_candidate, batched):
        assert got.schedule.counts == expected.schedule.counts
        assert got.overall == expected.overall
        assert got.idle_ok == expected.idle_ok
        for app_e, app_g in zip(expected.apps, got.apps):
            assert app_g.settling == app_e.settling
            assert app_g.performance == app_e.performance
            assert np.array_equal(app_g.design.gains, app_e.design.gains)
            assert np.array_equal(
                app_g.design.feedforward, app_e.design.feedforward
            )
            assert app_g.design.objective == app_e.design.objective
            assert app_g.design.n_evaluations == app_e.design.n_evaluations


def test_vectorized_speedup(case_study, design_options, bench_json):
    schedules = [PeriodicSchedule(counts) for counts in COUNTS]

    single_evaluator = case_study.evaluator(design_options)
    started = time.perf_counter()
    per_candidate = [single_evaluator.evaluate(s) for s in schedules]
    single_time = time.perf_counter() - started

    batch_evaluator = case_study.evaluator(design_options)
    started = time.perf_counter()
    batched = batch_evaluator.evaluate_batch(schedules)
    batch_time = time.perf_counter() - started

    # Bitwise identity first: a fast wrong answer is worthless.
    _assert_identical(per_candidate, batched)
    assert single_evaluator.n_designs == batch_evaluator.n_designs

    speedup = single_time / batch_time
    print(
        f"\n{len(schedules)} schedules, {batch_evaluator.n_designs} designs: "
        f"per-candidate {single_time:.2f} s vs batched {batch_time:.2f} s "
        f"-> speedup {speedup:.2f}x (floor {SPEEDUP_FLOOR:.1f}x)"
    )
    bench_json(
        "vectorized_eval",
        {
            "n_schedules": len(schedules),
            "n_designs": batch_evaluator.n_designs,
            "per_candidate_seconds": single_time,
            "batched_seconds": batch_time,
            "speedup": speedup,
            "speedup_floor": SPEEDUP_FLOOR,
            "identical": True,
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched evaluation only {speedup:.2f}x faster than per-candidate "
        f"evaluation (floor {SPEEDUP_FLOOR:.1f}x)"
    )
