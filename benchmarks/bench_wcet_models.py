"""Benchmark — WCET-model analysis cost and suite-sweep speedup.

The WCET model is the inner loop of scenario synthesis: every
synthesized application re-analyzes its jittered program through the
cache pipeline.  This benchmark records

* the per-program analysis cost of the three builtin models (static
  must/may analysis, concrete worst-case replay, closed-form analytic
  estimate) on the calibrated Table-I programs, and
* the end-to-end speedup the ``analytic`` model buys a synthesized
  suite sweep (``synthesize_scenarios`` on an analytic platform vs the
  static default),

with identical-result checks where the models provably coincide: the
calibrated programs are single-path and fit the cache, so all three
models must return the same cold/warm pair there.

Run:  python -m pytest benchmarks/bench_wcet_models.py -s -q
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.platform import Platform
from repro.sched.engine.batch import synthesize_scenarios
from repro.study import RunSpec
from repro.wcet import get_wcet_model

#: Analysis repetitions per model (the analytic model is too fast to
#: time in a single pass).
REPEATS = 5
#: Scenarios per synthesized suite in the sweep comparison.
SUITE_SIZE = 12
#: Synthesis seed (fixed: both platforms must draw identical workloads).
SUITE_SEED = 2018


def _timed_analysis(model_name: str, programs, config) -> tuple[float, list]:
    model = get_wcet_model(model_name)
    started = time.perf_counter()
    for _ in range(REPEATS):
        wcets = [model.analyze(program, config) for program in programs]
    return (time.perf_counter() - started) / REPEATS, wcets


def test_model_analysis_cost(case_study):
    """Per-program cost of each model; identical results where exact."""
    timings = {}
    results = {}
    for name in ("static", "concrete", "analytic"):
        timings[name], results[name] = _timed_analysis(
            name, case_study.programs, case_study.cache_config
        )

    print(f"\nTable-I programs ({len(case_study.programs)} analyses per model):")
    for name, elapsed in timings.items():
        per_program = elapsed / len(case_study.programs) * 1e3
        print(f"  {name:<9} {elapsed * 1e3:8.2f} ms total  "
              f"({per_program:6.3f} ms/program)")

    # The calibrated programs are single-path and fit the cache: every
    # model must agree bit-exactly (Table I three ways).
    for name in ("concrete", "analytic"):
        for reference, candidate in zip(results["static"], results[name]):
            assert candidate.cold_cycles == reference.cold_cycles, name
            assert candidate.warm_cycles == reference.warm_cycles, name

    analytic_speedup = timings["static"] / timings["analytic"]
    print(f"analytic vs static analysis speedup: {analytic_speedup:.0f}x")
    assert analytic_speedup >= 10.0, (
        f"analytic model only {analytic_speedup:.1f}x faster than static "
        "(need >= 10x to matter for suite sweeps)"
    )


def test_suite_synthesis_speedup():
    """The analytic platform accelerates whole-suite synthesis."""
    started = time.perf_counter()
    suite = RunSpec(kind="suite", suite_size=SUITE_SIZE, seed=SUITE_SEED)
    static_suite = synthesize_scenarios(suite)
    static_time = time.perf_counter() - started

    started = time.perf_counter()
    analytic_suite = synthesize_scenarios(
        replace(suite, platform=Platform(wcet_model="analytic"))
    )
    analytic_time = time.perf_counter() - started

    # Same RNG stream, same workloads — only the WCET model differs, and
    # the models coincide wherever the jittered image still fits the
    # cache (count how often, don't require it).
    agreeing = 0
    total = 0
    for static_scenario, analytic_scenario in zip(static_suite, analytic_suite):
        for static_app, analytic_app in zip(
            static_scenario.apps, analytic_scenario.apps
        ):
            assert analytic_app.name == static_app.name
            assert analytic_app.wcets.cold_cycles <= static_app.wcets.cold_cycles
            assert analytic_app.wcets.warm_cycles <= static_app.wcets.warm_cycles
            total += 1
            agreeing += (
                analytic_app.wcets.cold_cycles == static_app.wcets.cold_cycles
                and analytic_app.wcets.warm_cycles == static_app.wcets.warm_cycles
            )

    speedup = static_time / analytic_time
    print(f"\nsuite of {SUITE_SIZE} scenarios ({total} analyzed applications):")
    print(f"  static   platform: {static_time:.2f} s")
    print(f"  analytic platform: {analytic_time:.2f} s -> speedup {speedup:.1f}x")
    print(f"  identical WCET pairs: {agreeing}/{total} "
          "(fitting single-path programs)")
    assert speedup >= 2.0, (
        f"analytic platform only {speedup:.1f}x faster synthesis (need >= 2x)"
    )
