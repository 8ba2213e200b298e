"""Benchmark — multicore co-design through the search engine's blocks.

Runs the 3-app/2-core case-study partition sweep through four engine
configurations and records the two speedups the engine routing exists
for:

* **serial vs parallel** — the whole sweep (every core block of every
  partition) is submitted as one batch, so workers see one big fan-out;
  the strict ">= 2x" assertion needs real parallel hardware and is
  skipped on small machines (the numbers are still printed);
* **cold vs warm persistent cache** — the warm rerun must be >= 5x
  faster and fully disk-served (per-core sub-problem digests).

Every configuration must return identical best partitions, per-core
schedules and overall performance: the engine may only change *when*
evaluations happen, never their values.

Run:  python -m pytest benchmarks/bench_multicore_engine.py -s -q
"""

from __future__ import annotations

import os
import time

import pytest

from repro.multicore import MulticoreProblem
from repro.sched.engine import EngineOptions
from repro.sched.engine.batch import Scenario, scenario_engine
from repro.study import RunSpec

#: Cores to partition the three applications onto.
CORES = 2
#: Workers for the parallel configuration.
WORKERS = 4
#: Burst cap per core (62 candidate evaluations on the case study).
MAX_COUNT = 3


def _timed_run(case_study, design_options, **engine_kwargs):
    spec = RunSpec(n_cores=CORES, max_count_per_core=MAX_COUNT)
    scenario = Scenario(
        "bench-multicore", case_study.apps, case_study.clock, design_options, spec
    )
    with scenario_engine(scenario, EngineOptions(**engine_kwargs)) as engine:
        started = time.perf_counter()
        result = MulticoreProblem(engine, scenario.spec).optimize()
        elapsed = time.perf_counter() - started
        stats = engine.stats.as_dict()
    return elapsed, result, stats


def _snapshot(result):
    return (
        tuple((c.app_indices, c.schedule.counts) for c in result.cores),
        result.overall,
        result.settling,
    )


def test_multicore_engine_speedups(case_study, design_options, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("multicore-engine-cache")
    serial_time, serial, serial_stats = _timed_run(case_study, design_options)
    parallel_time, parallel, _ = _timed_run(
        case_study, design_options, workers=WORKERS
    )
    cold_time, cold, _ = _timed_run(
        case_study, design_options, cache_dir=cache_dir
    )
    warm_time, warm, warm_stats = _timed_run(
        case_study, design_options, cache_dir=cache_dir
    )

    # Identical results on every path, before any speed claims.
    assert _snapshot(parallel) == _snapshot(serial), "parallel changed the result"
    assert _snapshot(cold) == _snapshot(serial), "persistent cache changed the result"
    assert _snapshot(warm) == _snapshot(serial), "cached rerun changed the result"

    print(
        f"\n3-app/{CORES}-core sweep: {serial_stats['n_requested']} "
        f"(block, schedule) candidates, {os.cpu_count()} CPU(s)"
    )
    for core in serial.cores:
        names = ", ".join(case_study.apps[i].name for i in core.app_indices)
        print(f"  core [{names}]: schedule {core.schedule}")
    print(f"  P_all = {serial.overall:.4f}")

    parallel_speedup = serial_time / parallel_time
    print(
        f"serial {serial_time:.2f} s vs parallel({WORKERS}) "
        f"{parallel_time:.2f} s -> speedup {parallel_speedup:.2f}x"
    )

    # Warm rerun: fully disk-served and >= 5x faster.
    assert warm_stats["n_computed"] == 0, "warm rerun recomputed evaluations"
    assert warm_stats["n_disk_hits"] == warm_stats["n_requested"]
    warm_speedup = cold_time / warm_time
    print(
        f"cold cache {cold_time:.2f} s vs warm {warm_time:.3f} s "
        f"-> speedup {warm_speedup:.1f}x"
    )
    assert warm_time * 5.0 <= cold_time, (
        f"warm rerun only {warm_speedup:.1f}x faster (need >= 5x)"
    )

    if (os.cpu_count() or 1) < WORKERS:
        pytest.skip(
            f"machine has < {WORKERS} CPUs: parallel speedup not observable "
            f"(measured {parallel_speedup:.2f}x; results verified identical)"
        )
    assert parallel_speedup >= 2.0, (
        f"parallel sweep only {parallel_speedup:.2f}x faster than serial "
        f"(need >= 2x on {os.cpu_count()} CPUs)"
    )
