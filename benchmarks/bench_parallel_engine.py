"""Benchmark — parallel batch search engine and persistent cache.

Runs one synthesized multi-application suite through four engine
configurations and records the two speedups the engine exists for:

* **serial vs parallel** — the strict "parallel wins" assertion needs
  real parallel hardware and is skipped on single-core machines (the
  numbers are still printed);
* **cold vs warm persistent cache** — the warm rerun must be >= 5x
  faster and fully disk-served.

Every configuration must return identical best schedules: the engine
may only change *when* evaluations happen, never their values.

Run:  python -m pytest benchmarks/bench_parallel_engine.py -s -q
"""

from __future__ import annotations

import os
import time

import pytest

from repro.sched.engine import EngineOptions
from repro.sched.engine.batch import synthesize_scenarios
from repro.study import RunSpec, Study

#: Scenarios in the benchmark suite (each 2-3 applications).
SUITE_SIZE = 3
#: Synthesis seed (fixed: the suite must be identical across configs).
SUITE_SEED = 2018
#: Workers for the parallel configuration.
WORKERS = 2


@pytest.fixture(scope="module")
def suite(design_options):
    spec = RunSpec(kind="suite", suite_size=SUITE_SIZE, seed=SUITE_SEED)
    return synthesize_scenarios(spec, design_options)


def _timed_run(suite, engine_options):
    started = time.perf_counter()
    reports = Study.from_scenarios(suite, engine_options).run()
    return time.perf_counter() - started, reports


def _best(reports):
    return [(r.best_schedule, r.overall) for r in reports]


def test_engine_speedups(suite, tmp_path_factory, bench_json):
    cache_dir = tmp_path_factory.mktemp("engine-cache")
    serial_time, serial = _timed_run(suite, EngineOptions())
    parallel_time, parallel = _timed_run(suite, EngineOptions(workers=WORKERS))
    cold_time, cold = _timed_run(suite, EngineOptions(cache_dir=cache_dir))
    warm_time, warm = _timed_run(suite, EngineOptions(cache_dir=cache_dir))

    # Identical results on every path, before any speed claims.
    assert _best(parallel) == _best(serial), "parallel changed the result"
    assert _best(cold) == _best(serial), "persistent cache changed the result"
    assert _best(warm) == _best(serial), "cached rerun changed the result"

    print(f"\nsuite: {len(suite)} scenarios, {os.cpu_count()} CPU(s)")
    for report in serial:
        print(
            f"  {report.scenario}: {len(report.apps)} apps, "
            f"space {report.n_space}, best {tuple(report.best_schedule)} "
            f"P_all = {report.overall:.4f} "
            f"({report.engine_stats['n_computed']} evaluations)"
        )

    parallel_speedup = serial_time / parallel_time
    print(
        f"serial {serial_time:.2f} s vs parallel({WORKERS}) "
        f"{parallel_time:.2f} s -> speedup {parallel_speedup:.2f}x"
    )

    # Warm rerun: fully disk-served and >= 5x faster.
    for report in warm:
        assert report.engine_stats["n_computed"] == 0, (
            f"{report.scenario}: warm rerun recomputed evaluations"
        )
        assert report.engine_stats["n_disk_hits"] > 0
    warm_speedup = cold_time / warm_time
    print(
        f"cold cache {cold_time:.2f} s vs warm {warm_time:.3f} s "
        f"-> speedup {warm_speedup:.1f}x"
    )
    bench_json(
        "parallel_engine",
        {
            "n_scenarios": len(suite),
            "n_cpus": os.cpu_count(),
            "workers": WORKERS,
            "serial_seconds": serial_time,
            "parallel_seconds": parallel_time,
            "parallel_speedup": parallel_speedup,
            "cold_cache_seconds": cold_time,
            "warm_cache_seconds": warm_time,
            "warm_speedup": warm_speedup,
            "identical": True,
        },
    )
    assert warm_time * 5.0 <= cold_time, (
        f"warm rerun only {warm_speedup:.1f}x faster (need >= 5x)"
    )

    if (os.cpu_count() or 1) < 2:
        pytest.skip(
            "single-CPU machine: parallel speedup not observable "
            f"(measured {parallel_speedup:.2f}x; results verified identical)"
        )
    assert parallel_time < serial_time, (
        f"parallel ({parallel_time:.2f} s) not faster than serial "
        f"({serial_time:.2f} s) on {os.cpu_count()} CPUs"
    )
