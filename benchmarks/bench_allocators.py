"""Benchmark — heuristic partition allocators vs exhaustive enumeration.

Gates the two claims the allocator registry exists for:

* **zero optimality gap at small N** — on the 3-app/2-core case study
  (where exhaustive enumeration is cheap ground truth), the ``greedy``
  and ``scored`` heuristics must find the *same* optimum: identical
  overall performance, bit-for-bit.  Small problems are exactly where
  a heuristic silently going wrong would poison every larger run.
* **>= 10x fewer partitions at 8 cores** — replicating the case study
  to 8 applications on 8 cores, exhaustive enumeration faces the Bell
  number B(8) = 4140 partitions; a heuristic allocator must reach a
  feasible co-design while streaming at most a tenth of that.  The
  gate is on partition counts, not wall time, so it is deterministic
  on any machine.

Run:  python -m pytest benchmarks/bench_allocators.py -s -q
"""

from __future__ import annotations

import time

from repro.multicore import MulticoreProblem, enumerate_partitions, replicate_apps
from repro.sched.engine.batch import Scenario, scenario_engine
from repro.study import RunSpec

#: Burst cap per core: keeps the per-block schedule spaces small so the
#: benchmark measures partition streaming, not schedule enumeration.
MAX_COUNT = 3
#: Many-core configuration of the speedup gate.
MANY_APPS = 8
MANY_CORES = 8
#: Burst cap of the many-core run (single-app blocks everywhere).
MANY_MAX_COUNT = 2
#: Partition-count speedup the heuristics must deliver at 8 cores.
MIN_SPEEDUP = 10.0


def _optimize(apps, clock, n_cores, design_options, allocator, max_count):
    spec = RunSpec(n_cores=n_cores, max_count_per_core=max_count, allocator=allocator)
    scenario = Scenario("bench-allocators", apps, clock, design_options, spec)
    with scenario_engine(scenario) as engine:
        started = time.perf_counter()
        result = MulticoreProblem(engine, scenario.spec).optimize()
        elapsed = time.perf_counter() - started
    return result, elapsed


def test_heuristics_match_exhaustive_optimum(
    case_study, design_options, bench_json
):
    """Zero optimality gap on the 2-core ground-truth problem."""
    results = {}
    for allocator in ("exhaustive", "greedy", "scored"):
        result, elapsed = _optimize(
            case_study.apps,
            case_study.clock,
            2,
            design_options,
            allocator,
            MAX_COUNT,
        )
        results[allocator] = result
        print(
            f"{allocator:>10}: P_all = {result.overall:.6f} over "
            f"{result.n_partitions} partition(s) in {elapsed:.2f} s"
        )
    exhaustive = results["exhaustive"]
    assert exhaustive.feasible
    for allocator in ("greedy", "scored"):
        assert results[allocator].overall == exhaustive.overall, (
            f"{allocator} missed the 2-core optimum: "
            f"{results[allocator].overall!r} != {exhaustive.overall!r}"
        )
    bench_json(
        "allocators_gap",
        {
            "n_apps": len(case_study.apps),
            "n_cores": 2,
            "overall": {
                name: result.overall for name, result in results.items()
            },
            "n_partitions": {
                name: result.n_partitions for name, result in results.items()
            },
            "gap": {
                name: exhaustive.overall - results[name].overall
                for name in ("greedy", "scored")
            },
        },
    )


def test_heuristics_stream_fraction_of_partitions_at_8_cores(
    case_study, design_options, bench_json
):
    """>= 10x fewer partitions than exhaustive on the many-core run."""
    apps = replicate_apps(case_study.apps, MANY_APPS)
    exhaustive_count = sum(1 for _ in enumerate_partitions(MANY_APPS, MANY_CORES))
    assert exhaustive_count == 4140  # Bell(8): the ground-truth workload

    record: dict = {
        "n_apps": MANY_APPS,
        "n_cores": MANY_CORES,
        "exhaustive_partitions": exhaustive_count,
        "allocators": {},
    }
    print(f"\n{MANY_APPS} apps / {MANY_CORES} cores: exhaustive would "
          f"enumerate {exhaustive_count} partitions")
    for allocator in ("greedy", "scored"):
        result, elapsed = _optimize(
            apps,
            case_study.clock,
            MANY_CORES,
            design_options,
            allocator,
            MANY_MAX_COUNT,
        )
        assert result.feasible, f"{allocator} found no feasible co-design"
        speedup = exhaustive_count / result.n_partitions
        print(
            f"{allocator:>10}: {result.n_partitions} partition(s) "
            f"({speedup:.1f}x fewer), P_all = {result.overall:.4f}, "
            f"{elapsed:.2f} s"
        )
        record["allocators"][allocator] = {
            "n_partitions": result.n_partitions,
            "speedup": speedup,
            "overall": result.overall,
            "seconds": elapsed,
        }
        assert speedup >= MIN_SPEEDUP, (
            f"{allocator} streamed {result.n_partitions} of "
            f"{exhaustive_count} partitions: only {speedup:.1f}x fewer "
            f"(need >= {MIN_SPEEDUP:.0f}x)"
        )
    bench_json("allocators_speedup", record)


#: Core counts of the gap/partition curve (apps tiled to match).
CURVE_CORES = (2, 4, 8)
#: Exhaustive ground truth is computed only while it stays cheap.
CURVE_EXHAUSTIVE_LIMIT = 60


def test_gap_and_partition_curve_per_core_count(
    case_study, design_options, bench_json
):
    """Optimality gap and partition counts as the machine grows.

    For each core count the heuristics' partition consumption is
    recorded next to the exhaustive enumeration size; where exhaustive
    optimization is still cheap (2 and 4 cores) the heuristics must
    match its optimum exactly, extending the zero-gap guarantee from a
    point check into a curve.
    """
    curve: dict = {}
    print()
    for n_cores in CURVE_CORES:
        n_apps = max(len(case_study.apps), n_cores)
        apps = replicate_apps(case_study.apps, n_apps)
        max_count = MAX_COUNT if n_cores <= 2 else MANY_MAX_COUNT
        exhaustive_count = sum(
            1 for _ in enumerate_partitions(n_apps, n_cores)
        )
        point: dict = {
            "n_apps": n_apps,
            "exhaustive_partitions": exhaustive_count,
            "allocators": {},
        }
        ground_truth = None
        if exhaustive_count <= CURVE_EXHAUSTIVE_LIMIT:
            ground_truth, _ = _optimize(
                apps, case_study.clock, n_cores, design_options,
                "exhaustive", max_count,
            )
            assert ground_truth.feasible
            point["exhaustive_overall"] = ground_truth.overall
        for allocator in ("greedy", "scored"):
            result, elapsed = _optimize(
                apps, case_study.clock, n_cores, design_options,
                allocator, max_count,
            )
            assert result.feasible, (
                f"{allocator} found no feasible co-design at {n_cores} cores"
            )
            entry = {
                "n_partitions": result.n_partitions,
                "overall": result.overall,
                "seconds": elapsed,
            }
            if ground_truth is not None:
                entry["gap"] = ground_truth.overall - result.overall
                assert result.overall == ground_truth.overall, (
                    f"{allocator} missed the {n_cores}-core optimum: "
                    f"{result.overall!r} != {ground_truth.overall!r}"
                )
            point["allocators"][allocator] = entry
            gap = entry.get("gap")
            print(
                f"{n_cores} cores / {n_apps} apps {allocator:>8}: "
                f"{result.n_partitions}/{exhaustive_count} partitions, "
                f"P_all = {result.overall:.4f}"
                + (f", gap = {gap:.1e}" if gap is not None else "")
            )
        curve[str(n_cores)] = point
    # The curve must stay sub-exhaustive once enumeration explodes.
    eight = curve["8"]
    for allocator, entry in eight["allocators"].items():
        ratio = eight["exhaustive_partitions"] / entry["n_partitions"]
        assert ratio >= MIN_SPEEDUP, (
            f"{allocator} at 8 cores streamed {entry['n_partitions']} "
            f"partitions (only {ratio:.1f}x fewer than exhaustive)"
        )
    bench_json("allocators_curve", {"cores": curve})
