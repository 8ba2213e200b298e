"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py [--workloads a,b] [--runs 10] [--sets 1|2]
                               [--trace-runs 0] [--out perfbench/baseline.json]
                               [--compare perfbench/baseline.json]

For every workload: ``--runs`` untraced runs on seeds 1..N and
``--trace-runs`` traced ones, each metric's median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (quartile distance as
a share of the median), checked against the bounds in BENCHMARK.json.
Every metric is checked, ``setup_s`` included.

``--sets 2`` takes a second set on seeds N+1..2N, interleaved run by run
with the first so that both see the same host, and checks that the two
medians agree within the bound in both directions.  ``--out`` writes the
summary, pooled over the sets, with the platform it was measured on;
``--compare`` checks each end-to-end median against an earlier summary
(such as ``perfbench/baseline.json``): worse by more than the bound is a
regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  seed {seed}: NOT CORRECT\n{done.stderr}", file=sys.stderr)
    return result


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3  # one run: no spread
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def numpy_version() -> str:
    done = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unavailable"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    baseline = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}
    seconds = spec["run_seconds"]

    def worse(new: float, old: float, name: str) -> float:
        """How much worse ``new`` is than ``old``, as a share of ``old``."""
        return (new - old) / old * (1 if lower_is_better[name] else -1)

    out = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy_version(), "machine": platform.machine(),
           "run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results: list[list[dict]] = [[] for _ in range(args.sets)]
        for seed in seeds:
            for index, rows in enumerate(results):
                rows.append(run(workload, seed + index * args.runs, seconds, 0))
        sets = [summarize(rows) for rows in results]
        before = baseline.get(workload, {}).get("end_to_end", {})
        for index, plain in enumerate(sets):
            first = seeds[0] + index * args.runs
            print(f"{workload} (set {index + 1}: {args.runs} runs, seeds {first}-{first + args.runs - 1})")
            for name, row in plain.items():
                bound = bounds[name]
                ok = row["spread"] <= bound
                line = (f"  {name:14s} median {row['median']:12.6g} {row['unit']:6s} "
                        f"spread {row['spread']:.4f} (bound {bound}, a third {bound / 3:.4f})"
                        f"{'' if ok else '  OVER BOUND'}")
                if index:
                    # Each set against the other: neither may be worse by
                    # more than the bound.
                    other = sets[0][name]["median"]
                    both = max(worse(row["median"], other, name), worse(other, row["median"], name))
                    ok = ok and both <= bound
                    line += f"  sets differ {both:.4f}{'' if both <= bound else '  DISAGREE'}"
                if name in before:
                    old = before[name]["median"]
                    change = worse(row["median"], old, name)
                    ok = ok and change <= bound
                    line += f"  vs {old:.6g}: {change:+.4f} worse{'' if change <= bound else '  REGRESSED'}"
                steady = steady and ok
                print(line)
        pooled = summarize([row for rows in results for row in rows])
        out["workloads"][workload] = {"end_to_end": pooled}
        if args.sets > 1:
            out["workloads"][workload]["set_medians"] = [
                {name: row["median"] for name, row in plain.items()} for plain in sets]
        if args.trace_runs:
            traced = summarize([run(workload, seed, seconds, 1) for seed in seeds[:args.trace_runs]])
            out["workloads"][workload]["per_layer"] = traced
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
