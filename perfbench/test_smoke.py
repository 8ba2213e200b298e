"""Minimal-size smoke run of the benchmark: every workload, both modes.

    python -m pytest perfbench/test_smoke.py -q      # about a minute

Each run is as short as the benchmark allows (one unit, or one round of
serve jobs per mode), so it checks the plumbing and the result checks,
not the timings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    return done, json.loads(lines[-1]) if done.returncode == 0 and lines else None


def expected_metrics(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[kind]}


def test_search_cold_end_to_end():
    done, result = bench("search-cold", 0)
    assert result is not None, done.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == expected_metrics("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["multicore-pool", "serve-warm"])
def test_traced_run_passes_layer_checks(workload):
    done, result = bench(workload, 1)
    assert result is not None, done.stderr
    assert result["correct"], done.stderr
    metrics = result["metrics"]
    assert set(metrics) == expected_metrics("per_layer")
    for name in layers.CLAIMS[workload]:
        assert metrics[f"{name}.calls"]["value"] > 0, name
    pooled = metrics["engine.pool_dispatches"]["value"] > 0
    assert pooled == (workload == "multicore-pool")


def test_layer_table_resolves_and_reports_renames_as_missing():
    # Every real target resolves; a target that does not is reported,
    # not fatal.
    code = (
        "import layers\n"
        "layers.LAYERS['gone.stage'] = ('repro.control.lockstep:_Renamed.run',)\n"
        "tracer = layers.Tracer()\n"
        "layers.install(tracer)\n"
        "print(tracer.missing, layers.missing_layers(tracer.missing))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
        timeout=60, env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert done.stdout.strip() == "['repro.control.lockstep:_Renamed.run'] ['gone.stage']", done.stderr


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done, result = bench("search-cold", 0, cwd=tmp_path)
    assert done.returncode != 0 and result is None
    assert '"correct"' not in done.stdout
