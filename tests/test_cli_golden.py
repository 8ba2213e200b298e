"""Golden render tests: every run command's stdout, resumed from a
recorded run dir, byte for byte.

Each case copies a committed run dir (``tests/golden_cli/runs/<dir>``,
recorded at the quick profile) and reruns the command against the copy.
Every scenario must resume — the run dir's files stay unchanged — and
stdout must equal the committed ``tests/golden_cli/<case>.txt``.  So a
change to how a report becomes text shows here, and a change to a
run's identity fails loudly (the run recomputes and rewrites the dir)
instead of quietly rendering fresh numbers.

To record the cases again (only when a run's identity changes on
purpose)::

    REPRO_PROFILE=quick PYTHONPATH=src python tests/test_cli_golden.py
"""

import shutil
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

GOLDEN = Path(__file__).parent / "golden_cli"

#: Case -> (recorded run dir, command line without ``--run-dir``).
CASES = {
    "search": ("search", ["search", "--strategy", "hybrid", "--starts", "4,2,2"]),
    "multicore-1": ("multicore-1", ["multicore", "--cores", "1"]),
    "multicore-2": (
        "multicore-2", ["multicore", "--cores", "2", "--max-count-per-core", "2"]
    ),
    "multicore-2-shared": (
        "multicore-2-shared",
        ["multicore", "--cores", "2", "--max-count-per-core", "2", "--shared-cache"],
    ),
    "multicore-greedy": (
        "multicore-greedy",
        ["multicore", "--apps", "5", "--cores", "3", "--max-count-per-core", "2",
         "--allocator", "greedy"],
    ),
    "batch-dynamic": ("batch-dynamic", ["batch", "--suite-size", "2", "--dynamic"]),
    "simulate": ("simulate", ["simulate"]),
    "simulate-json": ("simulate", ["simulate", "--json"]),
    "experiment-search": ("experiment-search", ["experiment", "search"]),
    "experiment-multicore": ("experiment-multicore", ["experiment", "multicore"]),
    "experiment-shared_cache": (
        "experiment-shared_cache", ["experiment", "shared_cache"]
    ),
    "experiment-feedback": ("experiment-feedback", ["experiment", "feedback"]),
}


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_resumed_run_renders_the_recorded_text(case, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "quick")
    run_dir, argv = CASES[case]
    runs = tmp_path / "runs"
    shutil.copytree(GOLDEN / "runs" / run_dir, runs)
    recorded = _tree(runs)

    assert main([*argv, "--run-dir", str(runs)]) == 0

    assert _tree(runs) == recorded, "a scenario recomputed instead of resuming"
    assert capsys.readouterr().out == (GOLDEN / f"{case}.txt").read_text()


def _record() -> None:
    """Rerun every case into a fresh run dir and store its stdout."""
    import contextlib
    import io

    shutil.rmtree(GOLDEN / "runs", ignore_errors=True)
    for case, (run_dir, argv) in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--run-dir", str(GOLDEN / "runs" / run_dir)]) == 0
        (GOLDEN / f"{case}.txt").write_text(out.getvalue())


if __name__ == "__main__":
    sys.exit(_record())
