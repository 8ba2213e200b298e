"""The repository is its own first lint target — and must stay clean."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.lint import REPORT_SCHEMA_VERSION, run_lint

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURES = Path(__file__).parent / "fixtures"


def test_repo_src_is_lint_clean():
    assert run_lint([REPO_SRC]) == []


def test_cli_clean_run_exits_zero(capsys):
    assert main(["lint", str(REPO_SRC)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_findings_exit_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", str(FIXTURES / "rpl004")])
    assert excinfo.value.code == 1
    out = capsys.readouterr().out
    assert "RPL004" in out
    assert "2 findings" in out


def test_cli_json_report(capsys):
    with pytest.raises(SystemExit):
        main(["lint", "--format", "json", str(FIXTURES / "rpl004")])
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == REPORT_SCHEMA_VERSION
    assert report["n_findings"] == 2
    assert "broad-except" in report["checkers"]
    finding = report["findings"][0]
    assert set(finding) == {"path", "line", "col", "rule", "message"}
    assert finding["rule"] == "RPL004"


def test_cli_checker_selection(capsys):
    # Only the determinism checker: the RPL004 fixture is clean under it.
    assert (
        main(["lint", "--checkers", "broad-except", str(FIXTURES / "rpl002")]) == 0
    )
    capsys.readouterr()


def test_cli_unknown_checker_fails_fast(capsys):
    assert main(["lint", "--checkers", "nope", str(FIXTURES)]) == 2
    assert "unknown lint checker" in capsys.readouterr().err


def test_cli_list(capsys):
    assert main(["lint", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("determinism", "broad-except"):
        assert name in out
    for code in ("RPL002", "RPL004"):
        assert code in out
    assert "registry-contract" not in out  # RPL003 is retired
