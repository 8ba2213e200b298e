"""Every rule fires on its seeded fixture — right rule id, right line."""

from pathlib import Path

from repro.lint import LintConfig, run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def line_of(path: Path, needle: str) -> int:
    """1-based line of the first line containing ``needle``."""
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if needle in line:
            return lineno
    raise AssertionError(f"{needle!r} not found in {path}")


class TestRPL002:
    def test_ambient_calls_fire(self):
        noise = FIXTURES / "rpl002" / "control" / "noise.py"
        findings = run_lint([FIXTURES / "rpl002"], checkers=["determinism"])
        assert all(f.rule == "RPL002" for f in findings)
        assert sorted(f.line for f in findings) == sorted(
            [
                line_of(noise, "np.random.random()"),
                line_of(noise, "salt = random.random()"),
                line_of(noise, "stamp = time.time()"),
            ]
        )

    def test_marker_and_seeded_rng_silent(self):
        noise = FIXTURES / "rpl002" / "control" / "noise.py"
        findings = run_lint([FIXTURES / "rpl002"], checkers=["determinism"])
        fired = {f.line for f in findings}
        assert line_of(noise, "time.perf_counter()") not in fired
        assert line_of(noise, "default_rng") not in fired
        assert line_of(noise, "rng.normal()") not in fired

    def test_out_of_scope_file_ignored(self, tmp_path):
        # Same ambient calls, but no determinism_dirs component in the path.
        (tmp_path / "tooling.py").write_text("import time\nnow = time.time()\n")
        assert run_lint([tmp_path], checkers=["determinism"]) == []

    def test_config_allowlist(self):
        noise = FIXTURES / "rpl002" / "control" / "noise.py"
        config = LintConfig(
            determinism_allowed=(("control/noise.py", "time.time"),)
        )
        findings = run_lint(
            [FIXTURES / "rpl002"], checkers=["determinism"], config=config
        )
        assert line_of(noise, "time.time()") not in {f.line for f in findings}
        assert len(findings) == 2


class TestRPL004:
    def test_swallowing_handlers_fire(self):
        worker = FIXTURES / "rpl004" / "worker.py"
        findings = run_lint([FIXTURES / "rpl004"], checkers=["broad-except"])
        assert all(f.rule == "RPL004" for f in findings)
        fired = {f.line for f in findings}
        assert fired == {
            line_of(worker, "except Exception:\n".strip()),
            line_of(worker, "except:"),
        }
        assert len(findings) == 2

    def test_reraise_and_marker_silent(self):
        worker = FIXTURES / "rpl004" / "worker.py"
        findings = run_lint([FIXTURES / "rpl004"], checkers=["broad-except"])
        fired = {f.line for f in findings}
        assert line_of(worker, "allow-broad-except") not in fired


class TestRPL000:
    def test_syntax_error_becomes_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n")
        findings = run_lint([tmp_path])
        assert [f.rule for f in findings] == ["RPL000"]
        assert "syntax error" in findings[0].message
