"""Tests for the top-level CLI (quick profile via environment)."""

import importlib
import json

import pytest

from repro.__main__ import main
from repro.study import RunReport


@pytest.fixture(autouse=True)
def quick_profile(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "quick")


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "907.55 us" in out
        assert "idle-feasible periodic schedules: 77" in out

    def test_evaluate(self, capsys):
        assert main(["evaluate", "--schedule", "1,1,1"]) == 0
        out = capsys.readouterr().out
        assert "P_all" in out
        assert "C3" in out

    def test_timeline(self, capsys):
        assert main(["timeline", "--schedule", "2,2,2"]) == 0
        out = capsys.readouterr().out
        assert "C1c" in out and "C1w" in out

    def test_strategies_lists_registry(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("exhaustive", "hybrid", "annealing", "interleaved"):
            assert name in out
        assert "register" in out

    def test_models_lists_registry(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("static", "concrete", "analytic"):
            assert name in out
        assert "register" in out

    def test_experiments_lists_registry(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for name in (
            "table1", "table2", "table3", "fig6",
            "search", "multicore", "shared_cache",
        ):
            assert name in out
        assert "register" in out

    @pytest.mark.parametrize(
        "argv, module, registry",
        [
            (["strategies"], "repro.sched.strategies.base", "STRATEGIES"),
            (["allocators"], "repro.multicore.allocators", "ALLOCATORS"),
            (["models"], "repro.wcet.models", "WCET_MODELS"),
            (["lint", "--list"], "repro.lint.registry", "CHECKERS"),
            (["experiments"], "repro.experiments.registry", "EXPERIMENTS"),
        ],
        ids=["strategies", "allocators", "models", "lint-list", "experiments"],
    )
    def test_listing_shows_every_registered_entry(
        self, capsys, argv, module, registry
    ):
        registry = getattr(importlib.import_module(module), registry)
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("registered ")
        for name, entry in registry.items():
            assert any(
                line.startswith(f"{name} ") and registry.describe(entry) in line
                for line in lines
            ), name
        assert "register your own with @repro." in lines[-1]

    def test_experiment_unknown_fails_fast(self, capsys):
        assert main(["experiment", "tabel2"]) == 2
        err = capsys.readouterr().err
        assert "tabel2" in err and "table2" in err and "fig6" in err

    def test_experiment_out_scoped_to_fig6(self, capsys, tmp_path):
        assert main(["experiment", "table2", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "fig6" in err

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["table2", "--cache-sets", "64"], "does not take platform"),
            (["table1", "--clock-mhz", "40"], "non-default clock"),
        ],
        ids=["table2-cache-sets", "table1-clock"],
    )
    def test_experiment_rejects_platform_flags_it_ignores(
        self, capsys, tmp_path, argv, reason
    ):
        """A platform flag that cannot change the table must not fork
        its run-dir artifact: rejected before any output."""
        assert main(["experiment", *argv, "--run-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert reason in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_table1_takes_the_platform_cache(self, capsys):
        assert main(["experiment", "table1", "--cache-sets", "64", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["request"]["platform"]["cache"]["n_sets"] == 64

    def test_experiment_json_round_trips(self, capsys):
        from repro.experiments import ExperimentReport

        assert main(["experiment", "table2", "--json"]) == 0
        report = ExperimentReport.from_json(capsys.readouterr().out)
        assert report.experiment == "table2"
        assert report.profile == "quick"
        assert report.data["matches_paper"] is True
        assert ExperimentReport.from_json(report.to_json()) == report

    def test_experiment_run_dir_resumes_byte_identical(self, capsys, tmp_path):
        args = ["experiment", "table1", "--json", "--run-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        artifacts = list(tmp_path.glob("experiment-table1--*.json"))
        assert len(artifacts) == 1
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_search_with_analytic_model(self, capsys):
        """--wcet-model flows through to the report; analytic coincides
        with static on the calibrated (fitting, single-path) programs."""
        assert main(
            ["search", "--strategy", "hybrid", "--starts", "2,2,2",
             "--wcet-model", "analytic", "--json"]
        ) == 0
        report = RunReport.from_dict(json.loads(capsys.readouterr().out))
        assert report.spec.platform.wcet_model == "analytic"

    def test_search_unknown_wcet_model_fails_fast(self, capsys):
        assert main(["search", "--wcet-model", "statik"]) == 2
        err = capsys.readouterr().err
        assert "statik" in err and "static" in err

    def test_one_core_cap_is_rejected_before_output(self, capsys, tmp_path):
        """A one-core run ignores the burst cap, so the cap must not fork
        its run-dir artifact: rejected before any output."""
        argv = ["multicore", "--cores", "1", "--max-count-per-core", "2"]
        assert main([*argv, "--run-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_count_per_core requires n_cores >= 2" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_search_with_starts(self, capsys):
        assert main(["search", "--strategy", "hybrid", "--starts", "2,2,2"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out
        assert "strategy: hybrid" in out

    def test_search_unknown_strategy_fails_fast(self, capsys):
        assert main(["search", "--strategy", "anealing"]) == 2
        err = capsys.readouterr().err
        assert "anealing" in err and "annealing" in err

    def test_search_json_is_valid_and_schema_stable(self, capsys):
        assert main(["search", "--strategy", "hybrid", "--starts", "2,2,2",
                     "--json"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        # The stdout payload is exactly one RunReport object.
        report = RunReport.from_dict(data)
        assert report.spec.strategy == "hybrid"
        assert report.scenario == "casestudy"
        assert report.spec.starts == ((2, 2, 2),)
        assert report.best_schedule is not None
        assert report.engine_stats["n_requested"] > 0
        assert report.schema_version == 4
        assert report.spec.platform is None  # the paper platform: static WCETs

    def test_search_run_dir_persists_report(self, capsys, tmp_path):
        run_dir = tmp_path / "runs"
        args = ["search", "--strategy", "hybrid", "--starts", "2,2,2",
                "--run-dir", str(run_dir), "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        artifacts = list(run_dir.glob("*.json"))
        assert len(artifacts) == 1
        assert RunReport.from_json(artifacts[0].read_text()) == RunReport.from_dict(first)
        # Rerun resumes from the artifact: identical report, timestamp included.
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second == first

    def test_invalid_schedule_exits(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "--schedule", "banana"])

    @pytest.mark.slow
    def test_batch_json_outputs_report_array(self, capsys):
        assert main(["batch", "--suite-size", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert isinstance(data, list) and len(data) == 1
        report = RunReport.from_dict(data[0])
        assert report.scenario == "synth-000"
        assert report.spec.strategy == "hybrid"

    @pytest.mark.slow
    def test_multicore_warm_rerun_disk_served(self, capsys, tmp_path):
        args = [
            "multicore", "--cores", "2", "--max-count-per-core", "2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "P_all" in cold and "cores used: " in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "= 0 computed" in warm
        # Identical result on the warm, fully disk-served rerun.
        assert cold.split("engine:")[0] == warm.split("engine:")[0]

    @pytest.mark.slow
    def test_multicore_single_core_degenerates_to_search(self, capsys, tmp_path):
        """Regression: --cores 1 must render, not crash on cores=None."""
        args = ["multicore", "--cores", "1", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "P_all" in out and "cores used: 1" in out

    @pytest.mark.slow
    def test_multicore_json_carries_partition(self, capsys, tmp_path):
        args = [
            "multicore", "--cores", "2", "--max-count-per-core", "2",
            "--cache-dir", str(tmp_path), "--json",
        ]
        assert main(args) == 0
        report = RunReport.from_dict(json.loads(capsys.readouterr().out))
        assert report.spec.n_cores == 2
        assert report.cores and report.best_schedule is None
        assert report.spec.strategy == "exhaustive"

    @pytest.mark.slow
    def test_multicore_shared_cache_warm_rerun(self, capsys, tmp_path):
        """--shared-cache co-designs the way allocation, records it in
        the report, and warm-starts from the same persistent cache."""
        args = [
            "multicore", "--cores", "2", "--max-count-per-core", "2",
            "--shared-cache", "--cache-dir", str(tmp_path), "--json",
        ]
        assert main(args) == 0
        report = RunReport.from_dict(json.loads(capsys.readouterr().out))
        assert report.spec.shared_cache is True
        assert report.spec.platform.cache.associativity == 4
        ways = [core["ways"] for core in report.cores]
        assert all(isinstance(w, int) and w >= 1 for w in ways)
        assert sum(ways) == 4
        assert main(args) == 0
        warm = RunReport.from_dict(json.loads(capsys.readouterr().out))
        assert warm.engine_stats["n_computed"] == 0
        assert warm.cores == report.cores
        assert warm.overall == report.overall


class TestServeCli:
    """The serve/submit/status/watch subcommands (server on a thread)."""

    def test_serve_help_documents_the_service(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--host", "--port", "--jobs", "--workers",
                     "--queue-size", "--job-timeout", "--run-dir",
                     "--cache-dir"):
            assert flag in out

    def test_submit_status_watch_help(self, capsys):
        for command in ("submit", "status", "watch"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            assert "--server" in capsys.readouterr().out

    def test_submit_unreachable_server_exits_2(self, capsys):
        assert main(
            ["submit", "--server", "http://127.0.0.1:1", "--strategy", "hybrid"]
        ) == 2
        err = capsys.readouterr().err
        assert "cannot reach" in err and "127.0.0.1:1" in err

    def test_submit_unknown_strategy_fails_over_http(self, capsys, tmp_path):
        from repro.serve.testing import ServerThread

        with ServerThread(run_dir=tmp_path / "serve") as server:
            code = main(
                ["submit", "--server", server.url, "--strategy", "anealing"]
            )
        assert code == 2
        err = capsys.readouterr().err
        # The server's 400 carries the registry-naming ConfigurationError
        # message, so the CLI fails exactly like a direct run would.
        assert "anealing" in err
        assert "annealing" in err and "exhaustive" in err

    @pytest.mark.slow
    def test_submit_watch_status_full_loop(self, capsys, tmp_path):
        from repro.serve.testing import ServerThread

        with ServerThread(run_dir=tmp_path / "serve") as server:
            assert main(
                ["submit", "--server", server.url, "--strategy", "hybrid",
                 "--starts", "4,2,2", "--n-starts", "1", "--json"]
            ) == 0
            record = json.loads(capsys.readouterr().out)
            job_id = record["id"]
            assert record["state"] == "queued"
            assert record["spec"]["strategy"] == "hybrid"

            assert main(["watch", job_id, "--server", server.url, "--json"]) == 0
            lines = [
                json.loads(line)
                for line in capsys.readouterr().out.splitlines()
                if line.strip()
            ]
            assert lines[0]["type"] == "status" and lines[0]["state"] == "queued"
            assert lines[-1]["type"] == "status" and lines[-1]["state"] == "done"
            assert any(line["type"] == "event" for line in lines)

            assert main(["status", job_id, "--server", server.url, "--json"]) == 0
            final = json.loads(capsys.readouterr().out)
            assert final["state"] == "done"
            [report] = final["reports"]
            assert RunReport.from_dict(report).feasible

            # Human-readable forms render too.
            assert main(["status", job_id, "--server", server.url]) == 0
            out = capsys.readouterr().out
            assert job_id in out and "P_all" in out
            assert main(["status", "--server", server.url]) == 0
            out = capsys.readouterr().out
            assert job_id in out and "done" in out
            assert main(["watch", job_id, "--server", server.url]) == 0
            out = capsys.readouterr().out
            assert "finished" in out or "resumed" in out

    @pytest.mark.slow
    def test_watch_failed_job_exits_2(self, capsys, tmp_path):
        from repro.serve.testing import ServerThread

        with ServerThread(
            run_dir=tmp_path / "serve", job_timeout=0.001
        ) as server:
            assert main(
                ["submit", "--server", server.url, "--strategy", "hybrid",
                 "--starts", "4,2,2", "--json"]
            ) == 0
            job_id = json.loads(capsys.readouterr().out)["id"]
            assert main(["watch", job_id, "--server", server.url]) == 2
        err = capsys.readouterr().err
        assert "failed" in err and "timeout" in err

    def test_status_unknown_job_exits_2(self, capsys, tmp_path):
        from repro.serve.testing import ServerThread

        with ServerThread(run_dir=tmp_path / "serve") as server:
            assert main(
                ["status", "job-999999", "--server", server.url]
            ) == 2
        assert "job-999999" in capsys.readouterr().err
