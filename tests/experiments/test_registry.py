"""The experiment registry: contract, round-tripping reports, resume."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentReport,
    ExperimentRequest,
    available_experiments,
    experiment_description,
    get_experiment,
    register_experiment,
    run_experiment,
    unregister_experiment,
)
from repro.experiments.registry import render_experiment, run_and_render
from repro.experiments.report import new_report
from repro.study import RunSpec, ScenarioFinished, ScenarioStarted, SimulationProgress


ALL_EXPERIMENTS = (
    "feedback",
    "fig6",
    "multicore",
    "search",
    "shared_cache",
    "table1",
    "table2",
    "table3",
)


class TestRegistryContract:
    """Same contract as the strategy and WCET-model registries."""

    def test_builtins_registered(self):
        assert available_experiments() == ALL_EXPERIMENTS

    def test_unknown_name_fails_fast_naming_registered(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_experiment("tabel1")
        message = str(excinfo.value)
        assert "tabel1" in message
        for name in ALL_EXPERIMENTS:
            assert name in message

    def test_descriptions_from_docstrings(self):
        assert "Table I" in experiment_description(get_experiment("table1"))

    def test_register_and_unregister_custom(self):
        @register_experiment
        class CustomExperiment:
            """A registration-contract probe."""

            name = "custom-probe"
            supports_out = False

            def build(self, request):
                raise NotImplementedError

            def render(self, report):
                raise NotImplementedError

        try:
            assert "custom-probe" in available_experiments()
            with pytest.raises(ConfigurationError):
                register_experiment(CustomExperiment)  # double registration
        finally:
            unregister_experiment("custom-probe")
        assert "custom-probe" not in available_experiments()

    def test_register_rejects_incomplete_specs(self):
        class NoName:
            supports_out = False

            def build(self, request):
                ...

            def render(self, report):
                ...

        with pytest.raises(ConfigurationError):
            register_experiment(NoName)

        class NoRender:
            name = "no-render"

            def build(self, request):
                ...

        with pytest.raises(ConfigurationError):
            register_experiment(NoRender)

    def test_out_rejected_for_non_writing_experiments(self, tmp_path):
        with pytest.raises(ConfigurationError) as excinfo:
            run_experiment("table2", ExperimentRequest(out=tmp_path))
        assert "fig6" in str(excinfo.value)

    def test_strategy_rejected_for_fixed_search_experiments(self):
        """--strategy must fail fast where it would be silently ignored."""
        with pytest.raises(ConfigurationError) as excinfo:
            run_experiment("search", ExperimentRequest(strategy="annealing"))
        message = str(excinfo.value)
        assert "multicore" in message and "shared_cache" in message

    def test_max_count_rejected_for_non_multicore_experiments(self):
        """A no-op --max-count-per-core must not silently fork artifacts."""
        with pytest.raises(ConfigurationError) as excinfo:
            run_experiment("table1", ExperimentRequest(max_count_per_core=2))
        message = str(excinfo.value)
        assert "multicore" in message and "shared_cache" in message

    def test_supports_out_requires_write_outputs(self):
        class NoWriter:
            name = "no-writer"
            supports_out = True

            def build(self, request):
                ...

            def render(self, report):
                ...

        with pytest.raises(ConfigurationError) as excinfo:
            register_experiment(NoWriter)
        assert "write_outputs" in str(excinfo.value)

    def test_shared_cache_resume_compares_its_default_platform(self):
        """Regression: shared_cache builds on the shared paper platform
        when no platform is requested; the resume fingerprint must
        compare against that, not the direct-mapped paper default."""
        from repro.experiments.registry import _target_platform
        from repro.platform import Platform, shared_paper_platform

        assert (
            _target_platform("shared_cache", ExperimentRequest()).fingerprint()
            == shared_paper_platform().fingerprint()
        )
        assert (
            _target_platform("table1", ExperimentRequest()).fingerprint()
            == Platform().fingerprint()
        )

    @pytest.mark.parametrize(
        "name, changes, field, takers",
        [
            ("table1", {"seed": 7}, "seed", "no experiment does"),
            ("multicore", {"n_cores": 2}, "n_cores", "no experiment does"),
            ("search", {"starts": ((4, 2, 2),)}, "starts", "no experiment does"),
            ("fig6", {"strategy": "hybrid"}, "strategy",
             "experiments that do: feedback, multicore, shared_cache"),
        ],
    )
    def test_fields_outside_run_fields_rejected(self, name, changes, field, takers):
        """A spec field the experiment does not declare in
        ``run_fields`` must keep its default, before anything runs;
        the error names the experiments that take it."""
        with pytest.raises(ConfigurationError) as excinfo:
            run_experiment(name, ExperimentRequest(**changes))
        message = str(excinfo.value)
        assert name in message and field in message
        assert message.endswith(takers)


class TestOutputsWrittenOnce:
    """One run writes its output files exactly once, on every path."""

    @pytest.fixture
    def calls(self, tmp_path):
        calls = []

        @register_experiment
        class OutputProbe:
            """Records every build and every output write."""

            name = "output-probe"
            supports_out = True
            default_out = tmp_path / "default"

            def build(self, request):
                calls.append("build")
                return new_report(self.name, data={"value": 1})

            def render(self, report):
                return f"value {report.data['value']}"

            def write_outputs(self, report, directory):
                calls.append(Path(directory))
                return [Path(directory) / "probe.csv"]

        try:
            yield calls
        finally:
            unregister_experiment("output-probe")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_cli_writes_once_per_run_and_resume(self, calls, json_flag, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "out"
        args = ["experiment", "output-probe", "--out", str(out), "--run-dir", str(tmp_path)]
        assert main(args + json_flag) == 0
        first = capsys.readouterr().out
        assert main(args + json_flag) == 0  # resumed from the run dir
        assert capsys.readouterr().out == first
        assert calls == ["build", out, out]
        if not json_flag:
            assert first.rstrip().endswith(f"CSV written to: {out / 'probe.csv'}")

    def test_library_writes_only_an_explicit_out(self, calls, tmp_path):
        run_experiment("output-probe")
        assert calls == ["build"]
        run_experiment("output-probe", ExperimentRequest(out=tmp_path))
        assert calls == ["build", "build", tmp_path]
        text = run_and_render("output-probe")
        assert calls[3:] == ["build", tmp_path / "default"]
        assert text.endswith(f"CSV written to: {tmp_path / 'default' / 'probe.csv'}")


def _request(options, **kwargs) -> ExperimentRequest:
    return ExperimentRequest(design_options=options, **kwargs)


class TestRoundTripCheap:
    """to_json/from_json identity for the configuration-only artifacts."""

    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_report_round_trips(self, name):
        report = run_experiment(name)
        assert report.schema_version == 3
        assert report.profile
        assert report.request["platform"]["wcet_model"] == "static"
        assert report.run_reports == []
        assert ExperimentReport.from_json(report.to_json()) == report
        # Rendering is a pure function of the report.
        rendered = render_experiment(name, report)
        assert rendered == render_experiment(
            name, ExperimentReport.from_json(report.to_json())
        )

    def test_table1_render_matches_module_run(self):
        from repro.experiments import table1

        report = run_experiment("table1")
        assert render_experiment("table1", report) == table1.run().render()


@pytest.mark.slow
class TestRoundTripDesignHeavy:
    """Identity round-trip for every design- or search-backed artifact."""

    def test_table3(self, quick_design_options):
        report = run_experiment("table3", _request(quick_design_options))
        assert ExperimentReport.from_json(report.to_json()) == report
        assert "Table III" in render_experiment("table3", report)

    def test_fig6_round_trip_and_outputs(self, quick_design_options, tmp_path):
        report = run_experiment(
            "fig6", _request(quick_design_options, out=tmp_path)
        )
        assert ExperimentReport.from_json(report.to_json()) == report
        # An explicit out is honored by the runner itself (library path).
        assert len(list(tmp_path.glob("fig6_*.csv"))) == 3
        rendered = render_experiment("fig6", report, out=tmp_path)
        assert "CSV written to" in rendered

    def test_search_embeds_run_reports(self, tiny_design_options):
        events = []
        report = run_experiment(
            "search", _request(tiny_design_options, on_event=events.append)
        )
        assert ExperimentReport.from_json(report.to_json()) == report
        # The sweep and the per-start hybrids run through one Study: one
        # started and one finished event each, whose reports are the
        # embedded ones.
        started = [e for e in events if isinstance(e, ScenarioStarted)]
        finished = [e for e in events if isinstance(e, ScenarioFinished)]
        assert [e.scenario for e in started] == [
            "casestudy-exhaustive", "casestudy-hybrid-4x2x2", "casestudy-hybrid-1x2x1",
        ]
        assert [e.report for e in finished] == report.run_reports
        # The statistics are read from the embedded reports, not echoed.
        assert report.data == {}
        # The hybrids are served from the sweep's design memo.
        for run in report.run_reports[1:]:
            assert run.engine_stats["n_computed"] == 0
            assert run.engine_stats["n_memo_hits"] == run.engine_stats["n_requested"]
        summary = get_experiment("search").result_from(report)
        assert list(summary.hybrid_evaluations.values()) == [
            r.search_stats["n_evaluations"] for r in report.run_reports[1:]
        ]
        assert list(summary.hybrid_evaluations) == [(4, 2, 2), (1, 2, 1)]
        assert [r.spec.strategy for r in report.run_reports] == [
            "exhaustive",
            "hybrid",
            "hybrid",
        ]
        exhaustive = report.run_reports[0]
        stats = exhaustive.engine_stats
        assert stats["n_requested"] == exhaustive.n_space == summary.n_enumerated
        # Rendered statistics come from the report's data alone.
        rendered = render_experiment("search", report)
        assert "Section V" in rendered
        assert rendered == render_experiment(
            "search", ExperimentReport.from_json(report.to_json())
        )

    def test_multicore(self, tiny_design_options):
        report = run_experiment(
            "multicore", _request(tiny_design_options, max_count_per_core=2)
        )
        assert ExperimentReport.from_json(report.to_json()) == report
        (embedded,) = report.run_reports
        assert embedded.spec == RunSpec(n_cores=2, max_count_per_core=2).resolved(3)
        assert embedded.cores
        rendered = render_experiment("multicore", report)
        assert f"multicore P_all = {embedded.overall:.4f}" in rendered

    def test_feedback_embeds_both_simulations(self, tiny_design_options):
        events = []
        report = run_experiment(
            "feedback", _request(tiny_design_options, on_event=events.append)
        )
        finished = [e for e in events if isinstance(e, ScenarioFinished)]
        assert [e.scenario for e in finished] == [
            "casestudy-static", "casestudy-adaptive",
        ]
        assert [e.report for e in finished] == report.run_reports
        assert any(isinstance(e, SimulationProgress) for e in events)
        assert ExperimentReport.from_json(report.to_json()) == report
        static, adaptive = report.run_reports
        assert static.scenario == "casestudy-static"
        assert adaptive.scenario == "casestudy-adaptive"
        assert static.sim is not None and not static.sim["adapt"]
        assert adaptive.sim is not None and adaptive.sim["adapt"]
        assert static.spec.dynamic is not None and adaptive.spec.dynamic is not None
        # Adapting can never lose: the static optimum stays reachable.
        assert adaptive.sim["mean_cost"] <= static.sim["mean_cost"]
        # The summary reads everything from the reports; data echoes none of it.
        assert report.data == {}
        summary = get_experiment("feedback").result_from(report)
        assert (summary.static_cost, summary.adaptive_cost) == (
            static.sim["mean_cost"], adaptive.sim["mean_cost"],
        )
        from repro.experiments.feedback import HORIZON, STRESS

        assert (summary.stress, summary.horizon) == (STRESS, HORIZON)
        rendered = render_experiment("feedback", report)
        assert "feedback-scheduling gain" in rendered
        assert rendered == render_experiment(
            "feedback", ExperimentReport.from_json(report.to_json())
        )

    def test_shared_cache(self, tiny_design_options, tmp_path):
        events = []
        request = _request(
            tiny_design_options, max_count_per_core=2, on_event=events.append
        )
        report = run_experiment("shared_cache", request, run_dir=tmp_path)
        assert [
            e.scenario for e in events if isinstance(e, ScenarioStarted)
        ] == ["casestudy-private", "casestudy-shared"]
        assert [
            e.report for e in events if isinstance(e, ScenarioFinished)
        ] == report.run_reports
        assert ExperimentReport.from_json(report.to_json()) == report
        # Regression: the rerun must resume from the persisted report
        # (the fingerprint check used to compare the wrong platform).
        resumed = run_experiment("shared_cache", request, run_dir=tmp_path)
        assert resumed == report
        private, shared = report.run_reports
        assert private.spec.shared_cache is False and shared.spec.shared_cache is True
        assert all(core["ways"] is None for core in private.cores)
        assert all(
            isinstance(core["ways"], int) for core in shared.cores
        )
        assert report.request["platform"]["cache"]["associativity"] == 4


@pytest.mark.slow
class TestResume:
    def test_search_resumes_from_run_dir(self, tiny_design_options, tmp_path):
        import time

        request = _request(tiny_design_options)
        started = time.perf_counter()
        cold = run_experiment("search", request, run_dir=tmp_path)
        cold_time = time.perf_counter() - started
        assert list(tmp_path.glob("experiment-search--*.json"))

        started = time.perf_counter()
        resumed = run_experiment("search", request, run_dir=tmp_path)
        resumed_time = time.perf_counter() - started
        assert resumed == cold
        assert render_experiment("search", resumed) == render_experiment(
            "search", cold
        )
        assert resumed_time < cold_time / 5

    def test_resume_rejects_changed_request(
        self, tiny_design_options, quick_design_options, tmp_path
    ):
        cold = run_experiment(
            "table3", _request(tiny_design_options), run_dir=tmp_path
        )
        other = run_experiment(
            "table3", _request(quick_design_options), run_dir=tmp_path
        )
        assert other.created_at != cold.created_at
        assert other.request != cold.request

    def test_resume_rejects_corrupt_artifact(
        self, tiny_design_options, tmp_path
    ):
        from repro.experiments.registry import experiment_report_path

        request = _request(tiny_design_options)
        cold = run_experiment("table3", request, run_dir=tmp_path)
        path = experiment_report_path(tmp_path, "table3", request)
        path.write_text("{not json")
        again = run_experiment("table3", request, run_dir=tmp_path)
        assert again.created_at != cold.created_at
        assert again.data == cold.data


class TestSchemaMigration:
    """A report a parent version wrote at the path this version reads
    recomputes; it never crashes ``experiment --run-dir``."""

    def parent_report(self, tmp_path, mutate):
        from repro.experiments.registry import experiment_report_path

        request = ExperimentRequest()
        cold = run_experiment("table1", request, run_dir=tmp_path)
        path = experiment_report_path(tmp_path, "table1", request)
        data = json.loads(path.read_text())
        mutate(data)
        path.write_text(json.dumps(data))
        return request, cold, path

    def test_embedded_schema_3_run_report_recomputes(self, tmp_path):
        def embed(data):
            data["run_reports"] = [
                {"schema_version": 3, "scenario": "casestudy", "strategy": "hybrid"}
            ]

        request, cold, path = self.parent_report(tmp_path, embed)
        with pytest.raises(ConfigurationError, match="schema_version 3"):
            ExperimentReport.from_json(path.read_text())
        again = run_experiment("table1", request, run_dir=tmp_path)
        assert again.created_at != cold.created_at
        assert again.data == cold.data
        assert ExperimentReport.from_json(path.read_text()) == again

    def test_parent_search_artifact_recomputes(self, tiny_design_options, tmp_path):
        """A ``search`` artifact of schema 2 kept the infeasible list and
        the round-robin baseline in ``data``, and its exhaustive report
        lacks the sweep's ``infeasible``/``overalls`` statistics: it is
        recomputed, not rendered from missing keys."""
        from repro.experiments.registry import experiment_report_path

        request = _request(tiny_design_options)
        cold = run_experiment("search", request, run_dir=tmp_path)
        path = experiment_report_path(tmp_path, "search", request)
        data = json.loads(path.read_text())
        data["schema_version"] = 2
        stats = data["run_reports"][0]["search_stats"]
        summary = get_experiment("search").result_from(cold)
        data["data"] = {
            "infeasible": stats.pop("infeasible"),
            "round_robin_overall": summary.round_robin_overall,
        }
        stats.pop("overalls")
        stats["ranking"] = []
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match="schema_version 2"):
            ExperimentReport.from_json(path.read_text())
        again = run_experiment("search", request, run_dir=tmp_path)
        assert again.created_at != cold.created_at
        assert render_experiment("search", again) == render_experiment("search", cold)
        assert ExperimentReport.from_json(path.read_text()) == again

    def test_other_experiment_schema_recomputes(self, tmp_path):
        def bump(data):
            data["schema_version"] = 0

        request, cold, path = self.parent_report(tmp_path, bump)
        with pytest.raises(ConfigurationError) as excinfo:
            ExperimentReport.from_json(path.read_text())
        assert "schema_version 0" in str(excinfo.value)
        assert "speaks 3" in str(excinfo.value)
        again = run_experiment("table1", request, run_dir=tmp_path)
        assert again.created_at != cold.created_at
        assert again.data == cold.data
