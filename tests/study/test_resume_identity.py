"""Run-dir resume decided by one identity: collisions, reasons, atomic writes."""

import json
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro.identity import diff
from repro.sched.engine.batch import synthesize_scenarios
from repro.sched.schedule import PeriodicSchedule
from repro.study import RunReport, RunSpec, Study
from repro.study.events import ScenarioFinished, ScenarioResumed
from repro.study.report import scenario_identity, write_artifact


@pytest.fixture()
def scenario(tiny_design_options):
    spec = RunSpec(kind="suite", suite_size=1, seed=11, n_apps_choices=(2,))
    return synthesize_scenarios(spec, tiny_design_options)[0]


def terminal(study: Study, resume: bool = True):
    """The one resumed/finished event of a one-scenario study."""
    (event,) = [
        event
        for event in study.stream(resume=resume)
        if isinstance(event, (ScenarioResumed, ScenarioFinished))
    ]
    return event


class TestDesignBudgetCollision:
    """Regression: the run-dir digest used to omit the design budget, so
    case-study runs differing only in ``DesignOptions.restarts`` shared
    one artifact and overwrote each other."""

    def studies(self, tiny_design_options, run_dir):
        return [
            Study.from_case_study(
                design_options=replace(tiny_design_options, restarts=restarts),
                starts=[PeriodicSchedule.of(4, 2, 2)],
                run_dir=run_dir,
            )
            for restarts in (1, 2)
        ]

    def test_distinct_report_paths(self, tiny_design_options, tmp_path):
        one, two = self.studies(tiny_design_options, tmp_path)
        assert one.report_path(one.scenarios[0]) != two.report_path(
            two.scenarios[0]
        )

    def test_each_resumes_its_own_report(self, tiny_design_options, tmp_path):
        first = [
            terminal(study) for study in self.studies(tiny_design_options, tmp_path)
        ]
        assert all(isinstance(event, ScenarioFinished) for event in first)
        assert len(list(tmp_path.glob("*.json"))) == 2
        again = [
            terminal(study) for study in self.studies(tiny_design_options, tmp_path)
        ]
        assert all(isinstance(event, ScenarioResumed) for event in again)
        for cold, warm in zip(first, again):
            assert warm.report == cold.report
        one, two = (event.report.identity for event in again)
        assert diff(one, two) == ["design_options", "problem"]


class TestRecomputeReason:
    def test_none_without_an_artifact(self, scenario, tmp_path):
        event = terminal(Study.from_scenarios([scenario], run_dir=tmp_path))
        assert isinstance(event, ScenarioFinished)
        assert event.recompute_reason is None
        assert event.report.identity == scenario_identity(scenario)

    def test_resume_disabled(self, scenario, tmp_path):
        Study.from_scenarios([scenario], run_dir=tmp_path).run()
        event = terminal(
            Study.from_scenarios([scenario], run_dir=tmp_path), resume=False
        )
        assert event.recompute_reason == "resume disabled"

    def test_corrupt_artifact(self, scenario, tmp_path):
        study = Study.from_scenarios([scenario], run_dir=tmp_path)
        study.run()
        study.report_path(scenario).write_text("{not json")
        event = terminal(Study.from_scenarios([scenario], run_dir=tmp_path))
        assert isinstance(event, ScenarioFinished)
        assert event.recompute_reason.startswith("corrupt artifact: ")

    def test_differing_identity_is_named(self, scenario, tmp_path, monkeypatch):
        study = Study.from_scenarios([scenario], run_dir=tmp_path)
        study.run()
        path = study.report_path(scenario)
        # Force the other budget onto the same artifact path: only the
        # recorded identity can tell the runs apart.
        monkeypatch.setattr(Study, "report_path", lambda self, s: path)
        moved = replace(
            scenario,
            design_options=replace(scenario.design_options, restarts=2),
        )
        event = terminal(Study.from_scenarios([moved], run_dir=tmp_path))
        assert isinstance(event, ScenarioFinished)
        assert event.recompute_reason == "differs in: design_options, problem"

    def test_seed_change_is_named_by_the_spec_field(
        self, scenario, tmp_path, monkeypatch
    ):
        """The spec's fields are flattened into the identity, so a seed
        change is reported as ``seed``, not as ``spec``."""
        study = Study.from_scenarios([scenario], run_dir=tmp_path)
        study.run()
        path = study.report_path(scenario)
        monkeypatch.setattr(Study, "report_path", lambda self, s: path)
        moved = replace(scenario, spec=replace(scenario.spec, seed=scenario.spec.seed + 1))
        event = terminal(Study.from_scenarios([moved], run_dir=tmp_path))
        assert isinstance(event, ScenarioFinished)
        assert event.recompute_reason == "differs in: seed"

    def test_schema_3_artifact_recomputes_naming_the_schema(
        self, scenario, tmp_path
    ):
        """A parent-format (schema 3) report at the path this run reads
        is recomputed, and the reason says which schema it was."""
        study = Study.from_scenarios([scenario], run_dir=tmp_path)
        (report,) = study.run()
        path = study.report_path(scenario)
        data = report.to_dict()
        spec = data.pop("spec")
        del spec["schema_version"]
        data.update(spec, schema_version=3, n_apps=len(scenario.apps))
        path.write_text(json.dumps(data))
        event = terminal(Study.from_scenarios([scenario], run_dir=tmp_path))
        assert isinstance(event, ScenarioFinished)
        assert event.recompute_reason == (
            "incompatible artifact: unsupported RunReport schema_version 3; "
            "this version speaks 4"
        )
        assert RunReport.from_json(path.read_text()) == event.report

    def test_pre_identity_artifact_recomputes(self, scenario, tmp_path):
        study = Study.from_scenarios([scenario], run_dir=tmp_path)
        study.run()
        path = study.report_path(scenario)
        data = json.loads(path.read_text())
        del data["identity"]
        path.write_text(json.dumps(data))
        event = terminal(Study.from_scenarios([scenario], run_dir=tmp_path))
        assert isinstance(event, ScenarioFinished)
        # Nothing recorded: every field of the identity differs.
        expected = ", ".join(sorted(scenario_identity(scenario)))
        assert event.recompute_reason == f"differs in: {expected}"

    def test_reason_round_trips_over_the_wire(self, scenario, tmp_path):
        study = Study.from_scenarios([scenario], run_dir=tmp_path)
        study.run()
        study.report_path(scenario).write_text("{not json")
        event = terminal(Study.from_scenarios([scenario], run_dir=tmp_path))
        assert ScenarioFinished.from_json(event.to_json()) == event


class TestAtomicArtifacts:
    """A write interrupted between the tmp write and the replace leaves
    the previous report (or none) — never a torn one that loads."""

    def crash_on_replace(self, monkeypatch):
        def crash(self, target):
            raise OSError("simulated crash before the atomic replace")

        monkeypatch.setattr(Path, "replace", crash)

    def test_helper_keeps_the_old_text(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        write_artifact(path, "old\n")
        self.crash_on_replace(monkeypatch)
        with pytest.raises(OSError, match="simulated crash"):
            write_artifact(path, "new\n")
        assert path.read_text() == "old\n"

    def test_torn_tmp_write_never_reaches_the_artifact(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "report.json"
        write_artifact(path, "old\n")
        real_write = Path.write_text

        def torn(self, text, *args, **kwargs):
            real_write(self, text[: len(text) // 2])
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(Path, "write_text", torn)
        with pytest.raises(OSError, match="mid-write"):
            write_artifact(path, "a much longer new report\n")
        monkeypatch.undo()
        assert path.read_text() == "old\n"

    def test_interrupted_rerun_keeps_the_old_report(
        self, scenario, tmp_path, monkeypatch
    ):
        study = Study.from_scenarios([scenario], run_dir=tmp_path)
        (first,) = study.run()
        path = study.report_path(scenario)
        self.crash_on_replace(monkeypatch)
        with pytest.raises(OSError, match="simulated crash"):
            Study.from_scenarios([scenario], run_dir=tmp_path).run(resume=False)
        monkeypatch.undo()
        assert RunReport.from_json(path.read_text()) == first

    def test_concurrent_writers_never_tear_or_collide(self, tmp_path):
        """Threads hammering one path: no writer fails, no temp file is
        left behind, and the artifact always parses as one writer's
        complete text."""
        path = tmp_path / "report.json"
        texts = [json.dumps({"writer": n, "pad": "x" * 4096 * (n + 1)}) for n in range(2)]
        errors: list[BaseException] = []

        def hammer(text: str) -> None:
            try:
                for _ in range(300):
                    write_artifact(path, text)
                    assert path.read_text() in texts
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(text,)) for text in texts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert path.read_text() in texts
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_failed_write_removes_its_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        self.crash_on_replace(monkeypatch)
        with pytest.raises(OSError, match="simulated crash"):
            write_artifact(path, "new\n")
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_first_run_leaves_no_report(
        self, scenario, tmp_path, monkeypatch
    ):
        study = Study.from_scenarios([scenario], run_dir=tmp_path)
        self.crash_on_replace(monkeypatch)
        with pytest.raises(OSError, match="simulated crash"):
            study.run()
        monkeypatch.undo()
        assert not study.report_path(scenario).exists()
        # The next run recomputes from scratch: nothing torn to resume.
        event = terminal(Study.from_scenarios([scenario], run_dir=tmp_path))
        assert isinstance(event, ScenarioFinished)
        assert event.recompute_reason is None
