"""Job model: JobSpec/JobRecord round trips, validation, digests."""

import pytest

from repro.errors import ConfigurationError
from repro.platform import shared_paper_platform
from repro.serve.jobs import JobRecord, JobSpec
from repro.sim import load_transient


class TestJobSpecRoundTrip:
    def test_default_round_trip(self):
        spec = JobSpec()
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_full_round_trip(self):
        spec = JobSpec.from_dict(dict(
            kind="search",
            strategy="annealing",
            starts=[[4, 2, 2], [1, 2, 1]],
            n_starts=3,
            seed=7,
            n_cores=2,
            max_count_per_core=4,
            shared_cache=True,
            allocator="greedy",
            platform={
                "cache": {
                    "n_sets": 32,
                    "associativity": 4,
                    "line_size": 16,
                    "hit_cycles": 1,
                    "miss_cycles": 100,
                    "policy": "lru",
                },
                "clock_hz": 20e6,
                "wcet_model": "static",
            },
            resume=False,
        ))
        rebuilt = JobSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.starts == ((4, 2, 2), (1, 2, 1))  # tuples, not lists

    def test_schema_version_recorded_and_checked(self):
        data = JobSpec().to_dict()
        assert data["schema_version"] == 1
        data["schema_version"] = 99
        with pytest.raises(ConfigurationError) as exc:
            JobSpec.from_dict(data)
        assert "schema_version" in str(exc.value)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError) as exc:
            JobSpec.from_dict({"stratgy": "hybrid"})
        assert "stratgy" in str(exc.value)
        assert "strategy" in str(exc.value)  # known fields are listed

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec.from_dict([1, 2, 3])
        with pytest.raises(ConfigurationError):
            JobSpec.from_json("not json {")

    def test_malformed_starts_rejected(self):
        with pytest.raises(ConfigurationError) as exc:
            JobSpec.from_dict({"starts": "4,2,2"})
        assert "starts" in str(exc.value)


class TestJobSpecValidation:
    def test_unknown_strategy_names_registry(self):
        with pytest.raises(ConfigurationError) as exc:
            JobSpec(strategy="anealing").validate()
        message = str(exc.value)
        assert "anealing" in message
        assert "annealing" in message and "exhaustive" in message

    def test_unknown_wcet_model_names_registry(self):
        platform = {
            "cache": {
                "n_sets": 128,
                "associativity": 1,
                "line_size": 16,
                "hit_cycles": 1,
                "miss_cycles": 100,
                "policy": "lru",
            },
            "clock_hz": 20e6,
            "wcet_model": "quantum",
        }
        with pytest.raises(ConfigurationError) as exc:
            JobSpec.from_dict({"platform": platform}).validate()
        message = str(exc.value)
        assert "quantum" in message and "static" in message

    def test_malformed_platform_fingerprint(self):
        with pytest.raises(ConfigurationError) as exc:
            JobSpec.from_dict({"platform": {"clock_hz": 20e6}}).validate()
        assert "platform" in str(exc.value)

    def test_bad_kind_and_backend(self):
        with pytest.raises(ConfigurationError):
            JobSpec(kind="dream").validate()
        # The evaluation-backend switch is gone: naming it in a new
        # submission is an unknown field.
        with pytest.raises(ConfigurationError) as exc:
            JobSpec.from_dict({"eval_backend": "serial"})
        assert "eval_backend" in str(exc.value)

    def test_shared_cache_needs_cores(self):
        with pytest.raises(ConfigurationError) as exc:
            JobSpec(shared_cache=True).validate()
        assert "n_cores" in str(exc.value)
        JobSpec(shared_cache=True, n_cores=2, platform=shared_paper_platform()).validate()

    def test_unknown_allocator_names_registry(self):
        with pytest.raises(ConfigurationError) as exc:
            JobSpec(allocator="oracle", n_cores=2).validate()
        message = str(exc.value)
        assert "oracle" in message
        assert "greedy" in message and "exhaustive" in message

    def test_allocator_needs_cores(self):
        with pytest.raises(ConfigurationError) as exc:
            JobSpec(allocator="greedy").validate()
        assert "n_cores" in str(exc.value)
        JobSpec(allocator="greedy", n_cores=2).validate()

    def test_suite_forbids_starts(self):
        with pytest.raises(ConfigurationError):
            JobSpec(kind="suite", starts=((1, 1, 1),)).validate()
        JobSpec(kind="suite", suite_size=2).validate()

    @pytest.mark.parametrize(
        "kind, name, value",
        [
            ("search", "suite_size", 9),
            ("search", "jitter_platform", True),
            ("suite", "starts", ((1, 1, 1),)),
            ("suite", "n_starts", 3),
            ("suite", "max_count_per_core", 2),
            ("suite", "n_apps", 4),
        ],
    )
    def test_field_outside_its_kind_rejected(self, kind, name, value):
        # Accepting it would change the job's digest, not its run.
        with pytest.raises(ConfigurationError, match=f"{name} applies to"):
            JobSpec(kind=kind, **{name: value}).validate()
        JobSpec(kind=kind).validate()

    def test_cores_bounded_by_case_study_applications(self):
        with pytest.raises(ConfigurationError, match="n_cores=4 exceeds the 3"):
            JobSpec(n_cores=4).validate()
        JobSpec(n_cores=4, n_apps=4).validate()
        JobSpec(kind="suite", n_cores=4).validate()  # clamped per scenario

    def test_dynamic_is_single_core(self):
        with pytest.raises(ConfigurationError, match="single-core"):
            JobSpec(kind="suite", n_cores=2, random_dynamic=True).validate()
        with pytest.raises(ConfigurationError, match="single-core"):
            JobSpec(n_cores=2, dynamic=load_transient(3)).validate()
        JobSpec(dynamic=load_transient(3)).validate()

    def test_bounds(self):
        with pytest.raises(ConfigurationError):
            JobSpec(n_cores=0).validate()
        with pytest.raises(ConfigurationError):
            JobSpec(n_starts=0).validate()
        with pytest.raises(ConfigurationError):
            JobSpec(kind="suite", suite_size=0).validate()
        with pytest.raises(ConfigurationError):
            JobSpec(starts=((0, 1, 1),)).validate()

    def test_validate_returns_self(self):
        spec = JobSpec(strategy="hybrid")
        assert spec.validate() is spec


class TestJobSpecDigest:
    def test_digest_is_stable_identity(self):
        assert JobSpec().digest() == JobSpec().digest()
        assert (
            JobSpec(strategy="hybrid").digest()
            == JobSpec(strategy="hybrid").digest()
        )

    def test_digest_separates_different_jobs(self):
        base = JobSpec(strategy="hybrid")
        assert base.digest() != JobSpec(strategy="annealing").digest()
        assert base.digest() != JobSpec(strategy="hybrid", seed=1).digest()

    def test_digest_ignores_how_a_job_computes(self):
        # resume never changes the report a job writes, so such specs
        # share one digest (and one per-digest lock).
        base = JobSpec(strategy="hybrid")
        assert base.digest() == JobSpec(strategy="hybrid", resume=False).digest()


class TestJobRecord:
    def _record(self):
        return JobRecord(
            id="job-000007",
            spec=JobSpec(strategy="hybrid"),
            state="done",
            submitted_at=10.0,
            started_at=11.0,
            finished_at=15.0,
            error=None,
            reports=[{"scenario": "casestudy", "overall": 0.6}],
        )

    def test_round_trip(self):
        record = self._record()
        assert JobRecord.from_json(record.to_json()) == record

    def test_summary_form_omits_reports(self):
        record = self._record()
        summary = record.to_dict(include_reports=False)
        assert "reports" not in summary
        rebuilt = JobRecord.from_dict(summary)
        assert rebuilt.reports is None
        assert rebuilt.id == record.id and rebuilt.state == record.state

    def test_unknown_state_rejected(self):
        data = self._record().to_dict()
        data["state"] = "paused"
        with pytest.raises(ConfigurationError) as exc:
            JobRecord.from_dict(data)
        assert "paused" in str(exc.value)

    def test_schema_version_checked(self):
        data = self._record().to_dict()
        data["schema_version"] = 0
        with pytest.raises(ConfigurationError):
            JobRecord.from_dict(data)

    def test_ledger_record_with_retired_backend_loads(self, legacy_record):
        record = JobRecord.from_json(legacy_record)
        assert record.id == "job-000003" and record.state == "done"
        assert record.spec == JobSpec(strategy="hybrid")
        assert record.reports == [{"overall": 0.6, "scenario": "casestudy"}]
        assert "eval_backend" not in record.to_json()

    def test_unknown_field_rejected(self):
        data = self._record().to_dict()
        data["priority"] = 9
        with pytest.raises(ConfigurationError) as exc:
            JobRecord.from_dict(data)
        assert "priority" in str(exc.value)
