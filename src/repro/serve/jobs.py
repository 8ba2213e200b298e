"""The job model of the search service.

A :class:`JobSpec` is the serializable description of one search the
server can run — the scenario kind (the paper case study, or a
synthesized workload suite), the strategy, the platform fingerprint
and the engine options — and a :class:`JobRecord` is the server's
ledger entry for one submitted job (state machine, timestamps, error,
result reports).  Both round-trip losslessly through JSON with a
schema version, and a spec validates against the live registries
exactly like the CLI does: unknown strategy or WCET-model names raise
:class:`~repro.errors.ConfigurationError` naming the registered
alternatives, *before* any search starts.

A spec's :meth:`JobSpec.digest` is the stable hash of its canonical
identity encoding (:mod:`repro.identity`); the service serializes
identical digests so concurrent submissions of the same job resolve to
one search plus disk resumes — byte-identical reports, computed once.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..errors import ConfigurationError
from ..identity import NON_IDENTITY, digest
from ..platform import platform_from_fingerprint
from ..sched.strategies import get_strategy

if TYPE_CHECKING:  # imported lazily at runtime: study builds on sched
    from ..sched.engine import EngineOptions
    from ..study import Study

#: Bump when the spec layout changes incompatibly.
SPEC_SCHEMA_VERSION = 1

#: Bump when the record layout changes incompatibly.
RECORD_SCHEMA_VERSION = 1

#: The job state machine, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")

#: Scenario kinds a spec can describe.
JOB_KINDS = ("search", "suite")

_EVAL_BACKENDS = ("serial", "vectorized")


@dataclass(frozen=True)
class JobSpec:
    """One submittable search: scenario + strategy + platform + engine.

    ``kind="search"`` runs the paper's automotive case study (the CLI's
    ``search``/``multicore`` commands, depending on ``n_cores``);
    ``kind="suite"`` sweeps a deterministic synthesized workload suite
    of ``suite_size`` scenarios (the CLI's ``batch`` command).
    ``platform`` is a :meth:`~repro.platform.Platform.fingerprint`
    dict (``None`` = the paper platform).  ``allocator`` names the
    partition allocator of a multicore job (``None`` = the problem's
    default, exhaustive enumeration).  ``resume=False`` forces
    recomputation even when a matching report is persisted in the
    server's shared run directory.

    ``eval_backend`` and ``resume`` change how a job computes its
    report, never the report, so they are no part of its identity: two
    specs differing only there write the same run-dir artifact and
    share one :meth:`digest`.
    """

    kind: str = "search"
    strategy: str | None = None
    starts: tuple[tuple[int, ...], ...] | None = None
    n_starts: int = 2
    seed: int = 2018
    n_cores: int = 1
    max_count_per_core: int = 6
    shared_cache: bool = False
    allocator: str | None = None
    suite_size: int = 4
    platform: dict | None = None
    eval_backend: str = field(default="vectorized", metadata=NON_IDENTITY)
    resume: bool = field(default=True, metadata=NON_IDENTITY)

    # ------------------------------------------------------------------
    # JSON round-tripping
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe form (inverse of :meth:`from_dict`)."""
        data: dict = {"schema_version": SPEC_SCHEMA_VERSION}
        data.update(dataclasses.asdict(self))
        if self.starts is not None:
            data["starts"] = [list(counts) for counts in self.starts]
        return data

    def to_json(self) -> str:
        """Canonical JSON form (inverse of :meth:`from_json`)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Rebuild a spec from its :meth:`to_dict` form.

        Strict: a non-object payload, an unsupported schema version or
        unknown field names raise
        :class:`~repro.errors.ConfigurationError` — a malformed
        submission must fail loudly, not run a subtly different job.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"job spec must be a JSON object, got {type(data).__name__}"
            )
        payload = dict(data)
        version = payload.pop("schema_version", SPEC_SCHEMA_VERSION)
        if version != SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported job spec schema_version {version!r}; "
                f"this server speaks version {SPEC_SCHEMA_VERSION}"
            )
        known = {item.name for item in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown job spec field(s) {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        starts = payload.get("starts")
        if starts is not None:
            try:
                payload["starts"] = tuple(
                    tuple(int(count) for count in schedule)
                    for schedule in starts
                )
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"invalid starts {starts!r}: expected a list of "
                    "integer count lists (e.g. [[4, 2, 2]])"
                ) from exc
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigurationError(f"invalid job spec: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        """Inverse of :meth:`to_json` (identity round-trip)."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"invalid job spec JSON: {exc}") from exc
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Validation and identity
    # ------------------------------------------------------------------
    def validate(self) -> "JobSpec":
        """Fail fast on anything the engine would reject later.

        Registry names (strategy, WCET model) are resolved exactly like
        the CLI resolves them, so the error message names the
        registered alternatives.  Returns ``self`` for chaining.
        """
        if self.kind not in JOB_KINDS:
            raise ConfigurationError(
                f"unknown job kind {self.kind!r}; "
                f"choose from {', '.join(JOB_KINDS)}"
            )
        if self.strategy is not None:
            get_strategy(self.strategy)  # raises with the registered list
        if self.eval_backend not in _EVAL_BACKENDS:
            raise ConfigurationError(
                f"unknown eval backend {self.eval_backend!r}; "
                f"choose from {', '.join(_EVAL_BACKENDS)}"
            )
        if self.n_cores < 1:
            raise ConfigurationError(f"n_cores must be >= 1, got {self.n_cores}")
        if self.n_starts < 1:
            raise ConfigurationError(
                f"n_starts must be >= 1, got {self.n_starts}"
            )
        if self.max_count_per_core < 1:
            raise ConfigurationError(
                f"max_count_per_core must be >= 1, got {self.max_count_per_core}"
            )
        if self.shared_cache and self.n_cores < 2:
            raise ConfigurationError(
                "shared_cache requires n_cores >= 2 "
                "(one core cannot partition a shared cache)"
            )
        if self.allocator is not None:
            if self.n_cores < 2:
                raise ConfigurationError(
                    "allocator requires n_cores >= 2 "
                    "(partition allocators apply to multicore jobs only)"
                )
            # Lazily imported: repro.multicore builds on repro.sched.
            from ..multicore.allocators import get_allocator

            get_allocator(self.allocator)  # raises with the registry
        if self.kind == "suite":
            if self.suite_size < 1:
                raise ConfigurationError(
                    f"suite_size must be >= 1, got {self.suite_size}"
                )
            if self.starts is not None:
                raise ConfigurationError(
                    "suite jobs synthesize their own scenarios; "
                    "explicit starts are only valid for kind='search'"
                )
        if self.starts is not None:
            for counts in self.starts:
                if not counts or any(count < 1 for count in counts):
                    raise ConfigurationError(
                        f"invalid start {list(counts)!r}: "
                        "iteration counts must be positive"
                    )
        if self.platform is not None:
            try:
                platform = platform_from_fingerprint(self.platform)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"invalid platform fingerprint: {exc}"
                ) from exc
            from ..wcet.models import get_wcet_model

            get_wcet_model(platform.wcet_model)  # raises with the registry
        return self

    def digest(self) -> str:
        """Stable identity of this spec (identity-digest prefix).

        Two specs share a digest exactly when they describe the same
        job; the service uses it to serialize identical concurrent
        submissions onto one search.
        """
        return digest(self)[:16]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build_study(
        self,
        engine_options: "EngineOptions",
        run_dir: str | Path | None,
    ) -> "Study":
        """The :class:`~repro.study.Study` this spec describes.

        The design budget follows ``REPRO_PROFILE``, exactly like the
        CLI, so server-side and direct runs of one spec share their
        persisted run-dir artifacts.
        """
        from ..experiments.profiles import design_options_for_profile
        from ..sched.schedule import PeriodicSchedule
        from ..study import Study

        design = design_options_for_profile()
        platform = (
            platform_from_fingerprint(self.platform)
            if self.platform is not None
            else None
        )
        if self.kind == "suite":
            return Study.from_suite(
                self.suite_size,
                seed=self.seed,
                strategy=self.strategy,
                design_options=design,
                n_cores=self.n_cores,
                platform=platform,
                shared_cache=self.shared_cache,
                allocator=self.allocator,
                engine_options=engine_options,
                run_dir=run_dir,
            )
        starts = (
            [PeriodicSchedule(tuple(counts)) for counts in self.starts]
            if self.starts is not None
            else None
        )
        return Study.from_case_study(
            design,
            strategy=self.strategy,
            starts=starts,
            n_starts=self.n_starts,
            seed=self.seed,
            n_cores=self.n_cores,
            max_count_per_core=self.max_count_per_core,
            platform=platform,
            shared_cache=self.shared_cache,
            allocator=self.allocator,
            engine_options=engine_options,
            run_dir=run_dir,
        )


@dataclass
class JobRecord:
    """The server's ledger entry for one submitted job.

    ``state`` walks ``queued -> running -> done | failed``; the
    timestamps mark each transition, ``error`` carries the failure
    message and ``reports`` the finished job's
    :class:`~repro.study.RunReport` dicts (one per scenario).  Records
    persist as JSON under the service's run directory at every
    transition, so a restarted server resumes its ledger from disk.
    """

    id: str
    spec: JobSpec
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    reports: list[dict] | None = None

    def to_dict(self, include_reports: bool = True) -> dict:
        """JSON-safe form; ``include_reports=False`` gives the compact
        summary the job listing returns."""
        data: dict = {
            "schema_version": RECORD_SCHEMA_VERSION,
            "id": self.id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }
        if include_reports:
            data["reports"] = self.reports
        return data

    def to_json(self) -> str:
        """Canonical JSON form (inverse of :meth:`from_json`)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        """Rebuild a record from its :meth:`to_dict` form (strict,
        like :meth:`JobSpec.from_dict`; ``reports`` may be absent —
        the summary form omits it)."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"job record must be a JSON object, got {type(data).__name__}"
            )
        payload = dict(data)
        version = payload.pop("schema_version", RECORD_SCHEMA_VERSION)
        if version != RECORD_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported job record schema_version {version!r}; "
                f"this client speaks version {RECORD_SCHEMA_VERSION}"
            )
        known = {item.name for item in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown job record field(s) {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        state = payload.get("state", "queued")
        if state not in JOB_STATES:
            raise ConfigurationError(
                f"unknown job state {state!r}; "
                f"known states: {', '.join(JOB_STATES)}"
            )
        spec_data: Any = payload.get("spec")
        payload["spec"] = JobSpec.from_dict(spec_data)
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigurationError(f"invalid job record: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "JobRecord":
        """Inverse of :meth:`to_json` (identity round-trip)."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"invalid job record JSON: {exc}") from exc
        return cls.from_dict(data)
