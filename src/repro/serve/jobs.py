"""The job model of the search service.

A :class:`JobSpec` is one submittable run: a
:class:`~repro.study.spec.RunSpec` — the one description of what a
run computes, shared with the CLI and the library — plus how the
server should compute it.  A :class:`JobRecord` is the server's ledger
entry for one submitted job (state machine, timestamps, error, result
reports).  Both round-trip losslessly through JSON with a schema
version, and a spec validates exactly like a direct run: unknown
strategy, allocator or WCET-model names raise
:class:`~repro.errors.ConfigurationError` naming the registered
alternatives, *before* any search starts.

A spec's :meth:`JobSpec.digest` is the stable hash of its canonical
identity encoding (:mod:`repro.identity`); the service serializes
identical digests so concurrent submissions of the same job resolve to
one search plus disk resumes — byte-identical reports, computed once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..identity import NON_IDENTITY, digest
from ..study.spec import RunSpec, load_json, strict_payload

#: Bump when the record layout changes incompatibly.
RECORD_SCHEMA_VERSION = 1

#: The job state machine, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")

#: Spec keys older ledgers carry that no longer exist.  They never
#: changed a report, so a persisted record drops them on load; a new
#: submission naming one is rejected like any unknown field.
_RETIRED_SPEC_KEYS = ("eval_backend",)


@dataclass(frozen=True)
class JobSpec(RunSpec):
    """A :class:`~repro.study.spec.RunSpec` the server runs.

    ``resume=False`` forces recomputation even when a matching report
    is persisted in the server's shared run directory.  That changes
    how a job computes its report, never the report, so it is no part
    of its identity: two specs differing only there write the same
    run-dir artifact and share one :meth:`digest`.
    """

    resume: bool = field(default=True, metadata=NON_IDENTITY)

    def digest(self) -> str:
        """Stable identity of this spec (identity-digest prefix).

        Two specs share a digest exactly when they describe the same
        job; the service uses it to serialize identical concurrent
        submissions onto one search.
        """
        return digest(self)[:16]


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
        like :meth:`JobSpec.from_dict`, except that the spec's retired
        keys are dropped; ``reports`` may be absent — the summary form
        omits it)."""
        payload = strict_payload(cls, data, RECORD_SCHEMA_VERSION)
        state = payload.get("state", "queued")
        if state not in JOB_STATES:
            raise ConfigurationError(
                f"unknown job state {state!r}; "
                f"known states: {', '.join(JOB_STATES)}"
            )
        spec = payload.get("spec")
        if isinstance(spec, dict):
            spec = {k: v for k, v in spec.items() if k not in _RETIRED_SPEC_KEYS}
        payload["spec"] = JobSpec.from_dict(spec)
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigurationError(f"invalid job record: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "JobRecord":
        """Inverse of :meth:`to_json` (identity round-trip)."""
        return cls.from_dict(load_json(text, cls.__name__))
