"""Structured, persisted experiment reports.

An :class:`ExperimentReport` is the JSON-serializable artifact of one
paper-artifact regeneration: which experiment ran, under which design
profile and request (platform included), the structured per-row / per-series data the
rendered table or figure is built from, the embedded
:class:`~repro.study.RunReport`\\ s wherever a schedule search ran, and
the wall time.  Reports round-trip losslessly through
:meth:`ExperimentReport.to_json` / :meth:`ExperimentReport.from_json`,
so the paper's headline outputs persist under a run directory exactly
like search runs do — resumable, diffable, comparable across commits.

Rendering is a pure function of the report (each registered experiment
renders *from* its report's data, never from transient state), so a
report resumed from disk renders byte-identically to the run that
produced it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..study.report import RunReport, _json_safe
from ..study.spec import strict_payload

#: Bump when the report layout changes incompatibly.
#: v3: ``search`` reads its infeasible list and round-robin baseline from
#: the exhaustive run report, not from ``data``.
SCHEMA_VERSION = 3


@dataclass
class ExperimentReport:
    """Structured outcome of one experiment run (JSON round-trippable).

    ``data`` is the experiment-specific payload (table rows, figure
    series, search statistics) — JSON-safe by construction.
    ``run_reports`` embeds one :class:`~repro.study.RunReport` per
    schedule search the experiment executed (empty for pure
    table/figure regenerations).  ``request`` is the canonical
    encoding (:mod:`repro.identity`) of the resolved request — the
    platform the run was built on included; with ``experiment`` and
    ``profile`` it is the run's identity, which resume compares as a
    whole.
    """

    experiment: str
    profile: str
    request: dict
    data: dict
    run_reports: list[RunReport]
    wall_time: float
    created_at: float
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # Round-tripping
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        # Field-by-field (not asdict): the data payload can be large
        # (fig6 series) and needs no deep copy, and asdict would
        # convert the embedded RunReports a second time.
        return {
            "experiment": self.experiment,
            "profile": self.profile,
            "request": self.request,
            "data": self.data,
            "run_reports": [report.to_dict() for report in self.run_reports],
            "wall_time": self.wall_time,
            "created_at": self.created_at,
            "schema_version": self.schema_version,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentReport":
        """Rebuild a report from its :meth:`to_dict` form.

        Strict, like :meth:`RunReport.from_dict
        <repro.study.RunReport.from_dict>`: another schema version — its
        own or an embedded run report's — or an unknown or missing field
        raises :class:`~repro.errors.ConfigurationError` naming it.
        """
        payload = strict_payload(cls, data, SCHEMA_VERSION)
        if "run_reports" in payload:
            payload["run_reports"] = [
                RunReport.from_dict(entry) for entry in payload["run_reports"]
            ]
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigurationError(f"invalid ExperimentReport: {exc}") from exc

    def to_json(self, indent: int | None = 2) -> str:
        """Stable JSON form (sorted keys; ``Infinity`` allowed for the
        non-finite settling of infeasible designs)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        """Inverse of :meth:`to_json` (identity round-trip)."""
        return cls.from_dict(json.loads(text))


def new_report(
    experiment: str,
    data: dict,
    run_reports: list[RunReport] | None = None,
) -> ExperimentReport:
    """Fresh report skeleton for one experiment run.

    The registry runner stamps ``profile``/``request``/``wall_time``
    after the build, so experiments only fill in what they measured:
    the data payload and the embedded run reports.
    """
    return ExperimentReport(
        experiment=experiment,
        profile="",
        request={},
        data=_json_safe(data),
        run_reports=list(run_reports or []),
        wall_time=0.0,
        created_at=time.time(),
    )
