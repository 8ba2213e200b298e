"""Structured, persisted run reports.

A :class:`RunReport` is the JSON-serializable artifact of one scenario
run: which problem (scenario + stable problem digest), which run (the
resolved :class:`~repro.study.spec.RunSpec`: strategy and options,
seed, cores, platform, allocator, dynamic profile), how the engine
behaved (stats, backend), and what came out (best schedule — per-core
assignments for multicore runs — per-application
settling/performance, overall value, wall time).  Reports round-trip
losslessly through :meth:`RunReport.to_json` /
:meth:`RunReport.from_json`, so a sweep persisted under a run
directory is resumable and comparable across commits.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..control.design import DesignOptions
from ..errors import ConfigurationError
from ..identity import canonical, digest
from ..platform import default_platform
from ..sched.engine.keys import problem_digest
from .spec import RunSpec, strict_payload

#: Bump when the report layout changes incompatibly.
#: v2: reports record the platform (cache geometry, clock, WCET model)
#: and the shared-cache flag; multicore cores carry their way allocation.
#: v3: reports record the run's canonical identity (:func:`scenario_identity`),
#: which resume compares as a whole.
#: v4: reports record the resolved :class:`~repro.study.spec.RunSpec`
#: once (``spec``) in place of the per-field header.
SCHEMA_VERSION = 4


def scenario_digest(scenario) -> str:
    """Stable digest of a scenario's evaluation problem.

    Identical to the engine's persistent-cache problem digest, so two
    reports are comparable exactly when their evaluations would share
    cache entries.
    """
    return problem_digest(
        scenario.apps,
        scenario.clock,
        scenario.design_options or DesignOptions(),
        scenario.spec.platform,
    )


def scenario_identity(scenario) -> dict[str, str]:
    """Identity of one scenario run: the digest of each top-level field
    of its canonical encoding (:mod:`repro.identity`) — the spec's
    fields flattened in — so the record every report carries stays
    small and :func:`~repro.identity.diff` can still name the fields
    two runs differ in (``seed``, not ``spec``).

    ``design_options``/``platform`` of ``None`` resolve exactly as in
    :func:`scenario_digest`; that ``problem`` digest joins the record,
    pinning the cache-key schema the results were computed under.
    A :class:`~repro.sched.engine.batch.Scenario` computes this once
    (its ``identity``).
    """
    tree = canonical(scenario)
    tree.update(tree.pop("spec"))
    tree["design_options"] = tree["design_options"] or canonical(DesignOptions())
    tree["platform"] = tree["platform"] or canonical(
        default_platform(scenario.clock)
    )
    identity = {name: digest(value) for name, value in tree.items()}
    identity["problem"] = scenario.problem
    return identity


def write_artifact(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file of this writer's
    own in the same directory and an atomic :meth:`~pathlib.Path.replace`:
    a crash mid-write leaves the previous artifact (or none), never a
    torn one, and concurrent writers of one path never share (or remove)
    each other's temp file — the last replace wins with a whole text.
    (A uuid-named sibling rather than :func:`tempfile.mkstemp`, whose
    0600 mode would carry over to the artifact.)"""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_text(text)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _json_safe(value):
    """Recursively keep only JSON-representable content."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        kept = [_json_safe(item) for item in value]
        return [item for item in kept if item is not _DROP]
    if isinstance(value, dict):
        result = {}
        for key, item in value.items():
            safe = _json_safe(item)
            if safe is not _DROP:
                result[str(key)] = safe
        return result
    return _DROP


_DROP = object()


@dataclass
class RunReport:
    """Structured outcome of one scenario run (JSON round-trippable).

    ``spec`` is the run's resolved :class:`~repro.study.spec.RunSpec`
    (see :meth:`RunSpec.resolved <repro.study.spec.RunSpec.resolved>`),
    recorded once; ``identity`` is :func:`scenario_identity`, which
    resume compares as a whole (empty for reports built by hand).
    ``sim`` is the :meth:`SimReport.to_dict
    <repro.sim.report.SimReport.to_dict>` of a dynamic run's
    simulation, ``None`` for static runs.
    """

    scenario: str
    spec: RunSpec
    problem: str
    n_space: int
    backend: str
    engine_stats: dict
    best_schedule: list[int] | None
    cores: list[dict] | None
    overall: float
    feasible: bool
    apps: list[dict]
    wall_time: float
    created_at: float
    search_stats: dict = field(default_factory=dict)
    sim: dict | None = None
    identity: dict[str, str] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_run(
        cls, scenario, engine, wall_time: float, n_space: int, *,
        result=None, multicore=None, sim=None,
    ) -> "RunReport":
        """Build the report of one executed scenario.

        ``scenario`` is the :class:`~repro.sched.engine.batch.Scenario`
        that ran on ``engine`` (whose stats and backend the report
        records); exactly one of ``result`` (a single-core
        :class:`~repro.sched.results.SearchResult`) and ``multicore``
        (a :class:`~repro.multicore.MulticoreEvaluation`) is its
        outcome, ``sim`` a dynamic run's
        :class:`~repro.sim.report.SimReport`.
        """
        if multicore is not None:
            best_schedule = None
            cores = [
                {
                    "app_indices": list(core.app_indices),
                    "apps": [scenario.apps[i].name for i in core.app_indices],
                    "schedule": list(core.schedule.counts),
                    "ways": core.ways,
                }
                for core in multicore.cores
            ]
            apps = [
                {
                    "name": scenario.apps[index].name,
                    "settling": multicore.settling[index],
                    "performance": multicore.performances[index],
                }
                for index in sorted(multicore.settling)
            ]
            feasible = multicore.feasible
            overall = multicore.overall
            search_stats: dict = {"n_partitions": int(multicore.n_partitions)}
        else:
            best = result.best
            best_schedule = list(best.schedule.counts)
            cores = None
            apps = [
                {
                    "name": app.app_name,
                    "settling": app.settling,
                    "performance": app.performance,
                }
                for app in best.apps
            ]
            feasible = best.feasible
            overall = best.overall
            search_stats = {
                "n_evaluations": result.n_evaluations,
                **_json_safe(result.stats),
            }
        return cls(
            scenario=scenario.name,
            spec=scenario.spec,
            problem=scenario.problem,
            n_space=n_space,
            backend=engine.backend_name,
            engine_stats=_json_safe(engine.stats.as_dict()),
            best_schedule=best_schedule,
            cores=cores,
            overall=float(overall),
            feasible=bool(feasible),
            apps=apps,
            wall_time=float(wall_time),
            created_at=time.time(),
            search_stats=search_stats,
            sim=sim.to_dict() if sim is not None else None,
            identity=dict(scenario.identity),
        )

    # ------------------------------------------------------------------
    # Round-tripping
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = {item.name: getattr(self, item.name) for item in fields(self)}
        data["spec"] = self.spec.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """Rebuild a report from its :meth:`to_dict` form.

        Strict: another schema version, an unknown or missing field, or
        a malformed spec raises :class:`~repro.errors.ConfigurationError`
        naming it — an old artifact is recomputed, never misread.
        """
        payload = strict_payload(cls, data, SCHEMA_VERSION)
        payload["spec"] = RunSpec.from_dict(payload.get("spec"))
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigurationError(f"invalid RunReport: {exc}") from exc

    def to_json(self, indent: int | None = 2) -> str:
        """Stable JSON form (sorted keys; ``Infinity`` allowed for the
        non-finite settling of infeasible designs)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Inverse of :meth:`to_json` (identity round-trip)."""
        return cls.from_dict(json.loads(text))
