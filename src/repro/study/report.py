"""Structured, persisted run reports.

A :class:`RunReport` is the JSON-serializable artifact of one scenario
run: which problem (scenario + stable problem digest), which strategy
with which options and seed, how the engine behaved (stats, backend),
and what came out (best schedule — per-core assignments for multicore
runs — per-application settling/performance, overall value, wall
time).  Reports round-trip losslessly through
:meth:`RunReport.to_json` / :meth:`RunReport.from_json`, so a sweep
persisted under a run directory is resumable and comparable across
commits.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..control.design import DesignOptions
from ..identity import canonical, digest
from ..platform import default_platform
from ..sched.engine.keys import problem_digest
from ..sched.strategies import options_as_dict

#: Bump when the report layout changes incompatibly.
#: v2: reports record the platform (cache geometry, clock, WCET model)
#: and the shared-cache flag; multicore cores carry their way allocation.
#: (Still v2: the allocator fields below are additive with defaults, so
#: v2 artifacts written before them round-trip unchanged.)
#: v3: reports record the run's canonical identity (:func:`scenario_identity`),
#: which resume compares as a whole.
SCHEMA_VERSION = 3


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
        getattr(scenario, "platform", None),
    )


def scenario_identity(scenario) -> dict[str, str]:
    """Identity of one scenario run: the digest of each top-level field
    of its canonical encoding (:mod:`repro.identity`), so the record
    every report carries stays small and :func:`~repro.identity.diff`
    can still name the fields two runs differ in.

    ``design_options``/``platform`` of ``None`` resolve exactly as in
    :func:`scenario_digest`; that ``problem`` digest joins the record,
    pinning the cache-key schema the results were computed under.
    """
    tree = canonical(scenario)
    tree["design_options"] = tree["design_options"] or canonical(DesignOptions())
    tree["platform"] = tree["platform"] or canonical(
        default_platform(scenario.clock)
    )
    identity = {name: digest(value) for name, value in tree.items()}
    identity["problem"] = scenario_digest(scenario)
    return identity


def write_artifact(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a sibling tmp file and an
    atomic :meth:`~pathlib.Path.replace`: a crash mid-write leaves the
    previous artifact (or none), never a torn one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


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
    """Structured outcome of one scenario run (JSON round-trippable)."""

    scenario: str
    strategy: str
    options: dict
    seed: int
    n_starts: int
    starts: list[list[int]] | None
    n_cores: int
    max_count_per_core: int
    platform: dict
    shared_cache: bool
    n_apps: int
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
    allocator: str | None = None
    allocator_options: dict = field(default_factory=dict)
    #: The dynamic profile of a feedback-scheduling scenario
    #: (:meth:`DynamicProfile.to_dict
    #: <repro.sim.profiles.DynamicProfile.to_dict>`) and its simulation
    #: outcome (:meth:`SimReport.to_dict
    #: <repro.sim.report.SimReport.to_dict>`); ``None`` for static
    #: runs.  Additive with defaults, so pre-simulation v2 artifacts
    #: round-trip unchanged.
    dynamic: dict | None = None
    sim: dict | None = None
    #: The run's :func:`scenario_identity` (empty for reports built by
    #: hand or written before schema v3).
    identity: dict[str, str] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_outcome(cls, scenario, outcome) -> "RunReport":
        """Build the report of one executed scenario.

        ``scenario`` is the :class:`~repro.sched.engine.batch.Scenario`
        that ran, ``outcome`` the
        :class:`~repro.sched.engine.batch.ScenarioOutcome` it produced.
        """
        if outcome.multicore is not None:
            evaluation = outcome.multicore
            best_schedule = None
            cores = [
                {
                    "app_indices": list(core.app_indices),
                    "apps": [scenario.apps[i].name for i in core.app_indices],
                    "schedule": list(core.schedule.counts),
                    "ways": core.ways,
                }
                for core in evaluation.cores
            ]
            apps = [
                {
                    "name": scenario.apps[index].name,
                    "settling": evaluation.settling[index],
                    "performance": evaluation.performances[index],
                }
                for index in sorted(evaluation.settling)
            ]
            feasible = evaluation.feasible
            search_stats: dict = {
                "allocator": getattr(scenario, "allocator", None),
                "n_partitions": int(getattr(evaluation, "n_partitions", 0)),
            }
        else:
            best = outcome.result.best
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
            search_stats = _json_safe(outcome.result.stats)
        return cls(
            scenario=scenario.name,
            strategy=outcome.strategy,
            options=_json_safe(options_as_dict(scenario.options)),
            seed=scenario.seed,
            n_starts=scenario.n_starts,
            starts=(
                [list(s.counts) for s in scenario.starts]
                if scenario.starts
                else None
            ),
            n_cores=scenario.n_cores,
            max_count_per_core=scenario.max_count_per_core,
            platform=(
                scenario.platform or default_platform(scenario.clock)
            ).fingerprint(),
            shared_cache=bool(getattr(scenario, "shared_cache", False)),
            n_apps=outcome.n_apps,
            problem=scenario_digest(scenario),
            n_space=outcome.n_space,
            backend=outcome.backend,
            engine_stats=_json_safe(outcome.engine_stats),
            best_schedule=best_schedule,
            cores=cores,
            overall=float(outcome.best_overall),
            feasible=bool(feasible),
            apps=apps,
            wall_time=float(outcome.wall_time),
            created_at=time.time(),
            search_stats=search_stats,
            allocator=getattr(scenario, "allocator", None),
            allocator_options=_json_safe(
                options_as_dict(getattr(scenario, "allocator_options", None))
            ),
            dynamic=(
                scenario.dynamic.to_dict()
                if getattr(scenario, "dynamic", None) is not None
                else None
            ),
            sim=(
                outcome.sim.to_dict()
                if getattr(outcome, "sim", None) is not None
                else None
            ),
            identity=scenario_identity(scenario),
        )

    # ------------------------------------------------------------------
    # Round-tripping
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        return cls(
            scenario=str(data["scenario"]),
            strategy=str(data["strategy"]),
            options=dict(data["options"]),
            seed=int(data["seed"]),
            n_starts=int(data["n_starts"]),
            starts=(
                [[int(m) for m in counts] for counts in data["starts"]]
                if data["starts"] is not None
                else None
            ),
            n_cores=int(data["n_cores"]),
            max_count_per_core=int(data["max_count_per_core"]),
            platform=dict(data.get("platform", {})),
            shared_cache=bool(data.get("shared_cache", False)),
            n_apps=int(data["n_apps"]),
            problem=str(data["problem"]),
            n_space=int(data["n_space"]),
            backend=str(data["backend"]),
            engine_stats=dict(data["engine_stats"]),
            best_schedule=(
                [int(m) for m in data["best_schedule"]]
                if data["best_schedule"] is not None
                else None
            ),
            cores=(
                [dict(core) for core in data["cores"]]
                if data["cores"] is not None
                else None
            ),
            overall=float(data["overall"]),
            feasible=bool(data["feasible"]),
            apps=[dict(app) for app in data["apps"]],
            wall_time=float(data["wall_time"]),
            created_at=float(data["created_at"]),
            search_stats=dict(data.get("search_stats", {})),
            allocator=(
                str(data["allocator"])
                if data.get("allocator") is not None
                else None
            ),
            allocator_options=dict(data.get("allocator_options", {})),
            dynamic=(
                dict(data["dynamic"])
                if data.get("dynamic") is not None
                else None
            ),
            sim=dict(data["sim"]) if data.get("sim") is not None else None,
            identity=dict(data.get("identity", {})),
            schema_version=int(data.get("schema_version", SCHEMA_VERSION)),
        )

    def to_json(self, indent: int | None = 2) -> str:
        """Stable JSON form (sorted keys; ``Infinity`` allowed for the
        non-finite settling of infeasible designs)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Inverse of :meth:`to_json` (identity round-trip)."""
        return cls.from_dict(json.loads(text))
