"""Pluggable experiment registry — the paper-artifact front door.

An *experiment* is the unit of extensibility of the artifact layer: it
receives an :class:`ExperimentRequest` (a
:class:`~repro.study.spec.RunSpec` plus design budget, engine
configuration, output directory and progress callback) and returns a
structured :class:`~repro.experiments.report.ExperimentReport`.  Experiments
register themselves by name with :func:`register_experiment`; every
entry point (``python -m repro experiment <name>``, the resume-aware
:func:`run_experiment` runner) resolves names through
:func:`get_experiment`, so an unknown name fails fast with the list of
registered experiments — the one :class:`~repro.registry.Registry`
contract shared by every plugin registry.

Eight experiments are builtin: one per paper artifact — ``table1``,
``table2``, ``table3``, ``fig6``, ``search``, ``multicore``,
``shared_cache`` — plus ``feedback``, the runtime feedback-scheduling
comparison built on :mod:`repro.sim` (each registered by its module
under :mod:`repro.experiments`).

Rendering is split from running: :meth:`ExperimentSpec.build` produces
the report, :meth:`ExperimentSpec.render` turns a report — fresh or
resumed from disk — into the table/figure text.  That split is what
makes ``--run-dir`` resume byte-identical: a rerun loads the persisted
JSON and renders it without re-searching.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, ClassVar, Protocol, runtime_checkable

from ..control.design import DesignOptions
from ..errors import ConfigurationError
from ..identity import NON_IDENTITY, canonical, diff, digest
from ..platform import Platform
from ..registry import Registry
from ..sched.engine import EngineOptions
from ..sched.engine.batch import Scenario
from ..study.report import write_artifact
from ..study.spec import RunSpec
from .profiles import current_profile, design_options_for_profile
from .report import ExperimentReport


@dataclass(frozen=True)
class ExperimentRequest(RunSpec):
    """One experiment run: a :class:`~repro.study.spec.RunSpec` plus
    the inputs that only experiments have.

    The inherited spec fields describe the run.  An experiment honours
    the ones it declares in ``run_fields`` (see :class:`ExperimentSpec`);
    :func:`validate_request` rejects any other that leaves its default.
    ``platform=None`` is the experiment's own default platform (see
    :func:`_target_platform`).  The search-backed experiments build
    each scenario's spec as this request with the scenario's changes
    applied (:meth:`scenario`), so the embedded
    :class:`~repro.study.RunReport`\\ s and the experiment artifact
    are named by one encoder.

    Parameters
    ----------
    design_options:
        Controller-design budget; ``None`` uses the ``REPRO_PROFILE``
        profile (the CLI path).
    workers / cache_dir:
        Engine configuration for search-backed experiments (worker
        processes, persistent evaluation cache).  Like ``out`` and
        ``on_event`` they change how fast or where a run happens, never
        what it computes, so they are no part of the run's identity.
    out:
        Output directory for experiments that write files
        (only ``fig6`` — see :attr:`ExperimentSpec.supports_out`).
    on_event:
        Receives the typed progress events while searches run: the
        study events (:mod:`repro.study.events`) of the scenarios an
        experiment runs through a :class:`~repro.study.Study`, the bare
        engine events (:mod:`repro.sched.engine.events`) of the one
        experiment that holds an engine itself (the ``multicore``
        sweep).
    """

    #: ``max_count_per_core`` is no multicore-only field here: the
    #: request is single-core, but ``multicore``/``shared_cache`` take
    #: it for the two-core scenarios they build from it, where it is
    #: checked as part of a run.
    MULTICORE_FIELDS: ClassVar[tuple[str, ...]] = (
        "shared_cache", "allocator", "allocator_options",
    )

    design_options: DesignOptions | None = None
    workers: int = field(default=0, metadata=NON_IDENTITY)
    cache_dir: str | Path | None = field(default=None, metadata=NON_IDENTITY)
    out: str | Path | None = field(default=None, metadata=NON_IDENTITY)
    on_event: Callable | None = field(
        default=None, compare=False, metadata=NON_IDENTITY
    )

    def scenario(self, name: str, case, **changes) -> Scenario:
        """The case-study scenario ``name``: ``case``'s applications,
        run as this request with ``changes`` applied."""
        options = self.design_options or design_options_for_profile()
        return Scenario(name, case.apps, case.clock, options, replace(self, **changes))

    def engine_options(self) -> EngineOptions:
        """The engine configuration of this request's searches."""
        return EngineOptions(workers=self.workers, cache_dir=self.cache_dir)


@runtime_checkable
class ExperimentSpec(Protocol):
    """What a pluggable experiment must provide.

    ``name`` is the registry key; ``build`` runs the experiment and
    returns its structured report; ``render`` turns any report of this
    experiment (freshly built or resumed from disk) into the
    table/figure text.  ``supports_out`` marks experiments that write
    output files from :attr:`ExperimentRequest.out` (only ``fig6``
    builtin; such experiments must also define ``write_outputs(report,
    directory)``); the CLI rejects ``--out`` for all others.

    Optional attributes: ``run_fields`` — the
    :class:`~repro.study.spec.RunSpec` fields of the request the
    experiment honours (default ``("platform",)``; builtin:
    ``feedback`` adds ``strategy``, ``multicore`` and ``shared_cache``
    add ``strategy`` and ``max_count_per_core``).  Any other spec field
    must keep its default, so a request never forks an artifact on a
    field the run ignores (``table2`` takes none).  ``default_platform``
    — a zero-argument callable — declares the platform an experiment
    runs on when the request names none (builtin: ``shared_cache`` uses
    :func:`~repro.platform.shared_paper_platform`).  ``check_request``
    — a method taking the request — rejects, with
    :class:`~repro.errors.ConfigurationError`, values of the fields it
    takes that the run would ignore (builtin: ``table1`` takes only the
    platform's cache).
    """

    name: str
    supports_out: bool

    def build(self, request: ExperimentRequest) -> ExperimentReport:
        ...

    def render(self, report: ExperimentReport) -> str:
        ...


def _check_outputs(experiment: ExperimentSpec) -> None:
    """``supports_out`` experiments must define ``write_outputs``."""
    if experiment.supports_out and not callable(
        getattr(experiment, "write_outputs", None)
    ):
        raise ConfigurationError(
            f"experiment {experiment.name!r} declares supports_out but "
            "defines no `write_outputs` method"
        )


def _ensure_builtins() -> None:
    """Import the builtin experiment modules (each registers itself).

    Deferred to first registry use: the experiment modules import the
    apps/control stack, which itself imports this package.
    """
    from . import (  # noqa: F401
        feedback,
        fig6,
        multicore,
        search,
        shared_cache,
        table1,
        table2,
        table3,
    )


#: The experiment registry (see :class:`repro.registry.Registry`).
EXPERIMENTS: Registry[ExperimentSpec] = Registry(
    "experiment",
    "experiments",
    protocol=ExperimentSpec,
    check=_check_outputs,
    builtins=_ensure_builtins,
)

register_experiment = EXPERIMENTS.register
unregister_experiment = EXPERIMENTS.unregister
available_experiments = EXPERIMENTS.available
get_experiment = EXPERIMENTS.get
experiment_description = EXPERIMENTS.describe


# ----------------------------------------------------------------------
# Resume-aware runner
# ----------------------------------------------------------------------

def _target_platform(name: str, request: ExperimentRequest) -> Platform:
    """The platform this run will actually build on.

    ``request.platform`` wins; otherwise the experiment's own declared
    default (``shared_cache`` runs on the shared paper platform, not
    the direct-mapped paper cache); otherwise the paper platform.
    """
    if request.platform is not None:
        return request.platform
    default = getattr(get_experiment(name), "default_platform", None)
    platform = default() if callable(default) else None
    return platform or Platform()


def _resolved(name: str, request: ExperimentRequest) -> ExperimentRequest:
    """``request`` with its platform resolved by :func:`_target_platform`."""
    return replace(request, platform=_target_platform(name, request))


def _run_identity(experiment: str, profile: str, request) -> dict:
    """Canonical identity of one experiment run: the experiment, the
    design profile and every identity field of the resolved request
    (live, or as recorded in a report)."""
    return {"experiment": experiment, "profile": profile, **canonical(request)}


def _expected_identity(name: str, request: ExperimentRequest) -> dict:
    return _run_identity(name, current_profile(), _resolved(name, request))


def experiment_report_path(
    run_dir: str | Path, name: str, request: ExperimentRequest
) -> Path:
    """Where one experiment's report persists under ``run_dir``.

    The filename carries the profile plus a short digest of the run's
    whole identity, so differently-configured runs of one experiment
    never collide on a single artifact.
    """
    tag = digest(_expected_identity(name, request))[:8]
    return Path(run_dir) / f"experiment-{name}--{current_profile()}--{tag}.json"


def load_experiment_report(
    run_dir: str | Path, name: str, request: ExperimentRequest
) -> ExperimentReport | None:
    """The persisted report answering this run, or ``None``.

    A report answers the run exactly when the identity it records
    (experiment, profile, request) equals the run's.
    """
    path = experiment_report_path(run_dir, name, request)
    if not path.exists():
        return None
    try:
        report = ExperimentReport.from_json(path.read_text())
    except (ValueError, KeyError, TypeError, ConfigurationError):
        return None  # corrupt, foreign or other-schema artifact: recompute
    recorded = _run_identity(report.experiment, report.profile, report.request)
    return None if diff(recorded, _expected_identity(name, request)) else report


def run_experiment(
    name: str,
    request: ExperimentRequest | None = None,
    run_dir: str | Path | None = None,
    resume: bool = True,
) -> ExperimentReport:
    """Run one registered experiment, persisting/resuming via ``run_dir``.

    With a run directory the report persists as JSON after the run,
    and (``resume=True``) a rerun whose persisted report records the
    same identity — experiment, profile and every identity field of the
    request — is served from disk without recomputing.  Rendering the
    resumed report is byte-identical to rendering the original
    (rendering is a pure function of the report).

    ``request.out`` writes the experiment's output files, fresh or
    resumed (only experiments declaring ``supports_out``; see
    :func:`validate_request`).
    """
    spec = get_experiment(name)
    request = request or ExperimentRequest()
    validate_request(name, request)
    report = None
    if run_dir is not None and resume:
        report = load_experiment_report(run_dir, name, request)
    if report is None:
        started = time.perf_counter()
        report = spec.build(request)
        report.wall_time = time.perf_counter() - started
        report.profile = current_profile()
        report.request = canonical(_resolved(name, request))
        if run_dir is not None:
            path = experiment_report_path(run_dir, name, request)
            write_artifact(path, report.to_json() + "\n")
    if request.out is not None:
        # Resumed runs re-create the files from the report's data.
        spec.write_outputs(report, request.out)
    return report


def _takes(spec: ExperimentSpec, name: str) -> bool:
    """Whether the experiment ``spec`` honours the request field ``name``."""
    if name == "out":
        return spec.supports_out
    return name in getattr(spec, "run_fields", ("platform",))


def validate_request(name: str, request: ExperimentRequest) -> None:
    """Reject request fields the experiment would silently ignore.

    The request must validate as a run (:meth:`RunSpec.validate
    <repro.study.spec.RunSpec.validate>`), and every run field outside
    the experiment's ``run_fields`` — and ``out`` unless it declares
    ``supports_out`` — must keep its default; otherwise
    :class:`~repro.errors.ConfigurationError` names the experiments
    that do take the field.  Last, the experiment's own
    ``check_request`` runs, if it declares one.  Called by
    :func:`run_experiment`; the CLI calls it up front so a rejected
    invocation produces no partial output.
    """
    spec = get_experiment(name)
    request.validate()
    default = ExperimentRequest()
    for field_name in (*(item.name for item in fields(RunSpec)), "out"):
        if _takes(spec, field_name) or (
            getattr(request, field_name) == getattr(default, field_name)
        ):
            continue
        takers = [
            other for other in available_experiments()
            if _takes(get_experiment(other), field_name)
        ]
        raise ConfigurationError(
            f"experiment {name!r} does not take {field_name}; "
            + (f"experiments that do: {', '.join(takers)}" if takers else "no experiment does")
        )
    check = getattr(spec, "check_request", None)
    if check is not None:
        check(request)


def render_experiment(
    name: str, report: ExperimentReport, out: str | Path | None = None
) -> str:
    """Render a report — fresh or resumed — as its table/figure text.

    For experiments with file outputs (``fig6``), ``out`` additionally
    writes them (CSV files re-created from the report's data, so a
    resumed run writes the same files) and appends the written paths.
    """
    spec = get_experiment(name)
    text = spec.render(report)
    if out is not None:
        if not spec.supports_out:
            raise ConfigurationError(
                f"experiment {name!r} writes no output files"
            )
        paths = spec.write_outputs(report, out)
        text += "\n\nCSV written to: " + ", ".join(str(p) for p in paths)
    return text


def effective_out(name: str, request: ExperimentRequest) -> str | Path | None:
    """The output directory a run will actually write to.

    ``request.out`` wins; file-writing experiments fall back to their
    own default (``fig6`` writes its CSVs to ``fig6_out``), everything
    else writes nothing.
    """
    if request.out is not None:
        return request.out
    spec = get_experiment(name)
    return getattr(spec, "default_out", None) if spec.supports_out else None


def run_and_render(
    name: str,
    request: ExperimentRequest | None = None,
    run_dir: str | Path | None = None,
) -> str:
    """Run (or resume) one experiment and render it — the text code
    path of ``python -m repro experiment``.

    ``request.out`` is the output directory for file-writing
    experiments (rejected for all others); ``None`` falls back to
    :func:`effective_out`'s default.  The files are written once, by
    :func:`render_experiment`, which also lists them.
    """
    request = request or ExperimentRequest()
    validate_request(name, request)
    report = run_experiment(name, replace(request, out=None), run_dir=run_dir)
    return render_experiment(name, report, out=effective_out(name, request))
