"""Pluggable experiment registry — the paper-artifact front door.

An *experiment* is the unit of extensibility of the artifact layer: it
receives an :class:`ExperimentRequest` (platform, strategy, engine
configuration, progress callback) and returns a structured
:class:`~repro.experiments.report.ExperimentReport`.  Experiments
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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Protocol, runtime_checkable

from ..control.design import DesignOptions
from ..errors import ConfigurationError
from ..identity import NON_IDENTITY, canonical, diff, digest
from ..platform import Platform
from ..registry import Registry
from ..study.report import write_artifact
from .profiles import current_profile
from .report import ExperimentReport


@dataclass(frozen=True)
class ExperimentRequest:
    """Run-time inputs of one experiment, CLI flags made explicit.

    Parameters
    ----------
    design_options:
        Controller-design budget; ``None`` uses the ``REPRO_PROFILE``
        profile (the CLI path).
    platform:
        Execution platform to rebuild the case study on; ``None`` is
        the paper platform.
    strategy:
        Registered search strategy for search-backed experiments;
        ``None`` keeps each experiment's default.  Experiments that
        run no search ignore it.
    workers / cache_dir:
        Engine configuration for search-backed experiments (worker
        processes, persistent evaluation cache).  Like ``out`` and
        ``on_event`` they change how fast or where a run happens, never
        what it computes, so they are no part of the run's identity.
    max_count_per_core:
        Burst-length cap per core for the multicore experiments.
    out:
        Output directory for experiments that write files
        (only ``fig6`` — see :attr:`ExperimentSpec.supports_out`).
    on_event:
        Receives the typed progress events while searches run: the
        study events (:mod:`repro.study.events`) of the scenarios an
        experiment runs through a :class:`~repro.study.Study`, the bare
        engine events (:mod:`repro.sched.engine.events`) of a warm
        engine it holds itself (the ``multicore`` sweep, ``search``'s
        exhaustive sweep).
    """

    design_options: DesignOptions | None = None
    platform: Platform | None = None
    strategy: str | None = None
    workers: int = field(default=0, metadata=NON_IDENTITY)
    cache_dir: str | Path | None = field(default=None, metadata=NON_IDENTITY)
    max_count_per_core: int = 6
    out: str | Path | None = field(default=None, metadata=NON_IDENTITY)
    on_event: Callable | None = field(
        default=None, compare=False, metadata=NON_IDENTITY
    )


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

    Optional attributes: ``supports_strategy`` marks experiments that
    honor :attr:`ExperimentRequest.strategy` (builtin: ``multicore``,
    ``shared_cache``; requesting a strategy elsewhere fails fast
    instead of being silently ignored), and ``default_platform`` — a
    zero-argument callable — declares the platform an experiment runs
    on when the request names none (builtin: ``shared_cache`` uses
    :func:`~repro.platform.shared_paper_platform`).
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


def _expected_platform(name: str, request: ExperimentRequest) -> dict:
    """Fingerprint of :func:`_target_platform`."""
    return _target_platform(name, request).fingerprint()


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

    ``--out``-style file outputs are only supported by experiments
    declaring ``supports_out`` (builtin: ``fig6``); requesting one
    elsewhere raises :class:`~repro.errors.ConfigurationError`.
    """
    spec = get_experiment(name)
    request = request or ExperimentRequest()
    validate_request(name, request)
    if run_dir is not None and resume:
        existing = load_experiment_report(run_dir, name, request)
        if existing is not None:
            if request.out is not None:
                spec.write_outputs(existing, request.out)
            return existing
    started = time.perf_counter()
    report = spec.build(request)
    report.wall_time = time.perf_counter() - started
    report.profile = current_profile()
    report.request = canonical(_resolved(name, request))
    if run_dir is not None:
        path = experiment_report_path(run_dir, name, request)
        write_artifact(path, report.to_json() + "\n")
    if request.out is not None:
        # An explicitly requested output directory is honored here, so
        # library callers get their files too (resumed runs re-create
        # them from the report's data, identically).
        spec.write_outputs(report, request.out)
    return report


def _supporting(flag: str) -> str:
    """Comma-joined names of the experiments declaring ``flag``."""
    return ", ".join(
        name
        for name in available_experiments()
        if getattr(get_experiment(name), flag, False)
    )


def validate_request(name: str, request: ExperimentRequest) -> None:
    """Reject request fields the experiment would silently ignore.

    Raises :class:`~repro.errors.ConfigurationError` when ``out`` or
    ``strategy`` is set for an experiment that does not consume it.
    Called by :func:`run_experiment`; the CLI calls it up front so a
    rejected invocation produces no partial output.
    """
    spec = get_experiment(name)
    if request.out is not None and not getattr(spec, "supports_out", False):
        raise ConfigurationError(
            f"experiment {name!r} writes no output files; "
            "--out is only supported by: " + _supporting("supports_out")
        )
    if request.strategy is not None and not getattr(
        spec, "supports_strategy", False
    ):
        raise ConfigurationError(
            f"experiment {name!r} runs a fixed search; "
            "--strategy is only supported by: "
            + _supporting("supports_strategy")
        )
    default_cap = ExperimentRequest().max_count_per_core
    if request.max_count_per_core != default_cap and not getattr(
        spec, "supports_max_count", False
    ):
        raise ConfigurationError(
            f"experiment {name!r} has no per-core schedule spaces; "
            "--max-count-per-core is only supported by: "
            + _supporting("supports_max_count")
        )


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
        if not getattr(spec, "supports_out", False):
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
    if getattr(spec, "supports_out", False):
        return getattr(spec, "default_out", None)
    return None


def run_and_render(
    name: str,
    request: ExperimentRequest | None = None,
    run_dir: str | Path | None = None,
) -> str:
    """Run (or resume) one experiment and render it — the text code
    path of ``python -m repro experiment``.

    ``request.out`` is the output directory for file-writing
    experiments (rejected for all others); ``None`` falls back to
    :func:`effective_out`'s default.
    """
    request = request or ExperimentRequest()
    report = run_experiment(name, request, run_dir=run_dir)
    return render_experiment(name, report, out=effective_out(name, request))
