"""Top-level CLI: ``python -m repro <command>`` (``<command> --help``
lists its flags).

Listings and one-offs: ``info`` (case-study summary), ``strategies``,
``allocators``, ``models`` and ``experiments`` (the plugin
registries), ``lint`` (the repo's static-analysis rules RPL002 and
RPL004; exits 1 on findings), ``evaluate --schedule 3,2,3`` and
``timeline --schedule 2,2,2``.

Runs: ``search`` (the case-study schedule search), ``multicore``
(partition the case study across cores; ``--shared-cache``
co-optimizes the way allocation, ``--allocator``/``--apps`` scale to
many cores), ``batch`` (a synthesized suite) and ``simulate`` (a load
transient through the feedback loop of :mod:`repro.sim`) each
describe one :class:`~repro.study.RunSpec`.  Their run flags are
generated from its field metadata
(:func:`~repro.study.spec.add_run_flags`), read back by
:func:`~repro.study.spec.spec_from_args` and run through
:meth:`~repro.study.Study.from_spec`.  They share the engine flags:
``--json`` (the RunReport artifact on stdout; ``simulate`` prints its
byte-reproducible SimReport), ``--run-dir`` (persist reports; matching
reruns resume from disk), ``--workers``, ``--cache-dir`` and
``--progress`` (a live progress line on stderr,
automatic on a TTY).  ``experiment <name>`` regenerates one paper
artifact through the experiment registry with the same strategy,
platform and engine flags.

This module is argument parsing plus dispatch.  The table cells live
on the reports — :class:`~repro.study.RunReport` (schedule, app, core
and engine rows) and :class:`~repro.sim.SimReport` (timeline and
segment rows) — and the ``watch`` lines next to the progress line
(:func:`~repro.study.progress.watch_line`); a command's renderer only
picks the title, the columns and its units.

Service: ``serve`` runs the HTTP job queue over the same ``Study``
machinery, with one shared warm cache and run directory.  ``submit``
sends it a run — it takes every run flag (``--suite-size`` makes the
run a suite), and the server validates it exactly like a direct run —
and ``status``/``watch`` follow jobs.

The controller-design budget follows ``REPRO_PROFILE``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from .apps import build_case_study
from .core.report import format_seconds_ms, render_table
from .errors import ReproError
from .experiments.profiles import current_profile, design_options_for_profile
from .sched import PeriodicSchedule, enumerate_idle_feasible
from .sched.strategies.base import STRATEGIES
from .study.spec import RunSpec, add_run_flags, platform_from_args, spec_from_args
from .units import Clock
from .viz import render_schedule_timeline


def _parse_schedule(text: str) -> PeriodicSchedule:
    try:
        counts = tuple(int(part) for part in text.split(","))
        return PeriodicSchedule(counts)
    except (ValueError, ReproError) as exc:
        raise SystemExit(f"invalid schedule {text!r}: {exc}") from exc


def cmd_info(_args: argparse.Namespace) -> None:
    case = build_case_study()
    clock = Clock(20e6)
    rows = []
    for app in case.apps:
        rows.append(
            [
                app.name,
                f"{clock.cycles_to_us(app.wcets.cold_cycles):.2f} us",
                f"{clock.cycles_to_us(app.wcets.warm_cycles):.2f} us",
                f"{app.weight:.1f}",
                f"{app.spec.deadline * 1e3:.1f} ms",
                f"{app.max_idle * 1e3:.1f} ms",
            ]
        )
    print(
        render_table(
            ["App", "cold WCET", "warm WCET", "weight", "deadline", "max idle"],
            rows,
            title="DATE'18 case study",
        )
    )
    space = enumerate_idle_feasible(case.apps, case.clock)
    print(f"\nidle-feasible periodic schedules: {len(space)}")
    print(f"design profile: {current_profile()}")


def cmd_evaluate(args: argparse.Namespace) -> None:
    schedule = _parse_schedule(args.schedule)
    case = build_case_study()
    evaluator = case.evaluator(design_options_for_profile())
    evaluation = evaluator.evaluate(schedule)
    rows = []
    for app_eval, app in zip(evaluation.apps, case.apps):
        periods = ", ".join(f"{h * 1e6:.2f}" for h in app_eval.timing.periods)
        rows.append(
            [
                app_eval.app_name,
                f"[{periods}] us",
                format_seconds_ms(app_eval.settling, 2),
                f"{app_eval.performance:.3f}",
                "yes" if app_eval.settling <= app.spec.deadline else "NO",
            ]
        )
    print(
        render_table(
            ["App", "sampling periods", "settling", "P_i", "deadline met"],
            rows,
            title=f"schedule {schedule}",
        )
    )
    print(f"\nP_all = {evaluation.overall:.4f}  feasible: {evaluation.feasible}")


def _print_listing(registry, columns, footer) -> None:
    """One registry listing: a row per registered name — the name,
    ``columns`` (header -> cell of the entry) and the description."""
    *qualifier, noun = registry.kind.split()
    rows = [
        [name, *(cell(entry) for cell in columns.values()), registry.describe(entry)]
        for name, entry in registry.items()
    ]
    print(
        render_table(
            [noun, *columns, "description"],
            rows,
            title=" ".join(["registered", *qualifier, registry.plural]),
        )
    )
    print(f"\n{footer}")


def _options_name(entry) -> str:
    return entry.options_type.__name__


def cmd_strategies(_args: argparse.Namespace) -> None:
    _print_listing(
        STRATEGIES,
        {"options": _options_name},
        "register your own with @repro.sched.strategies.register_strategy",
    )


def cmd_allocators(_args: argparse.Namespace) -> None:
    from .multicore.allocators import ALLOCATORS

    _print_listing(
        ALLOCATORS,
        {"options": _options_name},
        "register your own with @repro.multicore.register_allocator",
    )


def cmd_models(_args: argparse.Namespace) -> None:
    from .wcet.models import WCET_MODELS

    _print_listing(
        WCET_MODELS,
        {},
        "register your own with @repro.wcet.register_wcet_model",
    )


def cmd_lint(args: argparse.Namespace) -> None:
    from pathlib import Path

    from .lint import (
        available_checkers,
        default_paths,
        render_json,
        render_text,
        run_lint,
    )
    from .lint.registry import CHECKERS

    if args.list:
        _print_listing(
            CHECKERS,
            {"rule": lambda checker: checker.code},
            "register your own with @repro.lint.register_checker",
        )
        return
    checkers = (
        tuple(part.strip() for part in args.checkers.split(",") if part.strip())
        if args.checkers
        else None
    )
    paths = [Path(p) for p in args.paths] if args.paths else default_paths()
    findings = run_lint(paths, checkers=checkers)
    names = list(checkers) if checkers is not None else list(available_checkers())
    if args.format == "json":
        print(render_json(findings, names))
    else:
        print(render_text(findings))
    if findings:
        raise SystemExit(1)


def cmd_experiments(_args: argparse.Namespace) -> None:
    from .experiments.registry import EXPERIMENTS

    _print_listing(
        EXPERIMENTS,
        {},
        "run one with `python -m repro experiment <name>`; "
        "register your own with @repro.experiments.register_experiment",
    )


def _progress_line(args: argparse.Namespace):
    """The progress renderer the flags ask for (or ``None``).

    Auto-enables on a TTY stderr; ``--progress`` forces it on for
    plain streams too, where the renderer itself falls back to
    one completion line per scenario instead of in-place redraws.
    """
    import sys as _sys

    from .study.progress import ProgressLine

    if getattr(args, "progress", False) or _sys.stderr.isatty():
        return ProgressLine()
    return None


def cmd_experiment(args: argparse.Namespace) -> None:
    from .experiments import ExperimentRequest, get_experiment, run_experiment
    from .experiments.registry import (
        effective_out,
        run_and_render,
        validate_request,
    )

    spec = get_experiment(args.name)  # fail fast before any output
    progress = _progress_line(args)
    if progress is not None:
        progress.set_prefix(args.name)
    # Partial platform flags fill unset fields from the experiment's
    # own default geometry (shared_cache needs ways to partition, so
    # e.g. --clock-mhz alone must not degrade it to the direct-mapped
    # paper cache).  design_options stays None (each experiment
    # resolves the profile itself), so CLI and library runs of one
    # experiment share their persisted --run-dir artifacts.
    shared = callable(getattr(spec, "default_platform", None))
    request = ExperimentRequest(
        **{**spec_from_args(args), "platform": platform_from_args(args, shared=shared)},
        workers=args.workers,
        cache_dir=args.cache_dir,
        out=args.out,
        on_event=progress,
    )
    validate_request(args.name, request)  # reject bad flags before output
    try:
        if args.json:
            # The runner writes the output files; --json keeps stdout pure.
            out = effective_out(args.name, request)
            report = run_experiment(
                args.name, replace(request, out=out), run_dir=args.run_dir
            )
            print(report.to_json())
        else:
            print(f"[profile: {current_profile()}]")
            print(run_and_render(args.name, request, run_dir=args.run_dir))
    finally:
        if progress is not None:
            progress.close()


def cmd_run(args: argparse.Namespace) -> None:
    """``search``/``simulate``/``batch``/``multicore``: the run the flags
    describe, as one :class:`~repro.study.RunSpec` through one
    :class:`~repro.study.Study`, rendered per command."""
    from .sched.engine import EngineOptions
    from .study import Study

    spec = RunSpec(**spec_from_args(args))
    name = "casestudy"
    if args.command == "simulate":
        from .sim import load_transient

        spec = replace(
            spec,
            dynamic=load_transient(
                spec.app_count,
                horizon=args.horizon,
                stress=args.stress,
                disturb_at=args.disturb_at,
                recover_at=args.recover_at,
                adapt=not args.no_adapt,
                adapt_strategy=args.adapt_strategy,
            ),
        )
        name = "casestudy-sim"
    engine_options = EngineOptions(workers=args.workers, cache_dir=args.cache_dir)
    study = Study.from_spec(
        spec, design_options_for_profile(), engine_options, args.run_dir, name
    )
    progress = _progress_line(args)
    try:
        reports = study.run(on_event=progress)
    finally:
        if progress is not None:
            progress.close()
    args.render(reports, args)


def _render_search(reports, args: argparse.Namespace) -> None:
    (report,) = reports
    if args.json:
        print(report.to_json())
        return
    stats = report.engine_stats
    print(f"strategy: {report.spec.strategy}  backend: {report.backend}")
    print(render_table(["App", "settling", "P_i"], report.app_rows(),
                       title=f"best schedule {report.schedule_cell()}"))
    print(f"best: {report.schedule_cell()}  P_all = {report.overall:.4f}")
    print(f"engine: {stats['n_computed']} computed, "
          f"{stats['n_memo_hits']} memo hits, {stats['n_disk_hits']} disk hits")


def _render_simulate(reports, args: argparse.Namespace) -> None:
    from .sim import SimReport

    (report,) = reports
    sim = SimReport.from_dict(report.sim)
    if args.json:
        # The SimReport is the simulation artifact: wall-clock-free, so
        # reruns with the same seed/scenario/platform are byte-identical
        # (the enclosing RunReport persists under --run-dir).
        print(sim.to_json())
        return
    adapt = "on" if sim.adapt else "off"
    print(render_table(["t (s)", "event", "detail"], sim.timeline_rows(),
                       title=f"simulated timeline (strategy {sim.strategy}, adapt={adapt})"))
    print()
    print(render_table(["interval (s)", "schedule", "demands", "feasible", "cost"],
                       sim.segment_rows(), title="piecewise-constant segments"))
    how = f"strategy {sim.adapt_strategy}" if sim.adapt else "adaptation disabled"
    print(f"\nmean cost = {sim.mean_cost:.4f} over {sim.horizon:g} s"
          f"  adaptations: {sim.n_adaptations} ({how})")
    print(f"engine: {report.engine_summary()}")


def _render_batch(reports, args: argparse.Namespace) -> None:
    if args.json:
        print(json.dumps([report.to_dict() for report in reports], indent=2, sort_keys=True))
        return
    headers = ["scenario", "apps", "space", "best schedule", "P_all",
               "computed", "disk hits", "wall time"]
    rows = [
        [report.scenario, str(len(report.apps)), str(report.n_space),
         report.schedule_cell(), f"{report.overall:.4f}",
         str(report.engine_stats["n_computed"]), str(report.engine_stats["n_disk_hits"]),
         f"{report.wall_time:.2f} s"]
        for report in reports
    ]
    if any(report.sim is not None for report in reports):
        headers.append("sim mean cost")
        for row, report in zip(rows, reports):
            sim = report.sim
            row.append(f"{sim['mean_cost']:.4f} ({len(sim['adaptations'])} adapt)"
                       if sim else "-")
    print(render_table(headers, rows, title=f"batch {reports[0].spec.strategy} search "
                       f"({reports[0].backend} backend, {args.workers} workers)"))
    total_wall = sum(r.wall_time for r in reports)
    print(f"\ntotal search time: {total_wall:.2f} s over {len(reports)} scenarios")


def _render_multicore(reports, args: argparse.Namespace) -> None:
    (report,) = reports
    if args.json:
        print(report.to_json())
        return
    cores = report.core_rows()
    shared = any(core.ways is not None for core in cores)
    rows = [
        [core.core, core.apps, *([str(core.ways)] if shared else []), core.schedule,
         ", ".join(f"{settling} ms" for settling in core.settling)]
        for core in cores
    ]
    cache_kind = "shared way-partitioned cache" if shared else "private caches"
    headers = ["core", "apps", *(["ways"] if shared else []), "schedule", "settling"]
    print(render_table(headers, rows,
                       title=f"multicore co-design ({args.n_cores} cores, {cache_kind}, "
                       f"{report.backend} backend)"))
    print(f"\nP_all = {report.overall:.4f}  cores used: {len(cores)}")
    if report.spec.allocator is not None:
        n_partitions = report.search_stats.get("n_partitions")
        streamed = f" ({n_partitions} partition(s) evaluated)" if n_partitions else ""
        print(f"allocator: {report.spec.allocator}{streamed}")
    print(f"engine: {report.engine_summary()}")


def cmd_serve(args: argparse.Namespace) -> None:
    import asyncio

    from .serve.server import run_server

    try:
        asyncio.run(
            run_server(
                host=args.host,
                port=args.port,
                run_dir=args.run_dir,
                cache_dir=args.cache_dir,
                max_jobs=args.jobs,
                engine_workers=args.workers,
                queue_size=args.queue_size,
                job_timeout=args.job_timeout,
            )
        )
    except KeyboardInterrupt:
        # Platforms without loop signal handlers: the drain in
        # run_server's finally block already ran on the way out.
        pass


def cmd_submit(args: argparse.Namespace) -> None:
    from .serve.client import ServeClient
    from .serve.jobs import JobSpec

    # Deliberately *not* validated here — the server owns validation,
    # so an unknown strategy fails over HTTP with the registry message.
    spec = JobSpec(**spec_from_args(args), resume=not args.no_resume)
    record = ServeClient(args.server).submit(spec)
    if args.json:
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return
    print(
        f"submitted {record.id} ({record.state}); follow it with "
        f"`python -m repro watch {record.id} --server {args.server}`"
    )


def cmd_status(args: argparse.Namespace) -> None:
    from .serve.client import ServeClient

    client = ServeClient(args.server)
    if args.job is None:
        records = client.jobs()
        if args.json:
            listing = [record.to_dict(include_reports=False) for record in records]
            print(json.dumps(listing, indent=2, sort_keys=True))
            return
        rows = [
            [record.id, record.state, record.spec.kind, record.spec.strategy or "default",
             record.error or ""]
            for record in records
        ]
        print(render_table(["job", "state", "kind", "strategy", "error"], rows,
                           title=f"jobs at {client.base_url}"))
        return
    record = client.job(args.job)
    if args.json:
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return
    print(f"{record.id}: {record.state}")
    if record.error:
        print(f"error: {record.error}")
    for report in record.reports or []:
        print(f"  {report['scenario']}: P_all = {report['overall']:.4f}"
              f"  feasible: {report['feasible']}")


def cmd_watch(args: argparse.Namespace) -> None:
    from .errors import ServeError
    from .serve.client import ServeClient
    from .serve.wire import TERMINAL_STATES, StatusMessage
    from .study.progress import watch_line

    final_state = None
    final_error = None
    for message in ServeClient(args.server).watch(args.job):
        if args.json:
            print(message.to_json(), flush=True)
        elif isinstance(message, StatusMessage):
            line = f"[{message.job}] {message.state}"
            if message.error:
                line += f": {message.error}"
            print(line, flush=True)
        else:
            print(f"[{message.job}] {watch_line(message.event)}", flush=True)
        if isinstance(message, StatusMessage):
            final_state, final_error = message.state, message.error
    if final_state == "failed":
        raise ServeError(f"{args.job} failed: {final_error}")
    if final_state not in TERMINAL_STATES:
        raise ServeError(
            f"stream ended before {args.job} finished (server draining?)"
        )


def cmd_timeline(args: argparse.Namespace) -> None:
    schedule = _parse_schedule(args.schedule)
    case = build_case_study()
    print(
        render_schedule_timeline(
            schedule, [app.wcets for app in case.apps], case.clock
        )
    )


#: Run command -> (help, the RunSpec fields it takes as flags, flag
#: defaults that differ from the field defaults, report renderer).
_RUN_COMMANDS = {
    "search": ("schedule-space search", ("strategy", "starts", "platform"), {}, _render_search),
    "simulate": (
        "simulate feedback scheduling under a load transient",
        ("strategy", "platform"),
        {},
        _render_simulate,
    ),
    "batch": (
        "sweep a suite of synthesized scenarios",
        ("strategy", "suite_size", "seed", "n_cores", "jitter_platform", "shared_cache",
         "random_dynamic", "allocator", "platform"),
        {},
        _render_batch,
    ),
    "multicore": (
        "partition the case study across private-cache cores",
        ("strategy", "n_cores", "max_count_per_core", "shared_cache", "n_apps", "allocator",
         "platform"),
        {"n_cores": 2},
        _render_multicore,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Cache-aware task scheduling for maximizing control performance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="case-study summary")
    evaluate = sub.add_parser("evaluate", help="evaluate one schedule")
    evaluate.add_argument("--schedule", required=True, help="e.g. 3,2,3")
    sub.add_parser("strategies", help="list registered search strategies")
    sub.add_parser("allocators", help="list registered partition allocators")
    sub.add_parser("models", help="list registered WCET models")
    sub.add_parser("experiments", help="list registered experiments")

    lint = sub.add_parser(
        "lint", help="run the repo's AST invariant checkers (rules RPL002, RPL004)"
    )
    lint.add_argument("paths", nargs="*", help="files/directories to check (default: src/)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format (json is the CI artifact)")
    lint.add_argument("--checkers", default=None,
                      help="comma-separated checker names (default: all registered)")
    lint.add_argument("--list", action="store_true",
                      help="list the registered checkers and exit")

    experiment = sub.add_parser(
        "experiment", help="regenerate one paper artifact (resumable via --run-dir)"
    )
    experiment.add_argument(
        "name", help="registered experiment (see `python -m repro experiments`)"
    )
    experiment.add_argument("--out", default=None, help="output directory for experiments "
                            "that write files (fig6 CSVs; rejected elsewhere)")
    add_run_flags(experiment, ("strategy", "max_count_per_core", "platform"))
    _add_engine_arguments(experiment)

    timeline = sub.add_parser("timeline", help="render a schedule timeline")
    timeline.add_argument("--schedule", required=True, help="e.g. 2,2,2")

    for command, (help, names, defaults, render) in _RUN_COMMANDS.items():
        run = sub.add_parser(command, help=help)
        add_run_flags(run, names, **defaults)
        _add_engine_arguments(run)
        run.set_defaults(render=render)
        if command == "simulate":
            _add_simulate_arguments(run)

    serve = sub.add_parser(
        "serve", help="run the search service (HTTP job queue, shared warm cache)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765, help="bind port (0 = ephemeral)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="jobs executing concurrently (executor threads)")
    serve.add_argument("--workers", type=int, default=0,
                       help="evaluation worker processes per job (0/1 = serial)")
    serve.add_argument("--queue-size", type=int, default=64,
                       help="max queued jobs before submissions are rejected (HTTP 429)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       help="per-job wall-clock budget in seconds (default: unlimited)")
    serve.add_argument("--run-dir", default=".repro-serve", help="service state root: job "
                       "ledger, shared report run dir and (unless --cache-dir) the shared "
                       "evaluation cache")
    serve.add_argument("--cache-dir", default=None,
                       help="shared persistent evaluation cache (default: RUN_DIR/cache)")

    submit = sub.add_parser("submit", help="submit a run to a running server (the run "
                            "commands' flags; --suite-size makes it a batch suite)")
    _add_server_argument(submit)
    add_run_flags(
        submit,
        tuple(item.name for item in fields(RunSpec) if item.metadata["cli"]),
        suite_size=None,
    )
    submit.add_argument("--no-resume", action="store_true",
                        help="recompute even if the server holds a matching report")
    submit.add_argument("--json", action="store_true",
                        help="print the submitted job record JSON instead of a summary")

    status = sub.add_parser("status", help="job status from a running server")
    status.add_argument("job", nargs="?", default=None, help="job id (omit to list all jobs)")
    _add_server_argument(status)
    status.add_argument("--json", action="store_true", help="print the record JSON")

    watch = sub.add_parser("watch", help="stream a job's progress events until it finishes")
    watch.add_argument("job", help="job id (see `python -m repro status`)")
    _add_server_argument(watch)
    watch.add_argument("--json", action="store_true",
                       help="print the raw NDJSON wire messages instead of summaries")
    return parser


_COMMANDS = {
    "info": cmd_info,
    "evaluate": cmd_evaluate,
    "strategies": cmd_strategies,
    "allocators": cmd_allocators,
    "models": cmd_models,
    "experiments": cmd_experiments,
    "lint": cmd_lint,
    "experiment": cmd_experiment,
    "timeline": cmd_timeline,
    **{command: cmd_run for command in _RUN_COMMANDS},
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "watch": cmd_watch,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """How a run command computes and reports (never what it computes)."""
    parser.add_argument("--json", action="store_true",
                        help="print the structured RunReport JSON to stdout instead of tables")
    parser.add_argument("--run-dir", default=None, help="persist per-scenario RunReport JSON "
                        "artifacts here (matching reruns resume from disk)")
    parser.add_argument("--workers", type=int, default=0,
                        help="evaluation worker processes (0/1 = serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent evaluation-cache directory (warm-starts reruns)")
    parser.add_argument(
        "--progress",
        action="store_true",
        help="emit progress on stderr even when it is not a TTY "
        "(in-place line on a TTY — the automatic default there — "
        "one line per finished scenario / computed batch otherwise)",
    )


def _add_simulate_arguments(parser: argparse.ArgumentParser) -> None:
    """The load transient ``simulate`` plays (its DynamicProfile)."""
    for flag, kwargs in (
        ("--horizon", dict(type=float, default=1.0, help="simulated duration in seconds")),
        ("--stress", dict(
            type=float,
            default=1.46,
            help="demand factor of the overload burst (1.0 = nominal; the default "
            "pushes the case study's static optimum past its scaled idle budget)",
        )),
        ("--disturb-at", dict(
            type=float, default=None,
            help="overload onset in seconds (default: 25%% of the horizon)",
        )),
        ("--recover-at", dict(
            type=float, default=None,
            help="recovery instant in seconds (default: 70%% of the horizon)",
        )),
        ("--adapt-strategy", dict(
            default=None,
            help="registered strategy the feedback loop re-invokes on load "
            "changes (default: online)",
        )),
        ("--no-adapt", dict(
            action="store_true",
            help="hold the static optimum for the whole horizon (the baseline "
            "the feedback experiment compares against)",
        )),
    ):
        parser.add_argument(flag, **kwargs)


def _add_server_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--server", default="http://127.0.0.1:8765",
                        help="base URL of the running `python -m repro serve`")


if __name__ == "__main__":
    sys.exit(main())
