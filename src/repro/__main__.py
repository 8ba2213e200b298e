"""Top-level CLI: ``python -m repro <command>``.

Commands
--------
``info``
    Case-study summary: Table I WCETs, Table II parameters, space size.
``evaluate --schedule 3,2,3``
    Evaluate one periodic schedule (timing, per-app settling, P_all).
``strategies``
    List the registered search strategies (the strategy registry).
``allocators``
    List the registered partition allocators (the allocator registry).
``models``
    List the registered WCET models (the platform registry).
``experiments``
    List the registered paper-artifact experiments (the experiment
    registry).
``experiment <name> [--json] [--run-dir DIR] [--out DIR]``
    Regenerate one paper artifact through the experiment registry:
    structured, schema-versioned ``ExperimentReport`` JSON with
    ``--json``, persisted and resumed under ``--run-dir``.
``lint [--format json] [--checkers a,b] [--list] [paths...]``
    Run the repo-specific static-analysis suite (determinism,
    registry contracts, exception hygiene; rules
    RPL002-RPL004 via the lint-checker registry).  Exits 1 on findings.
``search [--strategy hybrid] [--starts 4,2,2 1,2,1]``
    Run a schedule-space search on the case study and print the result.
``timeline --schedule 2,2,2``
    Render the schedule's timing diagram (paper Figs. 2/4).
``simulate [--stress 1.46] [--horizon 1.0] [--no-adapt]``
    Simulate feedback scheduling on the case study: a load transient
    plays through the discrete-event simulator (:mod:`repro.sim`) and
    the feedback loop re-optimizes on every load change through the
    ``online`` strategy (``--adapt-strategy`` picks another,
    ``--no-adapt`` holds the static optimum).  Shares the search flag
    set; ``--json`` prints the SimReport, which is byte-identical
    across reruns with the same seed/scenario/platform.
``batch [--suite-size 4] [--strategy hybrid] [--cores K]``
    Sweep a suite of synthesized scenarios through the search engine
    (``--cores >= 2`` makes every scenario a multicore co-design,
    ``--jitter-platform`` draws a fresh cache/clock per scenario,
    ``--dynamic`` gives every scenario a synthesized load transient
    simulated after the search).
``multicore [--cores 2] [--strategy exhaustive] [--shared-cache]``
    Partition the case study across cores and jointly optimize the
    partition and the per-core schedules — private caches by default,
    or one way-partitioned shared cache with ``--shared-cache`` (the
    way allocation is then co-optimized too).  ``--allocator`` picks a
    registered partition allocator (``exhaustive`` ground truth, or
    the ``greedy``/``scored`` heuristics for many cores); ``--apps N``
    replicates the case-study workload so ``--cores`` can exceed the
    three paper applications.
``serve [--host --port --jobs --workers --queue-size --run-dir]``
    Run the search service: a long-lived asyncio HTTP job queue over
    the same ``Study`` machinery, with one shared persistent
    evaluation cache and run directory across all jobs (every job
    warm-starts from every prior job).  SIGINT/SIGTERM drain
    gracefully; a restarted server resumes its ledger from disk.
``submit [--server URL] [--strategy hybrid] [--starts 4,2,2] ...``
    Submit a search job to a running server; validation happens
    server-side (an unknown strategy fails over HTTP with the
    registered list, exit code 2 like a direct run).
``status [JOB] [--server URL] [--json]``
    One job's record (or the full job listing without JOB).
``watch JOB [--server URL] [--json]``
    Stream a job's progress events live until it finishes
    (``--json`` prints the raw NDJSON wire messages); a failed job
    exits 2 with its error.

``search``, ``batch`` and ``multicore`` all run through the unified
:class:`repro.study.Study` facade and share one flag set:
``--strategy`` picks any registered search strategy, ``--json``
prints the structured :class:`~repro.study.RunReport` artifact(s) to
stdout instead of tables, ``--run-dir DIR`` persists every report as
JSON (matching reruns resume from disk), ``--workers N`` evaluates
candidates on worker processes and ``--cache-dir DIR`` persists every
evaluation so reruns warm-start.  The platform flags — ``--wcet-model``,
``--cache-sets``, ``--cache-ways``, ``--miss-cycles``,
``--clock-mhz`` — rebuild the problem on a different execution
platform (see ``python -m repro models``); the platform is recorded in
every report and keyed into the persistent evaluation cache.

Long runs are observable: ``batch`` and ``experiment`` render a live
progress line on stderr from the engines' typed progress events
(automatic on a TTY; ``--progress`` forces it, e.g. under a pager).

The controller-design budget follows ``REPRO_PROFILE``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .apps import build_case_study
from .core.report import format_seconds_ms, render_table
from .errors import ReproError
from .experiments.profiles import current_profile, design_options_for_profile
from .sched import PeriodicSchedule, enumerate_idle_feasible
from .sched.strategies.base import STRATEGIES
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
    request = ExperimentRequest(
        platform=_platform_from_args(
            args, shared=callable(getattr(spec, "default_platform", None))
        ),
        strategy=args.strategy,
        workers=args.workers,
        cache_dir=args.cache_dir,
        max_count_per_core=args.max_count_per_core,
        out=args.out,
        on_event=progress,
    )
    validate_request(args.name, request)  # reject bad flags before output
    try:
        if args.json:
            report = run_experiment(args.name, request, run_dir=args.run_dir)
            out = effective_out(args.name, request)
            if out is not None:
                # Still write the output files; --json keeps stdout pure.
                get_experiment(args.name).write_outputs(report, out)
            print(report.to_json())
        else:
            print(f"[profile: {current_profile()}]")
            print(run_and_render(args.name, request, run_dir=args.run_dir))
    finally:
        if progress is not None:
            progress.close()


def _platform_from_args(
    args: argparse.Namespace, shared: bool = False
):
    """The :class:`~repro.platform.Platform` the flags describe.

    ``None`` when every flag is at its default and no shared cache is
    requested — the paper platform, leaving digests/reports identical
    to runs that never declared a platform.  ``--shared-cache`` without
    explicit geometry defaults to
    :func:`~repro.platform.shared_paper_platform` (the paper capacity
    as 32 sets x 4 ways), since the paper's direct-mapped cache has no
    ways to partition.
    """
    from dataclasses import replace

    from .cache.config import CacheConfig
    from .platform import Platform, shared_paper_platform

    flags = (
        args.wcet_model,
        args.cache_sets,
        args.cache_ways,
        args.miss_cycles,
        args.clock_mhz,
    )
    if not shared and all(value is None for value in flags):
        return None
    default = shared_paper_platform().cache if shared else CacheConfig()
    cache = replace(
        default,
        n_sets=args.cache_sets if args.cache_sets is not None else default.n_sets,
        associativity=(
            args.cache_ways if args.cache_ways is not None else default.associativity
        ),
        miss_cycles=(
            args.miss_cycles if args.miss_cycles is not None else default.miss_cycles
        ),
    )
    clock = Clock(args.clock_mhz * 1e6) if args.clock_mhz is not None else Clock(20e6)
    return Platform(
        cache=cache, clock=clock, wcet_model=args.wcet_model or "static"
    )


def _engine_options(args: argparse.Namespace):
    from .sched.engine import EngineOptions

    return EngineOptions(
        workers=args.workers,
        cache_dir=args.cache_dir,
        eval_backend=args.eval_backend,
    )


def _run_study(study, args: argparse.Namespace):
    """Run a study with the live progress line the flags ask for."""
    progress = _progress_line(args)
    try:
        return study.run(on_event=progress)
    finally:
        if progress is not None:
            progress.close()


def _format_schedule_counts(counts: list[int]) -> str:
    return "(" + ", ".join(str(m) for m in counts) + ")"


def _format_report_schedule(report) -> str:
    """One cell for the best schedule — per-core list for multicore."""
    if report.cores is not None:
        return " + ".join(
            _format_schedule_counts(core["schedule"]) for core in report.cores
        )
    return _format_schedule_counts(report.best_schedule)


def cmd_search(args: argparse.Namespace) -> None:
    from .study import Study

    starts = [_parse_schedule(s) for s in args.starts] if args.starts else None
    study = Study.from_case_study(
        design_options_for_profile(),
        strategy=args.strategy,
        starts=starts,
        platform=_platform_from_args(args),
        engine_options=_engine_options(args),
        run_dir=args.run_dir,
    )
    report = _run_study(study, args)[0]
    if args.json:
        print(report.to_json())
        return
    print(f"strategy: {report.strategy}  backend: {report.backend}")
    rows = [
        [
            app["name"],
            format_seconds_ms(app["settling"], 2),
            f"{app['performance']:.3f}",
        ]
        for app in report.apps
    ]
    print(
        render_table(
            ["App", "settling", "P_i"],
            rows,
            title=f"best schedule {_format_report_schedule(report)}",
        )
    )
    print(
        f"best: {_format_report_schedule(report)}  P_all = {report.overall:.4f}"
    )
    stats = report.engine_stats
    print(
        f"engine: {stats['n_computed']} computed, "
        f"{stats['n_memo_hits']} memo hits, {stats['n_disk_hits']} disk hits"
    )


def cmd_simulate(args: argparse.Namespace) -> None:
    from .sim import SimReport, load_transient
    from .study import Study

    platform = _platform_from_args(args)
    case = build_case_study(platform=platform)
    profile = load_transient(
        len(case.apps),
        horizon=args.horizon,
        stress=args.stress,
        disturb_at=args.disturb_at,
        recover_at=args.recover_at,
        adapt=not args.no_adapt,
        adapt_strategy=args.adapt_strategy,
    )
    study = Study.from_case_study(
        design_options_for_profile(),
        strategy=args.strategy,
        platform=platform,
        dynamic=profile,
        engine_options=_engine_options(args),
        run_dir=args.run_dir,
        name="casestudy-sim",
    )
    report = _run_study(study, args)[0]
    sim = SimReport.from_dict(report.sim)
    if args.json:
        # The SimReport is the simulation artifact: wall-clock-free, so
        # reruns with the same seed/scenario/platform are byte-identical
        # (the enclosing RunReport persists under --run-dir).
        print(sim.to_json())
        return
    timeline_rows = []
    for entry in sim.timeline:
        kind = entry["event"]
        if kind == "ScheduleSwitch":
            detail = (
                f"-> {tuple(entry['counts'])} ({entry['reason']})"
            )
        elif kind == "LoadDisturbance":
            detail = "demands " + str(tuple(entry["demands"]))
        elif kind == "PlantModeChange":
            detail = f"{entry['app']} x{entry['factor']:g}"
        else:
            detail = entry.get("app", "")
        timeline_rows.append([f"{entry['time']:.4f}", kind, detail])
    print(
        render_table(
            ["t (s)", "event", "detail"],
            timeline_rows,
            title=f"simulated timeline (strategy {sim.strategy}, "
            f"adapt={'on' if sim.adapt else 'off'})",
        )
    )
    segment_rows = [
        [
            f"{segment['start']:.4f}-{segment['end']:.4f}",
            _format_schedule_counts(segment["schedule"]),
            "(" + ", ".join(f"{d:g}" for d in segment["demands"]) + ")",
            "yes" if segment["feasible"] else "no",
            f"{segment['cost']:.4f}",
        ]
        for segment in sim.segments
    ]
    print()
    print(
        render_table(
            ["interval (s)", "schedule", "demands", "feasible", "cost"],
            segment_rows,
            title="piecewise-constant segments",
        )
    )
    print(
        f"\nmean cost = {sim.mean_cost:.4f} over {sim.horizon:g} s"
        f"  adaptations: {sim.n_adaptations}"
        + (
            f" (strategy {sim.adapt_strategy})"
            if sim.adapt
            else " (adaptation disabled)"
        )
    )
    stats = report.engine_stats
    print(
        f"engine: {stats['n_requested']} requested = "
        f"{stats['n_computed']} computed + {stats['n_memo_hits']} memo + "
        f"{stats['n_disk_hits']} disk + {stats['n_duplicates']} duplicate"
    )


def cmd_batch(args: argparse.Namespace) -> None:
    from .study import Study

    study = Study.from_suite(
        args.suite_size,
        seed=args.seed,
        strategy=args.strategy,
        design_options=design_options_for_profile(),
        n_cores=args.cores,
        platform=_platform_from_args(args, shared=args.shared_cache),
        jitter_platform=args.jitter_platform,
        shared_cache=args.shared_cache,
        allocator=args.allocator,
        dynamic=args.dynamic,
        engine_options=_engine_options(args),
        run_dir=args.run_dir,
    )
    reports = _run_study(study, args)
    if args.json:
        print(
            json.dumps(
                [report.to_dict() for report in reports], indent=2, sort_keys=True
            )
        )
        return
    dynamic = any(report.sim is not None for report in reports)
    rows = []
    for report in reports:
        stats = report.engine_stats
        row = [
            report.scenario,
            str(report.n_apps),
            str(report.n_space),
            _format_report_schedule(report),
            f"{report.overall:.4f}",
            str(stats["n_computed"]),
            str(stats["n_disk_hits"]),
            f"{report.wall_time:.2f} s",
        ]
        if dynamic:
            sim = report.sim or {}
            row.append(
                f"{sim['mean_cost']:.4f} ({len(sim['adaptations'])} adapt)"
                if sim
                else "-"
            )
        rows.append(row)
    headers = ["scenario", "apps", "space", "best schedule", "P_all",
               "computed", "disk hits", "wall time"]
    if dynamic:
        headers.append("sim mean cost")
    print(
        render_table(
            headers,
            rows,
            title=f"batch {reports[0].strategy} search "
                  f"({reports[0].backend} backend, {args.workers} workers)",
        )
    )
    total_wall = sum(r.wall_time for r in reports)
    print(f"\ntotal search time: {total_wall:.2f} s over {len(reports)} scenarios")


def cmd_multicore(args: argparse.Namespace) -> None:
    from .study import Study

    study = Study.from_case_study(
        design_options_for_profile(),
        strategy=args.strategy,
        n_cores=args.cores,
        max_count_per_core=args.max_count_per_core,
        platform=_platform_from_args(args, shared=args.shared_cache),
        shared_cache=args.shared_cache,
        allocator=args.allocator,
        n_apps=args.apps,
        engine_options=_engine_options(args),
        run_dir=args.run_dir,
    )
    report = _run_study(study, args)[0]
    if args.json:
        print(report.to_json())
        return
    settling = {app["name"]: app["settling"] for app in report.apps}
    # --cores 1 degenerates to the single-core search, whose report has
    # a best schedule instead of a partition: render it as one core.
    cores = report.cores or [
        {
            "apps": [app["name"] for app in report.apps],
            "schedule": report.best_schedule,
        }
    ]
    shared = any(core.get("ways") is not None for core in cores)
    rows = []
    for core_index, core in enumerate(cores):
        row = [
            str(core_index),
            ", ".join(core["apps"]),
            _format_schedule_counts(core["schedule"]),
            ", ".join(
                f"{settling[name] * 1e3:.2f} ms" for name in core["apps"]
            ),
        ]
        if shared:
            row.insert(2, str(core["ways"]))
        rows.append(row)
    headers = ["core", "apps", "schedule", "settling"]
    if shared:
        headers.insert(2, "ways")
    cache_kind = "shared way-partitioned cache" if shared else "private caches"
    print(
        render_table(
            headers,
            rows,
            title=f"multicore co-design ({args.cores} cores, {cache_kind}, "
                  f"{report.backend} backend)",
        )
    )
    print(f"\nP_all = {report.overall:.4f}  cores used: {len(cores)}")
    if report.allocator is not None:
        n_partitions = report.search_stats.get("n_partitions")
        streamed = (
            f" ({n_partitions} partition(s) evaluated)"
            if n_partitions
            else ""
        )
        print(f"allocator: {report.allocator}{streamed}")
    stats = report.engine_stats
    print(
        f"engine: {stats['n_requested']} requested = "
        f"{stats['n_computed']} computed + {stats['n_memo_hits']} memo + "
        f"{stats['n_disk_hits']} disk + {stats['n_duplicates']} duplicate"
    )


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


def _submit_spec(args: argparse.Namespace):
    """The :class:`~repro.serve.JobSpec` the submit flags describe.

    Deliberately *not* validated here — the server owns validation, so
    an unknown strategy fails over HTTP with the registry message.
    """
    from .serve.jobs import JobSpec

    platform = _platform_from_args(args, shared=args.shared_cache)
    starts = (
        tuple(_parse_schedule(text).counts for text in args.starts)
        if args.starts
        else None
    )
    return JobSpec(
        kind="suite" if args.suite_size is not None else "search",
        strategy=args.strategy,
        starts=starts,
        n_starts=args.n_starts,
        seed=args.seed,
        n_cores=args.cores,
        max_count_per_core=args.max_count_per_core,
        shared_cache=args.shared_cache,
        allocator=args.allocator,
        suite_size=args.suite_size if args.suite_size is not None else 4,
        platform=platform.fingerprint() if platform is not None else None,
        eval_backend=args.eval_backend,
        resume=not args.no_resume,
    )


def cmd_submit(args: argparse.Namespace) -> None:
    from .serve.client import ServeClient

    record = ServeClient(args.server).submit(_submit_spec(args))
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
            print(
                json.dumps(
                    [r.to_dict(include_reports=False) for r in records],
                    indent=2,
                    sort_keys=True,
                )
            )
            return
        rows = [
            [
                record.id,
                record.state,
                record.spec.kind,
                record.spec.strategy or "default",
                record.error or "",
            ]
            for record in records
        ]
        print(
            render_table(
                ["job", "state", "kind", "strategy", "error"],
                rows,
                title=f"jobs at {client.base_url}",
            )
        )
        return
    record = client.job(args.job)
    if args.json:
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return
    print(f"{record.id}: {record.state}")
    if record.error:
        print(f"error: {record.error}")
    for report in record.reports or []:
        print(
            f"  {report['scenario']}: P_all = {report['overall']:.4f}"
            f"  feasible: {report['feasible']}"
        )


def _render_watch_event(event) -> str:
    """One human-readable line per streamed study/engine event."""
    from .sched.engine.events import BatchCompleted, BatchSubmitted
    from .study.events import (
        ScenarioFinished,
        ScenarioProgress,
        ScenarioResumed,
        ScenarioStarted,
        SimulationFinished,
        SimulationProgress,
    )

    if isinstance(event, ScenarioStarted):
        return (
            f"scenario {event.scenario} started "
            f"({event.strategy or 'default'}, {event.n_cores} core(s))"
        )
    if isinstance(event, ScenarioProgress):
        engine = event.engine
        if isinstance(engine, BatchCompleted):
            best = (
                f", best {engine.best_overall:.4f}"
                if engine.best_overall is not None
                else ""
            )
            return (
                f"scenario {event.scenario}: {engine.n_computed} computed / "
                f"{engine.n_requested} requested{best}"
            )
        if isinstance(engine, BatchSubmitted):
            return (
                f"scenario {event.scenario}: batch of {engine.n_batch} submitted"
            )
        return f"scenario {event.scenario}: {type(engine).__name__}"
    if isinstance(event, SimulationProgress):
        sim = event.sim
        return (
            f"scenario {event.scenario}: t={sim.time:.4f} "
            f"{type(sim).__name__}"
        )
    if isinstance(event, SimulationFinished):
        return (
            f"scenario {event.scenario} simulated: mean cost "
            f"{event.mean_cost:.4f}, {event.n_adaptations} adaptation(s)"
        )
    if isinstance(event, ScenarioResumed):
        return (
            f"scenario {event.scenario} resumed from disk "
            f"(P_all = {event.report.overall:.4f})"
        )
    if isinstance(event, ScenarioFinished):
        return (
            f"scenario {event.scenario} finished in {event.wall_time:.2f} s "
            f"(P_all = {event.report.overall:.4f})"
        )
    return type(event).__name__


def cmd_watch(args: argparse.Namespace) -> None:
    from .errors import ServeError
    from .serve.client import ServeClient
    from .serve.wire import TERMINAL_STATES, StatusMessage

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
            print(f"[{message.job}] {_render_watch_event(message.event)}",
                  flush=True)
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


def main(argv: list[str] | None = None) -> int:
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
        "lint",
        help="run the repo's AST invariant checkers (rules RPL002-RPL004)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to check (default: src/)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is the CI artifact)",
    )
    lint.add_argument(
        "--checkers",
        default=None,
        help="comma-separated checker names (default: all registered)",
    )
    lint.add_argument(
        "--list",
        action="store_true",
        help="list the registered checkers and exit",
    )

    experiment = sub.add_parser(
        "experiment",
        help="regenerate one paper artifact (resumable via --run-dir)",
    )
    experiment.add_argument(
        "name",
        help="registered experiment (see `python -m repro experiments`)",
    )
    experiment.add_argument(
        "--out",
        default=None,
        help="output directory for experiments that write files "
        "(fig6 CSVs; rejected elsewhere)",
    )
    experiment.add_argument(
        "--max-count-per-core",
        type=int,
        default=6,
        help="burst-length cap per core for the multicore experiments",
    )
    _add_search_arguments(experiment)

    search = sub.add_parser("search", help="schedule-space search")
    search.add_argument("--starts", nargs="*", help="e.g. --starts 4,2,2 1,2,1")
    _add_search_arguments(search)

    timeline = sub.add_parser("timeline", help="render a schedule timeline")
    timeline.add_argument("--schedule", required=True, help="e.g. 2,2,2")

    simulate = sub.add_parser(
        "simulate",
        help="simulate feedback scheduling under a load transient",
    )
    simulate.add_argument(
        "--horizon",
        type=float,
        default=1.0,
        help="simulated duration in seconds",
    )
    simulate.add_argument(
        "--stress",
        type=float,
        default=1.46,
        help="demand factor of the overload burst (1.0 = nominal; the "
        "default pushes the case study's static optimum past its "
        "scaled idle budget)",
    )
    simulate.add_argument(
        "--disturb-at",
        type=float,
        default=None,
        help="overload onset in seconds (default: 25%% of the horizon)",
    )
    simulate.add_argument(
        "--recover-at",
        type=float,
        default=None,
        help="recovery instant in seconds (default: 70%% of the horizon)",
    )
    simulate.add_argument(
        "--adapt-strategy",
        default=None,
        help="registered strategy the feedback loop re-invokes on load "
        "changes (default: online)",
    )
    simulate.add_argument(
        "--no-adapt",
        action="store_true",
        help="hold the static optimum for the whole horizon (the "
        "baseline the feedback experiment compares against)",
    )
    _add_search_arguments(simulate)

    batch = sub.add_parser(
        "batch", help="sweep a suite of synthesized scenarios"
    )
    batch.add_argument(
        "--suite-size", type=int, default=4, help="number of synthesized scenarios"
    )
    batch.add_argument("--seed", type=int, default=2018, help="synthesis seed")
    batch.add_argument(
        "--cores",
        type=int,
        default=1,
        help="co-design every scenario over this many cores (1 = single-core)",
    )
    batch.add_argument(
        "--jitter-platform",
        action="store_true",
        help="draw a fresh cache geometry and clock per scenario",
    )
    batch.add_argument(
        "--shared-cache",
        action="store_true",
        help="multicore scenarios way-partition one shared cache "
        "(needs --cores >= 2)",
    )
    batch.add_argument(
        "--dynamic",
        action="store_true",
        help="draw a load-transient profile per scenario and simulate "
        "the feedback loop after each search (single-core only)",
    )
    _add_allocator_argument(batch)
    _add_search_arguments(batch)

    multicore = sub.add_parser(
        "multicore",
        help="partition the case study across private-cache cores",
    )
    multicore.add_argument(
        "--cores", type=int, default=2, help="number of cores to partition onto"
    )
    multicore.add_argument(
        "--max-count-per-core",
        type=int,
        default=6,
        help="burst-length cap per core (bounds lone-app schedule spaces)",
    )
    multicore.add_argument(
        "--shared-cache",
        action="store_true",
        help="cores share one set-associative cache; the way allocation "
        "is co-optimized with the partition (default geometry: 32 sets "
        "x 4 ways, the paper capacity)",
    )
    multicore.add_argument(
        "--apps",
        type=int,
        default=None,
        help="replicate the case-study workload to this many applications "
        "(round-robin copies, re-normalized weights) so --cores can "
        "exceed the three paper applications",
    )
    _add_allocator_argument(multicore)
    _add_search_arguments(multicore)

    serve = sub.add_parser(
        "serve",
        help="run the search service (HTTP job queue, shared warm cache)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8765, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="jobs executing concurrently (executor threads)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="evaluation worker processes per job (0/1 = serial)",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="max queued jobs before submissions are rejected (HTTP 429)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="per-job wall-clock budget in seconds (default: unlimited)",
    )
    serve.add_argument(
        "--run-dir",
        default=".repro-serve",
        help="service state root: job ledger, shared report run dir "
        "and (unless --cache-dir) the shared evaluation cache",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="shared persistent evaluation cache (default: RUN_DIR/cache)",
    )

    submit = sub.add_parser(
        "submit", help="submit a search job to a running server"
    )
    _add_server_argument(submit)
    submit.add_argument(
        "--starts", nargs="*", help="e.g. --starts 4,2,2 1,2,1"
    )
    submit.add_argument(
        "--n-starts",
        type=int,
        default=2,
        help="deterministic start schedules when --starts is omitted",
    )
    submit.add_argument("--seed", type=int, default=2018, help="search seed")
    submit.add_argument(
        "--cores",
        type=int,
        default=1,
        help="co-design over this many cores (1 = single-core search)",
    )
    submit.add_argument(
        "--max-count-per-core",
        type=int,
        default=6,
        help="burst-length cap per core for multicore jobs",
    )
    submit.add_argument(
        "--shared-cache",
        action="store_true",
        help="way-partition one shared cache (needs --cores >= 2)",
    )
    _add_allocator_argument(submit)
    submit.add_argument(
        "--suite-size",
        type=int,
        default=None,
        help="sweep a synthesized suite of this size instead of the "
        "case study",
    )
    submit.add_argument(
        "--no-resume",
        action="store_true",
        help="recompute even if the server holds a matching report",
    )
    submit.add_argument(
        "--strategy",
        default=None,
        help="registered search strategy (validated by the server)",
    )
    submit.add_argument(
        "--eval-backend",
        choices=("vectorized", "serial"),
        default="vectorized",
        help="candidate-batch evaluation backend on the server",
    )
    submit.add_argument(
        "--json",
        action="store_true",
        help="print the submitted job record JSON instead of a summary",
    )
    _add_platform_arguments(submit)

    status = sub.add_parser(
        "status", help="job status from a running server"
    )
    status.add_argument(
        "job", nargs="?", default=None, help="job id (omit to list all jobs)"
    )
    _add_server_argument(status)
    status.add_argument(
        "--json", action="store_true", help="print the record JSON"
    )

    watch = sub.add_parser(
        "watch", help="stream a job's progress events until it finishes"
    )
    watch.add_argument("job", help="job id (see `python -m repro status`)")
    _add_server_argument(watch)
    watch.add_argument(
        "--json",
        action="store_true",
        help="print the raw NDJSON wire messages instead of summaries",
    )

    args = parser.parse_args(argv)
    command = {
        "info": cmd_info,
        "evaluate": cmd_evaluate,
        "strategies": cmd_strategies,
        "allocators": cmd_allocators,
        "models": cmd_models,
        "experiments": cmd_experiments,
        "lint": cmd_lint,
        "experiment": cmd_experiment,
        "search": cmd_search,
        "timeline": cmd_timeline,
        "simulate": cmd_simulate,
        "batch": cmd_batch,
        "multicore": cmd_multicore,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "status": cmd_status,
        "watch": cmd_watch,
    }[args.command]
    try:
        command(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _add_search_arguments(parser: argparse.ArgumentParser) -> None:
    """The flag set shared by ``search``, ``batch`` and ``multicore``."""
    parser.add_argument(
        "--strategy",
        default=None,
        help="registered search strategy (see `python -m repro strategies`); "
        "default: hybrid (exhaustive per core for multicore)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the structured RunReport JSON to stdout instead of tables",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        help="persist per-scenario RunReport JSON artifacts here "
        "(matching reruns resume from disk)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="evaluation worker processes (0/1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent evaluation-cache directory (warm-starts reruns)",
    )
    parser.add_argument(
        "--eval-backend",
        choices=("vectorized", "serial"),
        default="vectorized",
        help="how candidate batches are evaluated: 'vectorized' stacks "
        "the controller designs of a batch into array operations, "
        "'serial' keeps the per-candidate oracle loop; both produce "
        "bit-identical results (default: vectorized)",
    )
    _add_platform_arguments(parser)
    parser.add_argument(
        "--progress",
        action="store_true",
        help="emit progress on stderr even when it is not a TTY "
        "(in-place line on a TTY — the automatic default there — "
        "one line per finished scenario / computed batch otherwise)",
    )


def _add_platform_arguments(parser: argparse.ArgumentParser) -> None:
    """The platform flag set (shared by the search commands and
    ``submit``, which ships them to the server as a fingerprint)."""
    parser.add_argument(
        "--wcet-model",
        default=None,
        help="registered WCET model to (re)analyze the programs with "
        "(see `python -m repro models`); default: static",
    )
    parser.add_argument(
        "--cache-sets",
        type=int,
        default=None,
        help="instruction-cache sets (default: 128; 32 with --shared-cache)",
    )
    parser.add_argument(
        "--cache-ways",
        type=int,
        default=None,
        help="instruction-cache ways (default: 1; 4 with --shared-cache)",
    )
    parser.add_argument(
        "--miss-cycles",
        type=int,
        default=None,
        help="cache-miss latency in cycles (default: 100)",
    )
    parser.add_argument(
        "--clock-mhz",
        type=float,
        default=None,
        help="processor clock in MHz (default: 20)",
    )


def _add_allocator_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--allocator",
        default=None,
        help="registered partition allocator for multicore co-designs "
        "(see `python -m repro allocators`); default: exhaustive",
    )


def _add_server_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server",
        default="http://127.0.0.1:8765",
        help="base URL of the running `python -m repro serve`",
    )


if __name__ == "__main__":
    sys.exit(main())
