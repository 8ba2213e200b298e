"""Stable cache keys for schedule evaluations.

A persistent evaluation cache is only sound if its keys capture
*everything* the evaluation depends on: the schedule, the applications'
timing inputs (WCETs + clock), the plants and tracking scenarios the
controller design optimizes against, the full design budget — and the
*platform* those WCETs were analyzed on (cache geometry, way
allocation, clock, WCET model; see :class:`repro.platform.Platform`).
The problem is encoded with the one canonical identity encoder
(:mod:`repro.identity`), which walks every field of every dataclass
involved, so a cache entry can never be served for a subtly different
problem (e.g. after changing ``DesignOptions.restarts``, or
re-analyzing under a different cache) and a newly added field cannot
be left out of the key.
"""

from __future__ import annotations

from ...control.design import DesignOptions
from ...core.application import ControlApplication
from ...identity import canonical, digest
from ...platform import Platform, default_platform
from ...units import Clock
from ..evaluator import ScheduleEvaluator
from ..schedule import PeriodicSchedule

#: Bump when the serialized evaluation layout changes; part of every key
#: so stale entries from older layouts can never be deserialized.
#: v2: the fingerprint gained the platform (cache geometry + way
#: allocation + clock + WCET model).
#: v3: the fingerprint is the canonical identity encoding of every
#: field (:mod:`repro.identity`), not a hand-written field list.
SCHEMA_VERSION = 3


def problem_fingerprint(
    apps: list[ControlApplication],
    clock: Clock,
    design_options: DesignOptions,
    platform: Platform | None = None,
) -> dict:
    """Everything a schedule evaluation depends on, minus the schedule.

    ``platform=None`` resolves to the paper platform at the problem's
    clock, so problems that never declared a platform key identically
    to problems that declare the historical default explicitly.
    """
    return canonical(
        {
            "schema": SCHEMA_VERSION,
            "clock": clock,
            "platform": platform or default_platform(clock),
            "apps": apps,
            "design_options": design_options,
        }
    )


def problem_digest(
    apps: list[ControlApplication],
    clock: Clock,
    design_options: DesignOptions,
    platform: Platform | None = None,
) -> str:
    """Digest of the evaluation problem (shared by all its schedules)."""
    return digest(problem_fingerprint(apps, clock, design_options, platform))


def subproblem_digest(
    apps: list[ControlApplication],
    clock: Clock,
    design_options: DesignOptions,
    indices: tuple[int, ...],
    platform: Platform | None = None,
    ways: int | None = None,
) -> str:
    """Digest of the per-core sub-problem over ``indices``.

    The digest depends only on the block's own applications (with
    weights renormalized within the block), the clock, the design
    budget and the platform — never on the rest of the partition.  One
    block therefore shares its disk entries across every partition that
    contains it, and with plain single-core runs of the same
    applications.  (The engine keys the whole-problem block — every
    index, no ways — with the plain :func:`problem_digest` of the
    caller's applications; the two agree whenever the weights already
    sum to exactly one.)

    For shared-cache co-design pass ``ways``: the applications are
    re-analyzed under that slice of the platform's cache (exactly like
    the engine does) and the platform is restricted to it,
    so the digest matches the engine's for the same way-allocated block.
    """
    resolved = platform or default_platform(clock)
    if ways is not None:
        apps = resolved.reanalyze(apps, ways)
        resolved = resolved.with_ways(ways)
    evaluator = ScheduleEvaluator.for_subproblem(
        apps, clock, design_options, tuple(indices)
    )
    return problem_digest(
        evaluator.apps, evaluator.clock, evaluator.design_options, resolved
    )


def evaluation_key(problem: str, schedule: PeriodicSchedule) -> str:
    """Cache key of one (problem, schedule) evaluation.

    Keeps the schedule readable in the key so ``sqlite3`` spelunking of
    a cache file stays humane.
    """
    return f"{problem}:{','.join(str(m) for m in schedule.counts)}"
