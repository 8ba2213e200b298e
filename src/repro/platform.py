"""The pluggable platform model: cache geometry + clock + WCET model.

Everything upstream of the schedule search used to hardcode one
platform — the paper's private 128 x 16 B LRU instruction cache on a
20 MHz clock, analyzed with the static must/may WCET bounds.  A
:class:`Platform` makes that a first-class value: scenario synthesis
jitters it, the case study is rebuilt under it, the ``Study``/CLI layer
records it in every run report, and the engine's persistent-cache keys
incorporate it so an evaluation computed under one platform can never
be served for another.

The WCET method is referenced *by registry name*
(:mod:`repro.wcet.models`), mirroring the search-strategy registry:
``Platform(wcet_model="typo")`` fails fast listing the registered
models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .cache.config import CacheConfig
from .units import Clock

if TYPE_CHECKING:  # runtime imports stay lazy: repro.wcet is a heavy subtree
    from .core.application import ControlApplication
    from .program import Program
    from .wcet.results import TaskWcets


@dataclass(frozen=True)
class Platform:
    """One execution platform of the co-design pipeline.

    Parameters
    ----------
    cache:
        Instruction-cache geometry and timing; the paper's Section-V
        configuration by default.
    clock:
        Processor clock; the paper's 20 MHz by default.
    wcet_model:
        Name of the registered WCET model WCETs are (re)analyzed with
        (``static`` / ``concrete`` / ``analytic`` builtin; see
        :func:`repro.wcet.models.available_wcet_models`).
    """

    cache: CacheConfig = field(default_factory=CacheConfig)
    clock: Clock = field(default_factory=Clock)
    wcet_model: str = "static"

    def __post_init__(self) -> None:
        # Imported lazily: repro.wcet is a heavier subtree and pulls in
        # the program model; the registry lookup only validates the name.
        from .wcet.models import get_wcet_model

        get_wcet_model(self.wcet_model)  # fail fast on unknown names

    def analyze(self, program: Program) -> TaskWcets:
        """Cold/warm :class:`~repro.wcet.results.TaskWcets` of ``program``
        under this platform's cache and WCET model (memoized, see
        :func:`repro.wcet.reuse.analyze_task_wcets`)."""
        from .wcet.reuse import analyze_task_wcets

        return analyze_task_wcets(program, self.cache, self.wcet_model)

    def with_ways(self, ways: int) -> "Platform":
        """This platform restricted to ``ways`` ways of its shared cache
        (one core's slice of a way-partitioned multicore)."""
        return replace(self, cache=self.cache.with_ways(ways))

    def reanalyze(
        self, apps: list[ControlApplication], ways: int
    ) -> list[ControlApplication]:
        """``apps`` with WCETs re-analyzed under ``ways`` ways.

        This is the one definition of what a way allocation does to an
        application set; the search engine (coordinator and worker
        processes alike) and the standalone digest helpers all call it,
        so their sub-problem digests can never diverge.  Deterministic
        in ``(apps, self, ways)``.
        """
        from .errors import ConfigurationError

        restricted = self.with_ways(ways)
        out: list[ControlApplication] = []
        for app in apps:
            if app.program is None:
                raise ConfigurationError(
                    f"application {app.name!r} carries no program; shared-cache "
                    "co-design must re-analyze WCETs per way allocation"
                )
            out.append(replace(app, wcets=restricted.analyze(app.program)))
        return out

    def fingerprint(self) -> dict:
        """Canonical JSON-safe form (run reports, engine cache keys)."""
        return {
            "cache": {
                "n_sets": self.cache.n_sets,
                "associativity": self.cache.associativity,
                "line_size": self.cache.line_size,
                "hit_cycles": self.cache.hit_cycles,
                "miss_cycles": self.cache.miss_cycles,
                "policy": self.cache.policy.value,
            },
            "clock_hz": self.clock.frequency_hz,
            "wcet_model": self.wcet_model,
        }


def paper_platform() -> Platform:
    """The paper's Section-V platform (the default everywhere)."""
    return Platform()


def platform_from_fingerprint(data: dict) -> Platform:
    """Inverse of :meth:`Platform.fingerprint` (identity round-trip).

    Persisted artifacts (run and experiment reports) record platforms
    as fingerprints; this rebuilds the live object from one, so a
    resumed report can be rendered or re-run on its original platform.
    """
    from .cache.config import CacheConfig, ReplacementPolicy

    cache = data["cache"]
    return Platform(
        cache=CacheConfig(
            n_sets=int(cache["n_sets"]),
            associativity=int(cache["associativity"]),
            line_size=int(cache["line_size"]),
            hit_cycles=int(cache["hit_cycles"]),
            miss_cycles=int(cache["miss_cycles"]),
            policy=ReplacementPolicy(cache["policy"]),
        ),
        clock=Clock(float(data["clock_hz"])),
        wcet_model=str(data["wcet_model"]),
    )


def shared_paper_platform() -> Platform:
    """The default shared-cache platform: the paper's 2 KiB capacity
    re-organized as 32 sets x 4 ways, so there are ways to partition
    (the paper's own cache is direct-mapped).  The CLI's
    ``--shared-cache``, the ``shared_cache`` experiment and the example
    all default to this one geometry."""
    return Platform(cache=CacheConfig(n_sets=32, associativity=4))


def default_platform(clock: Clock | None = None) -> Platform:
    """The platform assumed for problems that never declared one.

    Historical runs carried only a clock; everything else was the paper
    platform.  Keys and reports resolve ``platform=None`` through this
    so undeclared and explicitly-paper-default problems coincide.
    """
    if clock is None:
        return Platform()
    return Platform(clock=clock)
