"""Result containers shared by the concrete and static WCET analyses."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cache.abstract import MayCache, MustCache
from ..cache.icache import InstructionCache
from ..identity import NON_IDENTITY
from ..units import Clock


@dataclass
class TraceResult:
    """Outcome of replaying one concrete path through the cache.

    Attributes
    ----------
    cycles:
        Total fetch cycles along the path.
    hits, misses:
        Fetch outcome counts.
    final_cache:
        Cache state after the path (used for reuse analysis).
    decisions:
        The branch-decision vector that produced this path (one boolean
        per static branch site; empty for single-path programs).
    """

    cycles: int
    hits: int
    misses: int
    final_cache: InstructionCache
    decisions: tuple[bool, ...] = ()

    @property
    def instructions(self) -> int:
        """Number of instructions fetched."""
        return self.hits + self.misses


@dataclass
class StaticWcet:
    """Sound static WCET bound with the abstract exit state.

    Attributes
    ----------
    cycles:
        Upper bound on execution cycles over all paths.
    must_out, may_out:
        Abstract cache states guaranteed/possible at program exit.
    always_hit, always_miss, unclassified:
        Instruction-fetch classification counts along the costed
        (worst) path expansion.
    """

    cycles: int
    must_out: MustCache
    may_out: MayCache
    always_hit: int
    always_miss: int
    unclassified: int

    @property
    def classified_fraction(self) -> float:
        """Fraction of fetches with a definite classification."""
        total = self.always_hit + self.always_miss + self.unclassified
        if total == 0:
            return 1.0
        return (self.always_hit + self.always_miss) / total


@dataclass(frozen=True)
class TaskWcets:
    """Per-application WCET triple of the paper's Table I.

    ``cold_cycles`` is the WCET without cache reuse, ``warm_cycles`` the
    effective WCET with reuse, and ``reduction_cycles`` their difference
    (the guaranteed reduction ``E_gu``).
    """

    #: Label only: an application's identity carries its own name.
    name: str = field(metadata=NON_IDENTITY)
    cold_cycles: int
    warm_cycles: int

    @property
    def reduction_cycles(self) -> int:
        """Guaranteed WCET reduction from cache reuse, in cycles."""
        return self.cold_cycles - self.warm_cycles

    def cold_seconds(self, clock: Clock) -> float:
        """Cold WCET in seconds."""
        return clock.cycles_to_seconds(self.cold_cycles)

    def warm_seconds(self, clock: Clock) -> float:
        """Warm WCET in seconds."""
        return clock.cycles_to_seconds(self.warm_cycles)

    def reduction_seconds(self, clock: Clock) -> float:
        """Guaranteed reduction in seconds."""
        return clock.cycles_to_seconds(self.reduction_cycles)

    def wcet_cycles(self, position: int) -> int:
        """WCET of the task at 1-based ``position`` within its run.

        Position 1 runs cold; positions >= 2 benefit from cache reuse.
        """
        if position < 1:
            raise ValueError(f"position must be >= 1, got {position}")
        if position == 1:
            return self.cold_cycles
        return self.warm_cycles
