"""Dynamic scenario profiles: what happens at runtime, and when.

A :class:`DynamicProfile` is the declarative workload of one
feedback-scheduling simulation — arrival markers, load disturbances and
plant mode changes over a finite horizon, plus the adaptation policy
(whether the feedback loop re-optimizes, with which registered search
strategy, and its latency model).  Profiles are frozen, validated in
``__post_init__`` and JSON round-trippable, so they flow into scenario
digests, run-dir resume comparisons and persisted reports exactly like
every other run input.

:func:`load_transient` builds the canonical stress profile of the
``feedback`` experiment (nominal → overload → recovery);
:func:`synthesize_profile` draws a seeded random profile for the
synthesized-suite path (a suite spec's ``random_dynamic``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class DynamicProfile:
    """Runtime workload of one feedback-scheduling simulation.

    Parameters
    ----------
    horizon:
        Simulated duration in seconds (events must fall in
        ``[0, horizon)``).
    arrivals:
        ``(time, app_index)`` task-arrival markers (observability only).
    disturbances:
        ``(time, demands)`` load disturbances; ``demands`` is the full
        per-application demand vector active from that instant on
        (``1.0`` = nominal, ``> 1`` stress — the effective idle budget
        of application ``i`` becomes ``max_idle_i / demands[i]``).
    mode_changes:
        ``(time, app_index, factor)`` plant mode changes; ``factor``
        multiplies that application's current demand.
    adapt:
        Whether the feedback loop re-optimizes on load changes
        (``False`` simulates the static schedule under the same
        workload — the baseline the ``feedback`` experiment compares
        against).
    adapt_strategy:
        Registered search strategy the loop re-invokes on load changes
        (``None`` = ``"online"``, the incremental neighborhood search).
    adapt_base_latency:
        Fixed simulated latency of one adaptation in seconds
        (detection + schedule distribution overhead).
    adapt_eval_latency:
        Simulated latency per *requested* evaluation of one adaptation.
        Requested counts are cache-independent (memo/disk hits request
        the same work), so adaptation latencies — and therefore whole
        timelines — are byte-identical between cold and warm caches.
    """

    horizon: float
    arrivals: tuple[tuple[float, int], ...] = ()
    disturbances: tuple[tuple[float, tuple[float, ...]], ...] = ()
    mode_changes: tuple[tuple[float, int, float], ...] = ()
    adapt: bool = True
    adapt_strategy: str | None = None
    adapt_base_latency: float = 0.005
    adapt_eval_latency: float = 1e-4
    #: Schema tag of the JSON encoding (bump on incompatible change).
    schema_version: int = field(default=1)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "arrivals",
            tuple((float(t), int(i)) for t, i in self.arrivals),
        )
        object.__setattr__(
            self,
            "disturbances",
            tuple(
                (float(t), tuple(float(d) for d in demands))
                for t, demands in self.disturbances
            ),
        )
        object.__setattr__(
            self,
            "mode_changes",
            tuple(
                (float(t), int(i), float(f)) for t, i, f in self.mode_changes
            ),
        )
        if self.horizon <= 0:
            raise ConfigurationError(
                f"profile horizon must be positive, got {self.horizon}"
            )
        if self.adapt_base_latency < 0 or self.adapt_eval_latency < 0:
            raise ConfigurationError(
                "adaptation latencies must be non-negative, got "
                f"base={self.adapt_base_latency}, "
                f"per-eval={self.adapt_eval_latency}"
            )
        for time, index in self.arrivals:
            self._check_time(time, "arrival")
            if index < 0:
                raise ConfigurationError(
                    f"arrival app index must be >= 0, got {index}"
                )
        for time, demands in self.disturbances:
            self._check_time(time, "disturbance")
            if not demands:
                raise ConfigurationError(
                    f"disturbance at t={time} carries an empty demand vector"
                )
            if any(d <= 0 for d in demands):
                raise ConfigurationError(
                    f"demands must be positive, got {demands} at t={time}"
                )
        for time, index, factor in self.mode_changes:
            self._check_time(time, "mode change")
            if index < 0:
                raise ConfigurationError(
                    f"mode-change app index must be >= 0, got {index}"
                )
            if factor <= 0:
                raise ConfigurationError(
                    f"mode-change factor must be positive, got {factor}"
                )
        if self.adapt_strategy is not None:
            # Imported lazily: repro.sched pulls heavier modules and the
            # registry must already hold the named strategy anyway.
            from ..sched.strategies import get_strategy

            get_strategy(self.adapt_strategy)  # fail fast on unknown names

    def _check_time(self, time: float, kind: str) -> None:
        if not 0.0 <= time < self.horizon:
            raise ConfigurationError(
                f"{kind} at t={time} outside the horizon [0, {self.horizon})"
            )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def n_events(self) -> int:
        """Total scheduled runtime events."""
        return len(self.arrivals) + len(self.disturbances) + len(self.mode_changes)

    def check_apps(self, n_apps: int) -> None:
        """Validate the profile against a concrete application count.

        Demand vectors must be exactly ``n_apps`` wide and every app
        index in range; a mismatch raises
        :class:`~repro.errors.ConfigurationError` (called by
        :meth:`RunSpec.check_apps <repro.study.spec.RunSpec.check_apps>`).
        """
        for time, demands in self.disturbances:
            if len(demands) != n_apps:
                raise ConfigurationError(
                    f"disturbance at t={time} has {len(demands)} demands "
                    f"for {n_apps} applications"
                )
        for time, index in self.arrivals:
            if index >= n_apps:
                raise ConfigurationError(
                    f"arrival at t={time} names app index {index}, but the "
                    f"scenario has {n_apps} applications"
                )
        for time, index, _ in self.mode_changes:
            if index >= n_apps:
                raise ConfigurationError(
                    f"mode change at t={time} names app index {index}, but "
                    f"the scenario has {n_apps} applications"
                )

    # ------------------------------------------------------------------
    # JSON round-tripping (digests, run-dir resume, reports)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe form (inverse of :meth:`from_dict`)."""
        return {
            "horizon": self.horizon,
            "arrivals": [[t, i] for t, i in self.arrivals],
            "disturbances": [
                [t, list(demands)] for t, demands in self.disturbances
            ],
            "mode_changes": [[t, i, f] for t, i, f in self.mode_changes],
            "adapt": self.adapt,
            "adapt_strategy": self.adapt_strategy,
            "adapt_base_latency": self.adapt_base_latency,
            "adapt_eval_latency": self.adapt_eval_latency,
            "schema_version": self.schema_version,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DynamicProfile":
        """Rebuild a profile ``to_dict`` encoded (validates again)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown profile fields: {', '.join(sorted(unknown))}"
            )
        kwargs: dict[str, Any] = dict(data)
        kwargs["arrivals"] = tuple(
            (t, i) for t, i in kwargs.get("arrivals", ())
        )
        kwargs["disturbances"] = tuple(
            (t, tuple(demands)) for t, demands in kwargs.get("disturbances", ())
        )
        kwargs["mode_changes"] = tuple(
            (t, i, f) for t, i, f in kwargs.get("mode_changes", ())
        )
        return cls(**kwargs)


def load_transient(
    n_apps: int,
    horizon: float = 1.0,
    stress: float = 1.46,
    disturb_at: float | None = None,
    recover_at: float | None = None,
    adapt: bool = True,
    adapt_strategy: str | None = None,
) -> DynamicProfile:
    """The canonical load-transient profile (nominal → stress → nominal).

    Demand on every application rises to ``stress`` at ``disturb_at``
    (default: 25 % of the horizon) and returns to nominal at
    ``recover_at`` (default: 70 %).  One arrival marker per application
    anchors the traces at ``t = 0``.  This is the workload of the
    ``feedback`` experiment and the ``python -m repro simulate``
    default; the default ``stress`` is calibrated so the case study's
    static optimum ``(2, 2, 2)`` (uniform-demand headroom ``1.450``)
    violates the scaled idle constraint while ``(1, 1, 1)`` (headroom
    ``1.477``) stays feasible — the regime where feedback scheduling
    actually pays.
    """
    if n_apps < 1:
        raise ConfigurationError(f"need at least one application, got {n_apps}")
    if stress <= 0:
        raise ConfigurationError(f"stress must be positive, got {stress}")
    t_disturb = horizon * 0.25 if disturb_at is None else disturb_at
    t_recover = horizon * 0.70 if recover_at is None else recover_at
    if not 0.0 <= t_disturb < t_recover < horizon:
        raise ConfigurationError(
            f"need 0 <= disturb_at < recover_at < horizon, got "
            f"{t_disturb}, {t_recover}, {horizon}"
        )
    nominal = tuple(1.0 for _ in range(n_apps))
    stressed = tuple(float(stress) for _ in range(n_apps))
    return DynamicProfile(
        horizon=horizon,
        arrivals=tuple((0.0, index) for index in range(n_apps)),
        disturbances=((t_disturb, stressed), (t_recover, nominal)),
        adapt=adapt,
        adapt_strategy=adapt_strategy,
    )


def synthesize_profile(
    rng: np.random.Generator,
    n_apps: int,
    horizon: float = 1.0,
) -> DynamicProfile:
    """One seeded random dynamic profile for a synthesized scenario.

    Draws a load transient (stress onset in the first half, recovery in
    the second, stress factor in ``[1.15, 1.5]``), a per-application
    arrival marker at ``t = 0`` and one plant mode change on a random
    application.  All randomness comes from the caller's ``rng``, so
    suites stay deterministic per seed (RPL002).
    """
    if n_apps < 1:
        raise ConfigurationError(f"need at least one application, got {n_apps}")
    t_disturb = float(rng.uniform(0.15, 0.45)) * horizon
    t_recover = float(rng.uniform(0.6, 0.9)) * horizon
    stress = float(rng.uniform(1.15, 1.5))
    mode_app = int(rng.integers(0, n_apps))
    mode_factor = float(rng.uniform(1.05, 1.2))
    t_mode = float(rng.uniform(0.5, 0.95)) * t_disturb
    return DynamicProfile(
        horizon=horizon,
        arrivals=tuple((0.0, index) for index in range(n_apps)),
        disturbances=(
            (t_disturb, tuple(float(stress) for _ in range(n_apps))),
            (t_recover, tuple(1.0 for _ in range(n_apps))),
        ),
        mode_changes=((t_mode, mode_app, mode_factor),),
    )
