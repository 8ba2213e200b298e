"""Overall control performance of one schedule (paper eq. (2)).

Evaluating a schedule means: derive its timing, run the holistic
controller design for every application, measure worst-case settling
times, convert to performances ``P_i = 1 - s_i / s0_i`` and combine with
the weights.  This is the expensive inner loop of the schedule search
("seconds to hours" per schedule on the paper's hardware), so the
evaluator memoizes aggressively:

* per schedule — repeated requests are free;
* per (application, timing pattern) — different schedules often induce
  the same timing for some application, and the controller design only
  depends on the timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..control.design import ControllerDesign, DesignOptions
from ..control.lockstep import DesignRequest, design_controllers_batch
from ..core.application import ControlApplication
from ..core.performance import check_weights, performance_index
from ..errors import DesignInfeasibleError, ScheduleError
from ..units import Clock
from .schedule import PeriodicSchedule
from .timing import AppTiming, ScheduleTiming, derive_timing


@dataclass(frozen=True)
class AppEvaluation:
    """Design outcome for one application under one schedule."""

    app_name: str
    design: ControllerDesign
    timing: AppTiming
    settling: float
    performance: float

    @property
    def meets_deadline(self) -> bool:
        """Settling-deadline constraint, eq. (3): ``P_i >= 0``."""
        return self.performance >= 0.0


@dataclass(frozen=True)
class ScheduleEvaluation:
    """Complete evaluation of one schedule."""

    schedule: PeriodicSchedule
    timing: ScheduleTiming
    apps: tuple[AppEvaluation, ...]
    overall: float
    idle_ok: bool

    @property
    def feasible(self) -> bool:
        """Idle-time (eq. (4)) and settling-deadline (eq. (3)) feasible."""
        return self.idle_ok and all(app.meets_deadline for app in self.apps)


class DesignCache:
    """Memo of controller designs per (application, timing), filled in batches.

    The one place a schedule evaluator turns timings into design
    requests: designs only depend on the timing, so the key is the
    application index plus its periods and delays rounded to
    femtoseconds (well below any WCET granularity, well above float
    noise), and each application gets its own deterministic swarm seed
    so results are reproducible and applications don't share swarm
    randomness.
    """

    def __init__(
        self, apps: list[ControlApplication], design_options: DesignOptions
    ) -> None:
        self.apps = apps
        self.design_options = design_options
        self._designs: dict[tuple, ControllerDesign] = {}

    def __len__(self) -> int:
        return len(self._designs)

    @staticmethod
    def _key(app_index: int, timing: AppTiming) -> tuple:
        quantize = lambda values: tuple(round(v * 1e15) for v in values)
        return (app_index, quantize(timing.periods), quantize(timing.delays))

    def _request(self, app_index: int, timing: AppTiming) -> DesignRequest:
        app = self.apps[app_index]
        return DesignRequest(
            plant=app.plant,
            periods=tuple(timing.periods),
            delays=tuple(timing.delays),
            spec=app.spec,
            options=replace(
                self.design_options,
                seed=self.design_options.seed + 7919 * app_index,
            ),
        )

    def prefetch(self, pairs: list[tuple[int, AppTiming]]) -> None:
        """Design every yet-unseen ``(app_index, timing)`` pair in one batch.

        An infeasible design fails the whole batch; it is then left to
        :meth:`get`, so the caller meets the error in its own order.
        """
        requests: dict[tuple, DesignRequest] = {}
        for app_index, timing in pairs:
            key = self._key(app_index, timing)
            if key not in self._designs and key not in requests:
                requests[key] = self._request(app_index, timing)
        if not requests:
            return
        try:
            designs = design_controllers_batch(list(requests.values()))
        except DesignInfeasibleError:
            return
        self._designs.update(zip(requests, designs))

    def get(self, app_index: int, timing: AppTiming) -> ControllerDesign:
        """The design for one pair (designed alone on a miss)."""
        key = self._key(app_index, timing)
        design = self._designs.get(key)
        if design is None:
            [design] = design_controllers_batch([self._request(app_index, timing)])
            self._designs[key] = design
        return design


class ScheduleEvaluator:
    """Memoizing evaluator of overall control performance.

    Every evaluation goes through :meth:`evaluate_batch` (a single
    :meth:`evaluate` is a batch of one): the batch's yet-unseen
    controller designs are computed first, all at once, by the design
    kernel :func:`repro.control.lockstep.design_controllers_batch`,
    then the schedules are scored from the warmed design memo.  A
    design's bits never depend on the batch it rides in, so a schedule
    evaluates identically alone, in any batch and in any order.
    """

    def __init__(
        self,
        apps: list[ControlApplication],
        clock: Clock,
        design_options: DesignOptions | None = None,
    ) -> None:
        if not apps:
            raise ScheduleError("need at least one application")
        check_weights([app.weight for app in apps])
        self.apps = list(apps)
        self.clock = clock
        self.design_options = design_options or DesignOptions()
        self._schedule_cache: dict[tuple[int, ...], ScheduleEvaluation] = {}
        self._designs = DesignCache(self.apps, self.design_options)

    @classmethod
    def for_subproblem(
        cls,
        apps: list[ControlApplication],
        clock: Clock,
        design_options: DesignOptions | None,
        indices: tuple[int, ...],
    ) -> "ScheduleEvaluator":
        """Evaluator over the sub-problem ``[apps[i] for i in indices]``.

        This is how the multicore layer spells "one core": a block of a
        larger application set is an independent single-core evaluation
        problem.  Weights are renormalized within the block so eq. (2)
        stays a unit-weight sum; designs and settling times never depend
        on weights, so only ``overall`` rescales (by the block's weight
        mass).  Construction is deterministic in ``(apps, indices)``, so
        the coordinating process and every worker process build
        bit-identical sub-problem evaluators — and therefore identical
        persistent-cache digests — for the same block, whatever
        partition it came from.
        """
        if not indices:
            raise ScheduleError("a sub-problem needs at least one application")
        block = [apps[i] for i in indices]
        total = sum(app.weight for app in block)
        if total <= 0:
            raise ScheduleError(f"block weights must be positive, got {total}")
        normalized = [replace(app, weight=app.weight / total) for app in block]
        return cls(normalized, clock, design_options)

    @property
    def n_schedule_evaluations(self) -> int:
        """Number of distinct schedules evaluated so far."""
        return len(self._schedule_cache)

    @property
    def n_designs(self) -> int:
        """Number of distinct (application, timing) designs performed."""
        return len(self._designs)

    def evaluate(self, schedule: PeriodicSchedule) -> ScheduleEvaluation:
        """Evaluate one schedule (cached)."""
        return self.evaluate_batch([schedule])[0]

    def evaluate_batch(
        self, schedules: list[PeriodicSchedule]
    ) -> list[ScheduleEvaluation]:
        """Evaluate many schedules, preserving order.

        The batch's controller designs are computed first, all at once
        (see the class docstring), then each schedule is scored; errors
        surface in schedule order.
        :class:`repro.sched.engine.SearchEngine` overrides this entry
        point with parallel workers and a persistent cache; search
        algorithms submit candidates here, so either can serve them.
        """
        self._prefetch_designs(schedules)
        return [self._score(schedule) for schedule in schedules]

    def _prefetch_designs(self, schedules: list[PeriodicSchedule]) -> None:
        """Batch-design every yet-unseen (app, timing) pair of a batch.

        Skips cached schedules, mismatched schedules and schedules whose
        timing cannot even be derived: those raise in :meth:`_score`, in
        order.
        """
        pairs: list[tuple[int, AppTiming]] = []
        wcets = [app.wcets for app in self.apps]
        for schedule in schedules:
            if schedule.counts in self._schedule_cache:
                continue
            if schedule.n_apps != len(self.apps):
                continue
            try:
                timing = derive_timing(schedule, wcets, self.clock)
            except ScheduleError:
                continue
            pairs.extend((i, timing.for_app(i)) for i in range(len(self.apps)))
        self._designs.prefetch(pairs)

    def _score(self, schedule: PeriodicSchedule) -> ScheduleEvaluation:
        key = schedule.counts
        cached = self._schedule_cache.get(key)
        if cached is not None:
            return cached
        if schedule.n_apps != len(self.apps):
            raise ScheduleError(
                f"schedule has {schedule.n_apps} apps, problem has {len(self.apps)}"
            )
        timing = derive_timing(
            schedule, [app.wcets for app in self.apps], self.clock
        )
        idle_ok = all(
            app_timing.max_period <= app.max_idle + 1e-15
            for app_timing, app in zip(timing.apps, self.apps)
        )
        evaluations = []
        for i, app in enumerate(self.apps):
            app_timing = timing.for_app(i)
            design = self._designs.get(i, app_timing)
            settling = design.settling if design.satisfies(app.spec) else math.inf
            performance = performance_index(settling, app.spec.deadline)
            evaluations.append(
                AppEvaluation(
                    app_name=app.name,
                    design=design,
                    timing=app_timing,
                    settling=settling,
                    performance=performance,
                )
            )
        finite = [e.performance for e in evaluations]
        if any(not math.isfinite(p) for p in finite):
            overall = -math.inf
        else:
            overall = float(
                sum(app.weight * e.performance for app, e in zip(self.apps, evaluations))
            )
        result = ScheduleEvaluation(
            schedule=schedule,
            timing=timing,
            apps=tuple(evaluations),
            overall=overall,
            idle_ok=idle_ok,
        )
        self._schedule_cache[key] = result
        return result

    def adopt(self, evaluation: ScheduleEvaluation) -> None:
        """Seed the memo with an externally computed evaluation.

        Used by the search engine to install results coming back from
        worker processes or the persistent disk cache, so later serial
        lookups are free.
        """
        if evaluation.schedule.n_apps != len(self.apps):
            raise ScheduleError(
                f"evaluation has {evaluation.schedule.n_apps} apps, "
                f"problem has {len(self.apps)}"
            )
        self._schedule_cache.setdefault(evaluation.schedule.counts, evaluation)

    def is_cached(self, schedule: PeriodicSchedule) -> bool:
        """Whether ``schedule`` has already been evaluated."""
        return schedule.counts in self._schedule_cache

