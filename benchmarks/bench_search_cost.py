"""Benchmark E5 — Section V search statistics.

Reruns the paper's schedule-space experiment: exhaustive enumeration
plus the hybrid search from the paper's two start schedules, reporting
evaluation counts (the paper's efficiency metric: 9 resp. 18 of 76).
"""

import pytest

from repro.sched import PeriodicSchedule, enumerate_idle_feasible, exhaustive_search, hybrid_search
from repro.sched.feasibility import idle_feasible


@pytest.mark.benchmark(group="search")
def test_enumeration_cost(benchmark, case_study):
    """Enumerating the idle-feasible space is cheap (no designs)."""
    space = benchmark(
        lambda: enumerate_idle_feasible(case_study.apps, case_study.clock)
    )
    assert len(space) == 77  # paper: 76 (one boundary schedule apart)


@pytest.mark.benchmark(group="search")
def test_hybrid_search_from_paper_starts(benchmark, case_study, design_options):
    """The paper's two hybrid runs: both must reach one optimum using a
    small fraction of the 77-schedule space."""

    def run():
        evaluator = case_study.evaluator(design_options)
        feasible = lambda s: idle_feasible(s, case_study.apps, case_study.clock)
        return hybrid_search(
            evaluator,
            [PeriodicSchedule.of(4, 2, 2), PeriodicSchedule.of(1, 2, 1)],
            feasible,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.best.feasible
    ends = {trace.end.counts for trace in result.traces}
    assert len(ends) == 1
    print()
    for trace in result.traces:
        path = " -> ".join(str(s) for s, _v in trace.path)
        print(
            f"start {trace.start}: {trace.n_evaluations} evaluations "
            f"(paper: 9 resp. 18 of 76); path {path}"
        )
    print(f"best: {result.best_schedule} P_all = {result.best_value:.4f}")


@pytest.mark.benchmark(group="search")
def test_exhaustive_search(benchmark, case_study, shared_evaluator):
    """Full exhaustive evaluation of the schedule space (the paper's
    'days' baseline; minutes here).  Shares the session evaluator so a
    prior hybrid run's designs are reused, exactly as a practitioner
    would."""
    space = enumerate_idle_feasible(case_study.apps, case_study.clock)

    def run():
        return exhaustive_search(shared_evaluator, schedules=space)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.stats["n_enumerated"] == 77
    assert result.best.feasible
    feasible = [e for e in map(shared_evaluator.evaluate, space) if e.feasible]
    ranking = sorted(feasible, key=lambda e: e.overall, reverse=True)
    print()
    print(f"feasible: {result.stats['n_feasible']} of 77 (paper: 74 of 76)")
    print(f"optimum: {result.best_schedule} P_all = {result.best_value:.4f} "
          "(paper: (3, 2, 3) with 0.195)")
    print("top five:")
    for entry in ranking[:5]:
        print(f"  {entry.schedule}  P_all = {entry.overall:.4f}")
    rr = shared_evaluator.evaluate(PeriodicSchedule.of(1, 1, 1))
    print(f"round-robin baseline: P_all = {rr.overall:.4f}")
