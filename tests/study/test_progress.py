"""``watch_line``: one line per streamed study/engine event (``repro watch``)."""

from types import SimpleNamespace

from repro.sched.engine.events import BatchCompleted, BatchSubmitted, EngineEvent
from repro.sim.events import TaskArrival
from repro.study.events import (
    ScenarioFinished,
    ScenarioProgress,
    ScenarioResumed,
    ScenarioStarted,
    SimulationFinished,
    SimulationProgress,
)
from repro.study.progress import watch_line

AT = dict(index=0, n_scenarios=1, scenario="synth-000")
REPORT = SimpleNamespace(overall=0.61523)


def completed(best):
    return BatchCompleted(
        n_batch=3, n_requested=5, n_memo_hits=1, n_disk_hits=1,
        n_duplicates=0, n_computed=3, best_overall=best,
    )


def test_started():
    event = ScenarioStarted(**AT, strategy="hybrid", n_cores=2)
    assert watch_line(event) == "scenario synth-000 started (hybrid, 2 core(s))"


def test_started_without_a_strategy():
    event = ScenarioStarted(**AT, strategy=None, n_cores=1)
    assert watch_line(event) == "scenario synth-000 started (default, 1 core(s))"


def test_batch_completed():
    event = ScenarioProgress(**AT, engine=completed(0.42))
    assert watch_line(event) == "scenario synth-000: 3 computed / 5 requested, best 0.4200"


def test_batch_completed_without_a_best():
    event = ScenarioProgress(**AT, engine=completed(None))
    assert watch_line(event) == "scenario synth-000: 3 computed / 5 requested"


def test_batch_submitted():
    event = ScenarioProgress(**AT, engine=BatchSubmitted(n_batch=4, n_requested=9))
    assert watch_line(event) == "scenario synth-000: batch of 4 submitted"


def test_other_engine_event():
    event = ScenarioProgress(**AT, engine=EngineEvent())
    assert watch_line(event) == "scenario synth-000: EngineEvent"


def test_simulation_progress():
    event = SimulationProgress(**AT, sim=TaskArrival(time=0.25, app="C1"))
    assert watch_line(event) == "scenario synth-000: t=0.2500 TaskArrival"


def test_simulation_finished():
    event = SimulationFinished(**AT, report=None, mean_cost=0.53191, n_adaptations=2)
    assert watch_line(event) == (
        "scenario synth-000 simulated: mean cost 0.5319, 2 adaptation(s)"
    )


def test_resumed():
    event = ScenarioResumed(**AT, report=REPORT)
    assert watch_line(event) == "scenario synth-000 resumed from disk (P_all = 0.6152)"


def test_finished():
    event = ScenarioFinished(
        **AT, report=REPORT, wall_time=1.5, n_computed_total=7, throughput=4.7
    )
    assert watch_line(event) == "scenario synth-000 finished in 1.50 s (P_all = 0.6152)"


def test_unknown_event_is_named():
    assert watch_line(completed(None)) == "BatchCompleted"
