"""Feedback scheduling: adapt the schedule when the load moves.

Runs the paper's case study through the discrete-event simulator
(repro.sim) under the canonical load transient — nominal demand, an
overload burst that pushes the static optimum past its scaled idle
budget, then recovery — twice: once holding the offline optimum for
the whole horizon (static), once with the feedback loop re-optimizing
on every load change through the ``online`` strategy on the warm
engine (adaptive).  Prints the live simulation timeline while each run
plays, then the static-vs-adaptive comparison.

Run:  python examples/feedback_scheduling.py
"""

import os

# Keep the example snappy; remove for publication-grade numbers.
os.environ.setdefault("REPRO_PROFILE", "quick")

from repro.experiments import ExperimentRequest, get_experiment, run_experiment
from repro.experiments.registry import render_experiment
from repro.sim import LoadDisturbance, PlantModeChange, ScheduleSwitch
from repro.study import SimulationProgress


def on_event(study_event) -> None:
    """Render the simulation timeline as it happens."""
    if not isinstance(study_event, SimulationProgress):
        return
    event = study_event.sim
    if isinstance(event, LoadDisturbance):
        demands = ", ".join(f"{d:g}" for d in event.demands)
        print(f"  t={event.time:.3f}s  load -> ({demands})")
    elif isinstance(event, ScheduleSwitch):
        print(
            f"  t={event.time:.3f}s  schedule -> {event.counts}"
            f" [{event.reason}]"
        )
    elif isinstance(event, PlantModeChange):
        print(
            f"  t={event.time:.3f}s  {event.app} mode change x{event.factor:g}"
        )


def main() -> None:
    print("simulating the load transient (static run, then adaptive)...")
    report = run_experiment("feedback", ExperimentRequest(on_event=on_event))
    summary = get_experiment("feedback").result_from(report)
    print()
    print(render_experiment("feedback", report))
    print()
    print(
        "adaptive beats static by "
        f"{summary.improvement:+.4f} mean cost over "
        f"{summary.horizon:g}s under a x{summary.stress:g} overload."
    )


if __name__ == "__main__":
    main()
