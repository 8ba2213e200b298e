"""Discrete-time control substrate (Sections II-A and III of the paper).

Provides the control-theoretic machinery the co-design needs:

* :class:`~repro.control.lti.LtiPlant` — continuous-time SISO LTI plants;
* :mod:`~repro.control.discretize` — exact ZOH discretization, including
  the delayed-input split used for sensing-to-actuation delays;
* :mod:`~repro.control.ackermann` — SISO pole placement;
* :mod:`~repro.control.lifted` — the holistic lifted closed-loop matrix
  ``A_hol`` of the paper's eq. (16), generalized to any number of
  consecutive tasks;
* :mod:`~repro.control.simulate` — batched worst-case tracking
  simulation with intersample output checking;
* :mod:`~repro.control.pso` — the particle-swarm optimizer;
* :mod:`~repro.control.design` — the holistic controller design that
  maximizes control performance for a given schedule timing, computed
  by the one design kernel :mod:`~repro.control.lockstep`.
"""

from .lti import LtiPlant
from .discretize import zoh, zoh_delayed
from .ackermann import controllability_matrix, place_poles_siso
from .lifted import Segment, build_segments, lifted_closed_loop, feedforward_gain
from .metrics import quadratic_cost, overshoot, settling_time_of_trajectory
from .pso import PsoOptions, PsoResult, pso_minimize_many
from .simulate import (
    SimulationPlan,
    TrackingResult,
    build_simulation_plan,
    simulate_tracking,
)
from .design import (
    ControllerDesign,
    DesignOptions,
    TrackingSpec,
    design_controller,
)

__all__ = [
    "ControllerDesign",
    "DesignOptions",
    "LtiPlant",
    "PsoOptions",
    "PsoResult",
    "Segment",
    "SimulationPlan",
    "TrackingResult",
    "TrackingSpec",
    "build_segments",
    "build_simulation_plan",
    "controllability_matrix",
    "design_controller",
    "feedforward_gain",
    "lifted_closed_loop",
    "overshoot",
    "place_poles_siso",
    "pso_minimize_many",
    "quadratic_cost",
    "settling_time_of_trajectory",
    "simulate_tracking",
    "zoh",
    "zoh_delayed",
]
