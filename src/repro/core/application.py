"""The control-application bundle used throughout the co-design."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..control.design import TrackingSpec
from ..control.lti import LtiPlant
from ..errors import ConfigurationError
from ..identity import NON_IDENTITY
from ..program.program import Program
from ..wcet.results import TaskWcets


@dataclass(frozen=True)
class ControlApplication:
    """One feedback-control application of the case study.

    Bundles everything the two-stage framework needs to know about an
    application: the plant it controls, the tracking scenario and
    constraints (Table II), its weight in the overall performance index
    (eq. (2)), its maximum allowed idle time (eq. (4)) and the WCET
    triple of its control program (Table I).

    Parameters
    ----------
    name:
        Application identifier (``C1``, ``C2``, ...).
    plant:
        Continuous-time plant model.
    spec:
        Tracking scenario: reference step, saturation bound and settling
        deadline ``s_max`` (the normalization reference ``s0``).
    weight:
        Weight ``w_i`` in the overall performance (must sum to 1 across
        an application set; checked by the evaluator).
    max_idle:
        Maximum allowed idle time ``t_idle`` in seconds.
    wcets:
        Cold/warm WCET pair of the application's control program.
    program:
        The analysed instruction program (optional; kept for trace-level
        validation experiments).
    """

    name: str
    plant: LtiPlant
    spec: TrackingSpec
    weight: float
    max_idle: float
    wcets: TaskWcets
    #: Trace-validation aid only; evaluation never reads it.
    program: Program | None = field(default=None, metadata=NON_IDENTITY)

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError(
                f"application {self.name!r}: weight must be positive, got {self.weight}"
            )
        if self.max_idle <= 0:
            raise ConfigurationError(
                f"application {self.name!r}: max_idle must be positive, got {self.max_idle}"
            )
        if self.spec.deadline <= 0:
            raise ConfigurationError(
                f"application {self.name!r}: settling deadline must be positive"
            )
