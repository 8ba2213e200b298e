"""Co-design building blocks: applications, performance index and reporting.

The paper's two-stage framework (Section I) co-designs a set of control
applications sharing a cached microcontroller:

1. for any candidate schedule, a holistic controller design maximizes
   each application's control performance under the induced timing;
2. a schedule-space search maximizes the weighted overall performance.

This package holds the applications and the performance index; both
stages run on one search engine (:mod:`repro.sched.engine`), and
:class:`~repro.study.Study` is the main entry point.
"""

from .application import ControlApplication
from .performance import overall_performance, performance_index
from .report import render_table

__all__ = [
    "ControlApplication",
    "overall_performance",
    "performance_index",
    "render_table",
]
