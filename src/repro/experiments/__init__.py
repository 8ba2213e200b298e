"""Paper-artifact regeneration (one module per table/figure).

Every experiment registers itself with the **experiment registry**
(:mod:`repro.experiments.registry`, one
:class:`~repro.registry.Registry` like every plugin registry): resolve one with
:func:`get_experiment`, list them with :func:`available_experiments`,
run one with :func:`run_experiment`, which returns a structured,
JSON-round-tripping :class:`ExperimentReport` and persists/resumes it
under a run directory.  ``python -m repro experiments`` lists them from
the command line and ``python -m repro experiment <name>`` runs one.

The mapping to the paper:

==============  ======================================================
``table1``      Table I — WCETs with and without cache reuse
``table2``      Table II — application parameters
``table3``      Table III — settling-time comparison (1,1,1) vs (3,2,3)
``fig6``        Figure 6 — system-output responses under both schedules
``search``      Section V search statistics — exhaustive vs hybrid
``multicore``   Section VI multicore extension — partitioning gain
``shared_cache``  private caches vs one way-partitioned shared cache
==============  ======================================================

A run is described by an :class:`ExperimentRequest` — a
:class:`~repro.study.RunSpec` plus the design budget, engine
configuration, output directory and progress callback; each experiment
declares the spec fields it honours as ``run_fields``.  The table and
figure modules also keep a small ``run(...)`` returning a result object
with a ``render()`` method, for direct library use.
"""

from .profiles import design_options_for_profile, current_profile
from .registry import (
    ExperimentRequest,
    ExperimentSpec,
    available_experiments,
    experiment_description,
    get_experiment,
    register_experiment,
    run_experiment,
    unregister_experiment,
)
from .report import ExperimentReport

__all__ = [
    "ExperimentReport",
    "ExperimentRequest",
    "ExperimentSpec",
    "available_experiments",
    "current_profile",
    "design_options_for_profile",
    "experiment_description",
    "get_experiment",
    "register_experiment",
    "run_experiment",
    "unregister_experiment",
]
