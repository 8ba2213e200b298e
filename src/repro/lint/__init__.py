"""``repro.lint`` — AST-based invariant checkers for this repository.

The reproduction has invariants no generic linter knows about: design
and evaluation code must be deterministic, and errors must never be
silently swallowed.  (Cache-key completeness needs no checker — every
key is the canonical encoding of all dataclass fields, see
:mod:`repro.identity` — and neither do registry contracts: each
:class:`~repro.registry.Registry` checks its ``Protocol`` at
registration.)
This package turns each one into a checker over the stdlib :mod:`ast`
(no third-party dependencies) with stable rule ids:

========  ===================  ===============================================
rule      checker name         invariant
========  ===================  ===============================================
RPL000    (runner)             files must parse
RPL002    ``determinism``      no global RNG / wall-clock in evaluation code
RPL004    ``broad-except``     no swallowed ``except Exception``
========  ===================  ===============================================

Checkers live in a registry mirroring the strategy / WCET-model /
experiment registries; third parties add rules with
:func:`register_checker`.  Run the suite with ``python -m repro lint``
or programmatically via :func:`run_lint`.
"""

from .context import LintConfig, LintContext, Marker, SourceFile
from .findings import Finding
from .registry import (
    LintChecker,
    available_checkers,
    checker_description,
    get_checker,
    register_checker,
    unregister_checker,
)
from .runner import (
    REPORT_SCHEMA_VERSION,
    default_paths,
    render_json,
    render_text,
    run_lint,
)

__all__ = [
    "Finding",
    "LintChecker",
    "LintConfig",
    "LintContext",
    "Marker",
    "REPORT_SCHEMA_VERSION",
    "SourceFile",
    "available_checkers",
    "checker_description",
    "default_paths",
    "get_checker",
    "register_checker",
    "render_json",
    "render_text",
    "run_lint",
    "unregister_checker",
]
