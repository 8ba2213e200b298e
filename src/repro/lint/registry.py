"""Pluggable lint-checker registry.

A *checker* is the unit of extensibility of the static-analysis suite:
it receives the parsed tree of every checked file
(:class:`~repro.lint.context.LintContext`) and yields
:class:`~repro.lint.findings.Finding` records.  Checkers register
themselves by name with :func:`register_checker`; the runner and the
CLI (``python -m repro lint``) resolve names through
:func:`get_checker`, so an unknown name fails fast with the list of
registered checkers — the one :class:`~repro.registry.Registry`
contract shared by every plugin registry.

Two checkers are builtin, one per repo invariant no runtime check
covers: ``determinism`` (RPL002) and ``broad-except`` (RPL004).
RPL001 (cache-key completeness) and RPL003 (registry contracts) are
retired: cache keys encode every dataclass field by construction (see
:mod:`repro.identity`), and every :class:`~repro.registry.Registry`
checks the members of its ``Protocol`` when a plugin registers.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

from ..errors import ConfigurationError
from ..registry import Registry
from .context import LintContext
from .findings import Finding


@runtime_checkable
class LintChecker(Protocol):
    """What a pluggable checker must provide.

    ``name`` is the registry key, ``code`` the stable rule identifier
    stamped on every finding (``RPL...``), and ``check`` inspects the
    parsed tree and yields the violations it finds.
    """

    name: str
    code: str

    def check(self, context: LintContext) -> Iterable[Finding]:
        ...


def _check_code(checker: LintChecker) -> None:
    """A checker's ``code`` is the non-empty rule id of its findings."""
    if not isinstance(checker.code, str) or not checker.code:
        raise ConfigurationError(
            f"lint checker {checker.name!r} must define a non-empty string "
            "`code` (the rule id stamped on its findings, e.g. 'RPL002')"
        )


def _ensure_builtins() -> None:
    """Import the builtin checker modules (each registers itself)."""
    from . import determinism, exceptions  # noqa: F401


#: The lint-checker registry (see :class:`repro.registry.Registry`).
CHECKERS: Registry[LintChecker] = Registry(
    "lint checker",
    "checkers",
    protocol=LintChecker,
    check=_check_code,
    builtins=_ensure_builtins,
)

register_checker = CHECKERS.register
unregister_checker = CHECKERS.unregister
available_checkers = CHECKERS.available
get_checker = CHECKERS.get
checker_description = CHECKERS.describe
