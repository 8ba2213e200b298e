"""The finding record every checker emits.

A :class:`Finding` is one violation at one source location.  Findings
are value objects: hashable (the runner deduplicates them), totally
ordered (reports are sorted by location) and JSON-safe via
:meth:`Finding.to_dict` (the ``--format json`` CI artifact).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One static-analysis violation.

    Parameters
    ----------
    path:
        Posix-style path of the offending file, as given to the runner.
    line / col:
        1-based location of the violation.
    rule:
        Rule identifier (``RPL002`` .. ``RPL004``; ``RPL000`` for files
        the parser itself rejects).
    message:
        Human-readable description including the suggested fix.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The classic ``path:line:col: RULE message`` report line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        """JSON-safe form (stable keys; the ``--format json`` payload)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }
