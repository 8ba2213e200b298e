"""Source loading, suite configuration and inline ``# lint:`` markers.

The runner parses every checked file exactly once into a
:class:`SourceFile` (AST + raw lines + inline markers); checkers
receive the whole parsed tree as a :class:`LintContext` so a rule
that needs more than one file needs no second pass.

Inline markers are the explicit, reviewable escape hatch::

    except Exception:  # lint: allow-broad-except(worker must never die)
    started = time.perf_counter()  # lint: allow-ambient(wall-time stats)

A marker *requires* a non-empty reason — an empty one is itself a
finding, so silencing a rule always leaves a paper trail.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .findings import Finding

#: Rule id used for files the parser itself rejects.
PARSE_RULE = "RPL000"

_MARKER_RE = re.compile(
    r"#\s*lint:\s*(?P<name>[a-z][a-z-]*)\((?P<reason>[^)]*)\)"
)


@dataclass(frozen=True)
class Marker:
    """One inline ``# lint: <name>(<reason>)`` marker."""

    name: str
    reason: str
    line: int


@dataclass(frozen=True)
class LintConfig:
    """Repo-level knobs of the checker suite.

    The defaults describe *this* repository (they are what
    ``python -m repro lint`` runs with); tests of the checkers build
    custom configs for their fixture trees.

    Parameters
    ----------
    determinism_dirs:
        Path components marking design/evaluation code for RPL002 — any
        file with one of these directories in its path must be free of
        ambient state (global RNG, wall-clock reads).
    determinism_allowed:
        Explicit ``(path suffix, qualified call)`` pairs RPL002 accepts
        inside the deterministic scope: the engine's wall-time stats and
        the cache store's entry timestamps are observability, not
        evaluation inputs.
    """

    determinism_dirs: tuple[str, ...] = (
        "control",
        "wcet",
        "sched",
        "multicore",
        "sim",
    )
    determinism_allowed: tuple[tuple[str, str], ...] = (
        # EngineStats / RunReport wall times: observability only.
        ("sched/engine/batch.py", "time.perf_counter"),
        # Persistent-cache entry timestamps: never read back into keys.
        ("sched/engine/store.py", "time.time"),
    )


class SourceFile:
    """One parsed source file: AST, raw lines and inline markers."""

    def __init__(self, path: Path, text: str, tree: ast.Module) -> None:
        self.path = path
        self.text = text
        self.tree = tree
        self.lines = text.splitlines()
        self.markers: dict[int, Marker] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _MARKER_RE.search(line)
            if match is not None:
                self.markers[lineno] = Marker(
                    match.group("name"), match.group("reason").strip(), lineno
                )

    @property
    def posix(self) -> str:
        """Posix-style path string (stable across platforms)."""
        return self.path.as_posix()

    def marker(self, line: int, name: str) -> Marker | None:
        """The ``name`` marker on exactly ``line``, if any."""
        found = self.markers.get(line)
        if found is not None and found.name == name:
            return found
        return None


@dataclass
class LintContext:
    """Everything a checker sees: the parsed tree plus the config."""

    files: list[SourceFile]
    config: LintConfig


def suppression(
    source: SourceFile, line: int, marker_name: str, rule: str
) -> tuple[bool, Finding | None]:
    """Resolve an inline marker at ``line`` for a would-be finding.

    Returns ``(suppressed, replacement)``: a marker with a reason
    suppresses the finding outright; a marker with an *empty* reason
    suppresses it but yields a replacement finding demanding the
    reason; no marker suppresses nothing.
    """
    marker = source.marker(line, marker_name)
    if marker is None:
        return False, None
    if marker.reason:
        return True, None
    return True, Finding(
        source.posix,
        line,
        1,
        rule,
        f"'# lint: {marker_name}(...)' needs a non-empty reason",
    )


def collect_paths(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a deduplicated ``*.py`` file list."""
    expanded: list[Path] = []
    for path in paths:
        if path.is_dir():
            expanded.extend(
                sorted(
                    candidate
                    for candidate in path.rglob("*.py")
                    if "__pycache__" not in candidate.parts
                )
            )
        else:
            expanded.append(path)
    seen: set[Path] = set()
    unique: list[Path] = []
    for path in expanded:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def load_files(paths: Sequence[Path]) -> tuple[list[SourceFile], list[Finding]]:
    """Parse every path; unparseable files become ``RPL000`` findings."""
    files: list[SourceFile] = []
    findings: list[Finding] = []
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(
                Finding(path.as_posix(), 1, 1, PARSE_RULE, f"unreadable file: {exc}")
            )
            continue
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path.as_posix(),
                    exc.lineno or 1,
                    (exc.offset or 0) + 1,
                    PARSE_RULE,
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        files.append(SourceFile(path, text, tree))
    return files, findings


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted modules/objects they import.

    ``import numpy as np`` maps ``np -> numpy``; ``import time`` maps
    ``time -> time``; ``from time import perf_counter`` maps
    ``perf_counter -> time.perf_counter``.  Relative imports are
    project-internal and never resolve to an ambient-state module, so
    they are skipped.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def resolve_call(func: ast.expr, aliases: dict[str, str]) -> str | None:
    """Dotted qualified name of a call target, or ``None``.

    Follows attribute chains down to a root :class:`ast.Name` and
    substitutes the root through the import table, so ``np.random.seed``
    resolves to ``numpy.random.seed`` regardless of the local alias.
    Calls on non-imported roots (locals, attributes of ``self``) return
    ``None`` — an instance method like ``rng.normal`` is exactly the
    seeded, threaded-through randomness RPL002 wants to encourage.
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id)
    if root is None:
        return None
    if not parts:
        return root
    return ".".join([root, *reversed(parts)])
