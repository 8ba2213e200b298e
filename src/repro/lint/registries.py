"""RPL003 — registry contracts.

Every extension point of the repo (search strategies, WCET models,
experiments, lint checkers, partition allocators) is one instance of
the single :class:`~repro.registry.Registry` mechanism, which makes
two promises:

1. a registered plugin structurally satisfies its protocol, so it
   fails at *registration*, not deep inside a study run;
2. lookups fail fast with :class:`~repro.errors.ConfigurationError`
   naming the registered entries — never a bare ``ValueError`` or a
   ``KeyError`` leaking from the backing dict.

The registry checks promise 1 at run time; this checker enforces both
statically, so a broken plugin is caught before it is imported
(``CONTRACTS`` is tested to equal the members each runtime registry
declares). For every class decorated with one of the ``register_*``
decorators it verifies the protocol members are provided in the class
body (attributes assigned or annotated, methods defined, including
``self.x = ...`` in methods); base classes make members unresolvable
from one AST, so subclassing plugins are given the benefit of the
doubt. For every module that owns a hand-rolled ``_REGISTRY`` dict it
verifies the registry accessors (``register_*``, ``get_*``,
``available_*``, ``unregister_*``) neither ``raise`` builtin lookup
errors nor index ``_REGISTRY[...]`` directly on the read path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from .context import LintContext, SourceFile
from .findings import Finding
from .registry import register_checker


@dataclass(frozen=True)
class Contract:
    """Protocol members a ``register_*`` decorator demands."""

    attributes: tuple[str, ...]
    methods: tuple[str, ...]


#: decorator name -> structural contract of the matching protocol.
CONTRACTS: dict[str, Contract] = {
    "register_strategy": Contract(("name", "options_type"), ("run",)),
    "register_wcet_model": Contract(("name",), ("analyze",)),
    "register_experiment": Contract(("name", "supports_out"), ("build", "render")),
    "register_checker": Contract(("name", "code"), ("check",)),
    "register_allocator": Contract(("name", "options_type"), ("partitions",)),
}

_BAD_RAISES = {"ValueError", "KeyError", "LookupError", "IndexError"}
_ACCESSOR_PREFIXES = ("register_", "get_", "available_", "unregister_")


def _decorator_name(node: ast.expr) -> str | None:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _provided_members(cls: ast.ClassDef) -> tuple[set[str], set[str]]:
    """``(attributes, methods)`` the class body visibly provides."""
    attributes: set[str] = set()
    methods: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.add(stmt.name)
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Assign)
                    or isinstance(node, ast.AnnAssign)
                ):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attributes.add(target.attr)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    attributes.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            attributes.add(stmt.target.id)
    return attributes, methods


def _supports_out_true(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "supports_out" for t in stmt.targets
        ):
            value = stmt.value
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "supports_out"
        ):
            value = stmt.value
        if isinstance(value, ast.Constant) and value.value is True:
            return True
    return False


def _check_registered_class(
    source: SourceFile, cls: ast.ClassDef, decorator: str, code: str
) -> Iterable[Finding]:
    if cls.bases:
        # Inherited members are invisible in a single-file AST.
        return
    contract = CONTRACTS[decorator]
    attributes, methods = _provided_members(cls)
    required_methods = list(contract.methods)
    if decorator == "register_experiment" and _supports_out_true(cls):
        required_methods.append("write_outputs")
    for attr in contract.attributes:
        if attr not in attributes and attr not in methods:
            yield Finding(
                source.posix,
                cls.lineno,
                cls.col_offset + 1,
                code,
                f"class '{cls.name}' registered via @{decorator} does not "
                f"provide required attribute '{attr}'",
            )
    for method in required_methods:
        if method not in methods and method not in attributes:
            yield Finding(
                source.posix,
                cls.lineno,
                cls.col_offset + 1,
                code,
                f"class '{cls.name}' registered via @{decorator} does not "
                f"define required method '{method}'",
            )


def _owns_registry(tree: ast.Module) -> bool:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_REGISTRY" for t in stmt.targets
        ):
            return True
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "_REGISTRY"
        ):
            return True
    return False


def _check_accessor(
    source: SourceFile, func: ast.FunctionDef, code: str
) -> Iterable[Finding]:
    for node in ast.walk(func):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name in _BAD_RAISES:
                yield Finding(
                    source.posix,
                    node.lineno,
                    node.col_offset + 1,
                    code,
                    f"registry accessor '{func.name}' raises {name}; raise "
                    "ConfigurationError naming the registered entries instead",
                )
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "_REGISTRY"
            and isinstance(node.ctx, ast.Load)
            and func.name.startswith("get_")
        ):
            yield Finding(
                source.posix,
                node.lineno,
                node.col_offset + 1,
                code,
                f"registry accessor '{func.name}' indexes _REGISTRY[...] "
                "directly; a missing name leaks KeyError — use .get() and "
                "raise ConfigurationError",
            )


@register_checker
class RegistryContractChecker:
    """RPL003: registered plugins satisfy their protocol; lookups fail typed."""

    name = "registry-contract"
    code = "RPL003"

    def check(self, context: LintContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        for source in context.files:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    for dec in node.decorator_list:
                        name = _decorator_name(dec)
                        if name in CONTRACTS:
                            findings.extend(
                                _check_registered_class(
                                    source, node, name, self.code
                                )
                            )
            if _owns_registry(source.tree):
                for stmt in source.tree.body:
                    if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith(
                        _ACCESSOR_PREFIXES
                    ):
                        findings.extend(
                            _check_accessor(source, stmt, self.code)
                        )
        return findings
