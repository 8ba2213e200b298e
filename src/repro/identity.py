"""Canonical identity of run inputs: one encoder behind every digest.

"Is this the same run?" is asked in four places: the engine's
persistent-cache keys, run-dir resume of scenario reports, experiment
resume and the serve job digest.  All of them answer it with this
module.  :func:`canonical` turns a dataclass tree into a JSON tree by
walking *every* field, so no identity field list is ever written down
by hand: a new field joins every identity it is reachable from.  A
field opts out on its own declaration::

    program: Program | None = field(default=None, metadata=NON_IDENTITY)

which is for labels, output paths, callbacks and engine plumbing —
what changes *how* or *where* a run happens, never *what* it computes.

Dataclasses encode as objects of their identity fields, ndarrays and
numpy scalars as their ``tolist()`` form, enums as their value, tuples
as lists.  Floats keep full ``repr`` precision, so two bit-identical
inputs always encode identically.  Any other type raises
:class:`TypeError`: an input the encoder cannot see is an error, never
silently dropped.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from typing import Any

#: ``field(metadata=NON_IDENTITY)`` keeps a dataclass field out of
#: every identity encoding.
NON_IDENTITY = {"identity": False}

_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _identity_fields(cls: type) -> tuple[str, ...] | None:
    """Names of the identity fields of a dataclass type, else ``None``."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(
        item.name
        for item in dataclasses.fields(cls)
        if item.metadata.get("identity", True)
    )


def canonical(value: Any) -> Any:
    """The JSON tree identifying ``value`` (idempotent on JSON trees)."""
    if type(value) in _JSON_SCALARS:
        return value
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    names = _identity_fields(type(value))
    if names is not None:
        return {name: canonical(getattr(value, name)) for name in names}
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, float):  # subclasses, e.g. numpy.float64
        return float(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return str(value)
    if isinstance(value, dict):
        tree: dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"identity dict keys must be str, got {type(key).__name__}"
                )
            tree[key] = canonical(item)
        return tree
    if hasattr(value, "dtype") and hasattr(value, "tolist"):
        return canonical(value.tolist())  # numpy arrays and scalars
    raise TypeError(
        f"no identity encoding for {type(value).__name__} values; mark the "
        "field field(metadata=NON_IDENTITY) if it never affects results"
    )


def encode(value: Any) -> str:
    """Canonical JSON text of ``value`` (sorted keys, no whitespace)."""
    return _dumps(canonical(value))


def _dumps(tree: Any) -> str:
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    """SHA-256 hex digest of :func:`encode`."""
    return hashlib.sha256(encode(value).encode("utf-8")).hexdigest()


def diff(a: Any, b: Any) -> list[str]:
    """Sorted top-level fields whose encodings differ between ``a`` and
    ``b`` (empty exactly when their digests agree).

    Either side may be a live value or a stored encoding; a field
    present on one side only counts as differing.  Non-object values
    differ as a whole, named ``"<value>"``.
    """
    left, right = canonical(a), canonical(b)
    if not (isinstance(left, dict) and isinstance(right, dict)):
        left, right = {"<value>": left}, {"<value>": right}
    return sorted(
        name
        for name in left.keys() | right.keys()
        if name not in left
        or name not in right
        or _dumps(left[name]) != _dumps(right[name])
    )
