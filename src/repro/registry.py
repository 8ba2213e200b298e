"""One registry mechanism and one tagged-event base.

:class:`Registry` is the plugin registry behind every extension point:
search strategies (:mod:`repro.sched.strategies`), WCET models
(:mod:`repro.wcet.models`), experiments
(:mod:`repro.experiments.registry`), lint checkers
(:mod:`repro.lint.registry`) and partition allocators
(:mod:`repro.multicore.allocators`).  Each of those modules keeps its
``Protocol`` and declares one ``Registry`` instance; its public
functions (``register_strategy``, ``get_wcet_model``, ...) are bindings
to the instance's methods.  The contract is the same everywhere:

1. registration validates the members of the registry's ``Protocol``
   — its annotated attributes present, its methods callable — so a
   broken plugin fails when it is registered, not deep inside a study
   run.  The members are read off the Protocol itself, so each
   contract is written exactly once;
2. lookups fail fast with :class:`~repro.errors.ConfigurationError`
   naming the registered entries.

:class:`TaggedEvent` is the base of the three typed event families —
engine (:mod:`repro.sched.engine.events`), study
(:mod:`repro.study.events`) and simulation (:mod:`repro.sim.events`).
A direct subclass declared with ``family=...`` is a family root; every
class below it registers under its class name in the root's tag table,
and the root's :meth:`~TaggedEvent.from_dict` decodes only its own
family.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import asdict
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    ClassVar,
    Generic,
    Iterator,
    Mapping,
    TypeVar,
    cast,
)

from .errors import ConfigurationError

T = TypeVar("T")


class Registry(Generic[T]):
    """Name -> plugin instance map that enforces a declared protocol.

    Parameters
    ----------
    kind, plural:
        Labels of the error messages (``unknown <kind> 'x'; registered
        <plural>: a, b``).
    protocol:
        The ``Protocol`` every plugin satisfies; its annotated names
        become :attr:`attributes` and its public functions
        :attr:`methods`, both checked at registration (``name`` is
        always required).
    check:
        Optional extra validation of a named instance; raises
        :class:`~repro.errors.ConfigurationError`.
    builtins:
        Optional loader importing the builtin plugin modules, run on
        first lookup (keeps heavy plugin stacks out of import time).
    """

    def __init__(
        self,
        kind: str,
        plural: str,
        *,
        protocol: type,
        check: Callable[[Any], None] | None = None,
        builtins: Callable[[], None] | None = None,
    ) -> None:
        self.kind = kind
        self.plural = plural
        self.attributes, self.methods = protocol_members(protocol)
        self._check = check
        self._builtins = builtins
        self._entries: dict[str, T] = {}

    def register(self, plugin: Any) -> Any:
        """Register a plugin class (or instance) under its ``name``.

        Usable as a class decorator — a class is instantiated with no
        arguments — and returns its argument so the decorated class
        stays usable.  A missing protocol member or a second
        registration of one name raises
        :class:`~repro.errors.ConfigurationError`.
        """
        instance = plugin() if isinstance(plugin, type) else plugin
        name = getattr(instance, "name", None)
        if not isinstance(name, str) or not name:
            raise ConfigurationError(
                f"{self.kind} {plugin!r} must define a non-empty string `name`"
            )
        for attribute in self.attributes:
            if not hasattr(instance, attribute):
                raise ConfigurationError(
                    f"{self.kind} {name!r} must define `{attribute}`"
                )
        for method in self.methods:
            if not callable(getattr(instance, method, None)):
                raise ConfigurationError(
                    f"{self.kind} {name!r} must define a `{method}` method"
                )
        if self._check is not None:
            self._check(instance)
        if name in self._entries:
            raise ConfigurationError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = instance
        return plugin

    def unregister(self, name: str) -> None:
        """Remove a registered plugin (mainly for tests of third-party
        registration; the builtins should stay registered)."""
        self._entries.pop(name, None)

    def available(self) -> tuple[str, ...]:
        """Names of all registered plugins, sorted."""
        self._load_builtins()
        return tuple(sorted(self._entries))

    def get(self, name: str) -> T:
        """Resolve a plugin name, failing fast on unknown names."""
        self._load_builtins()
        entry = self._entries.get(name)
        if entry is None:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; registered {self.plural}: "
                f"{', '.join(self.available())}"
            )
        return entry

    def items(self) -> Iterator[tuple[str, T]]:
        """``(name, plugin)`` pairs in name order (for listings)."""
        for name in self.available():
            yield name, self._entries[name]

    @staticmethod
    def describe(plugin: object) -> str:
        """First docstring line of a plugin (for listings)."""
        doc = (getattr(plugin, "__doc__", None) or "").strip()
        return doc.splitlines()[0] if doc else ""

    def resolve_options(self, plugin: Any, options: object) -> Any:
        """``options`` validated against ``plugin.options_type``, or
        the plugin's default options when ``None``."""
        if options is None:
            return plugin.options_type()
        if not isinstance(options, plugin.options_type):
            raise ConfigurationError(
                f"{self.kind} {plugin.name!r} takes "
                f"{plugin.options_type.__name__} options, got "
                f"{type(options).__name__}"
            )
        return options

    def _load_builtins(self) -> None:
        loader, self._builtins = self._builtins, None
        if loader is not None:
            loader()


def protocol_members(protocol: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(attributes, methods)`` a ``Protocol`` declares: its annotated
    names and its public functions, bases included, in definition order."""
    attributes: dict[str, None] = {}
    methods: dict[str, None] = {}
    for klass in reversed(protocol.__mro__):
        if not getattr(klass, "_is_protocol", False) or klass.__module__ == "typing":
            continue
        attributes.update(dict.fromkeys(inspect.get_annotations(klass)))
        methods.update(
            (name, None)
            for name, value in vars(klass).items()
            if inspect.isfunction(value) and not name.startswith("_")
        )
    return tuple(attributes), tuple(methods)


class TaggedEvent:
    """Base of the frozen-dataclass event families with a tagged JSON form.

    ``to_dict`` records the concrete class name under ``"event"``;
    ``from_dict`` on a family root (or any of its members) rebuilds
    the concrete event, and unknown or malformed payloads raise
    :class:`~repro.errors.ConfigurationError` naming the family's known
    events.  Subclasses customize nested fields through the
    :meth:`_payload` / :meth:`_from_payload` hooks.
    """

    _family: ClassVar[str]
    _types: ClassVar[dict[str, type["TaggedEvent"]]]

    def __init_subclass__(cls, family: str | None = None, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if family is not None:
            cls._family = family
            cls._types = {}
        else:
            cls._types[cls.__name__] = cls

    @classmethod
    def event_types(cls) -> Mapping[str, type["TaggedEvent"]]:
        """Read-only tag table of this event's family: class name ->
        concrete event class."""
        return MappingProxyType(cls._types)

    def to_dict(self) -> dict:
        """JSON-safe form, tagged with the concrete event class."""
        data: dict = {"event": type(self).__name__}
        data.update(self._payload())
        return data

    def _payload(self) -> dict:
        """The event's fields as JSON-safe values (subclass hook)."""
        return asdict(cast(Any, self))

    def to_json(self) -> str:
        """Stable JSON form (inverse of :meth:`from_json`)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> Any:
        """Rebuild the concrete event ``to_dict`` encoded."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"{cls._family} event payload must be an object, "
                f"got {type(data).__name__}"
            )
        payload = dict(data)
        name = payload.pop("event", None)
        event_type = cls._types.get(name) if isinstance(name, str) else None
        if event_type is None:
            raise ConfigurationError(
                f"unknown {cls._family} event {name!r}; known events: "
                f"{', '.join(sorted(cls._types))}"
            )
        try:
            return event_type._from_payload(payload)
        except (TypeError, KeyError, ValueError) as exc:
            raise ConfigurationError(f"invalid {name} payload: {exc}") from exc

    @classmethod
    def _from_payload(cls, payload: dict) -> Any:
        """Construct from a decoded payload (subclass hook)."""
        return cast(Any, cls)(**payload)

    @classmethod
    def from_json(cls, text: str) -> Any:
        """Inverse of :meth:`to_json` (identity round-trip)."""
        return cls.from_dict(json.loads(text))
