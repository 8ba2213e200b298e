"""One description of a run: :class:`RunSpec`.

A run is the paper case study (``kind="search"``) or a synthesized
workload suite (``kind="suite"``) plus every choice that changes what
it computes: strategy and options, starts, seed, cores, platform,
partition allocator, replication, dynamic profile.  Every front end
builds one and nothing else:

* the library — :meth:`~repro.study.Study.from_spec` (the
  ``from_case_study``/``from_suite`` builders forward into it);
* the CLI run commands — :func:`add_run_flags` generates their flags
  from the field metadata and :func:`spec_from_args` reads them back;
* the server — :class:`~repro.serve.jobs.JobSpec` subclasses it.

The spec owns the rules of a run: :meth:`RunSpec.validate` checks it
without building anything, and :meth:`RunSpec.to_dict` /
:meth:`RunSpec.from_dict` are its strict JSON form (the platform as
its :meth:`~repro.platform.Platform.fingerprint`, option objects
decoded through the ``options_type`` of the plugin they configure).

Field metadata keys: ``cli`` — ``(flag, argparse kwargs)`` pairs;
``kinds`` — the run kinds the field applies to (elsewhere it must keep
its default); ``choices`` and ``min`` — value checks; ``wire`` — an
``(encode, decode)`` pair for values that are not JSON already;
``plugin`` — the :class:`RunSpec` method resolving the plugin an
options field configures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import types
import typing
from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterator

from ..errors import ConfigurationError, ReproError
from ..identity import canonical
from ..platform import Platform, platform_from_fingerprint
from ..sim.profiles import DynamicProfile
from ..units import Clock

#: Bump when the JSON layout changes incompatibly.
SPEC_SCHEMA_VERSION = 1

#: What a run covers: the paper case study, or a synthesized suite.
RUN_KINDS = ("search", "suite")

#: Applications of the paper case study (before ``n_apps`` replication).
CASE_STUDY_APPS = 3


def _spec_field(default: Any, *cli: tuple[str, dict], kinds=RUN_KINDS, **metadata: Any) -> Any:
    return field(default=default, metadata={"cli": cli, "kinds": kinds, **metadata})


def _flag(flag: str, help: str, **kwargs: Any) -> tuple[str, dict]:
    return flag, {"help": help, **kwargs}


def _parse_counts(text: str) -> tuple[int, ...]:
    """One ``--starts`` schedule: comma-separated iteration counts."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid schedule {text!r}: expected comma-separated counts, e.g. 4,2,2"
        ) from None


_SEARCH, _SUITE = ("search",), ("suite",)


@dataclass(frozen=True)
class RunSpec:
    """What one run computes (see the module docstring).

    ``kind="search"`` runs the paper case study: a single-core search,
    or with ``n_cores > 1`` a multicore co-design, on the case study
    replicated to ``n_apps`` applications when set; ``dynamic``
    attaches a :class:`~repro.sim.profiles.DynamicProfile` simulated
    after the search.  ``kind="suite"`` sweeps ``suite_size``
    synthesized scenarios (see
    :func:`~repro.sched.engine.batch.synthesize_scenarios`), each
    drawing its own platform with ``jitter_platform`` and its own
    random dynamic profile with ``random_dynamic``.  ``platform=None``
    is the paper platform.
    """

    kind: str = _spec_field("search", choices=RUN_KINDS)
    strategy: str | None = _spec_field(None, _flag(
        "--strategy", "registered search strategy (see `python -m repro strategies`); "
        "default: hybrid (exhaustive per core for multicore)"))
    options: object | None = _spec_field(None, kinds=_SEARCH, plugin="strategy_plugin")
    starts: tuple[tuple[int, ...], ...] | None = _spec_field(None, _flag(
        "--starts", "e.g. --starts 4,2,2 1,2,1", nargs="*", type=_parse_counts
    ), kinds=_SEARCH)
    n_starts: int = _spec_field(2, _flag(
        "--n-starts", "deterministic start schedules when --starts is omitted", type=int
    ), kinds=_SEARCH, min=1)
    seed: int = _spec_field(
        2018, _flag("--seed", "search seed (a suite's synthesis seed)", type=int)
    )
    n_cores: int = _spec_field(1, _flag(
        "--cores", "co-design over this many cores (1 = single-core search)", type=int
    ), min=1)
    max_count_per_core: int = _spec_field(6, _flag(
        "--max-count-per-core", "burst-length cap per core (bounds lone-app schedule spaces)",
        type=int,
    ), kinds=_SEARCH, min=1)
    platform: Platform | None = _spec_field(
        None,
        _flag("--wcet-model", "registered WCET model to (re)analyze the programs with "
              "(see `python -m repro models`); default: static"),
        _flag("--cache-sets", "instruction-cache sets (default: 128; 32 with --shared-cache)",
              type=int),
        _flag("--cache-ways", "instruction-cache ways (default: 1; 4 with --shared-cache)",
              type=int),
        _flag("--miss-cycles", "cache-miss latency in cycles (default: 100)", type=int),
        _flag("--clock-mhz", "processor clock in MHz (default: 20)", type=float),
        wire=(Platform.fingerprint, platform_from_fingerprint),
    )
    shared_cache: bool = _spec_field(False, _flag(
        "--shared-cache", "cores share one set-associative cache whose way allocation is "
        "co-optimized with the partition (needs --cores >= 2; default geometry: 32 sets "
        "x 4 ways)", action="store_true"))
    allocator: str | None = _spec_field(None, _flag(
        "--allocator", "registered partition allocator for multicore co-designs "
        "(see `python -m repro allocators`); default: exhaustive"))
    allocator_options: object | None = _spec_field(None, plugin="allocator_plugin")
    n_apps: int | None = _spec_field(None, _flag(
        "--apps", "replicate the case-study workload to this many applications (round-robin "
        "copies, re-normalized weights) so --cores can exceed the three paper apps", type=int
    ), kinds=_SEARCH, min=CASE_STUDY_APPS)
    dynamic: DynamicProfile | None = _spec_field(
        None, kinds=_SEARCH, wire=(DynamicProfile.to_dict, DynamicProfile.from_dict)
    )
    suite_size: int = _spec_field(4, _flag(
        "--suite-size", "number of synthesized scenarios", type=int
    ), kinds=_SUITE, min=1)
    n_apps_choices: tuple[int, ...] = _spec_field((2, 3), kinds=_SUITE)
    jitter_platform: bool = _spec_field(False, _flag(
        "--jitter-platform", "draw a fresh cache geometry and clock per scenario",
        action="store_true",
    ), kinds=_SUITE)
    random_dynamic: bool = _spec_field(False, _flag(
        "--dynamic", "draw a load-transient profile per scenario and simulate the feedback "
        "loop after each search (single-core only)", action="store_true",
    ), kinds=_SUITE)

    @property
    def app_count(self) -> int:
        """Applications of a case-study run (replication included)."""
        return self.n_apps if self.n_apps is not None else CASE_STUDY_APPS

    def strategy_plugin(self) -> Any:
        """The registered strategy this run searches with."""
        # Imported lazily: repro.sched builds the registries' builtins.
        from ..sched.strategies import get_strategy

        default = "hybrid" if self.n_cores == 1 else "exhaustive"
        return get_strategy(self.strategy or default)

    def allocator_plugin(self) -> Any:
        """The registered partition allocator of a multicore run."""
        # Lazily imported: repro.multicore builds on repro.sched.
        from ..multicore.allocators import get_allocator

        return get_allocator(self.allocator or "exhaustive")

    def validate(self, n_apps: int | None = None) -> "RunSpec":
        """Fail fast on anything the run would reject later.

        Registry names resolve exactly as the run resolves them, so an
        unknown name fails naming the registered alternatives; nothing
        is built.  A field that does not apply to the run's ``kind``
        must keep its default — otherwise it would change the spec's
        identity without changing the run.  A ``kind="search"`` run is
        checked against ``n_apps`` applications (default:
        :attr:`app_count`; see :meth:`check_apps`).  Returns ``self``.
        """
        for item in fields(self):
            value = getattr(self, item.name)
            choices = item.metadata.get("choices")
            if choices is not None and value not in choices:
                raise ConfigurationError(
                    f"unknown {item.name} {value!r}; choose from {', '.join(choices)}"
                )
            kinds = item.metadata.get("kinds", RUN_KINDS)
            if self.kind not in kinds and value != item.default:
                raise ConfigurationError(
                    f"{item.name} applies to kind={kinds[0]!r} runs only; "
                    f"got {item.name}={value!r} on a kind={self.kind!r} run"
                )
            minimum = item.metadata.get("min")
            if minimum is not None and value is not None and value < minimum:
                raise ConfigurationError(f"{item.name} must be >= {minimum}, got {value}")
        # Lazily imported: the registries' modules build on repro.sched.
        from ..multicore.allocators import ALLOCATORS
        from ..sched.strategies.base import STRATEGIES

        STRATEGIES.resolve_options(self.strategy_plugin(), self.options)
        if self.n_cores < 2:
            for name in ("shared_cache", "allocator", "allocator_options"):
                if getattr(self, name):
                    raise ConfigurationError(
                        f"{name} requires n_cores >= 2 (it applies to "
                        "multicore co-designs only)"
                    )
        else:
            ALLOCATORS.resolve_options(self.allocator_plugin(), self.allocator_options)
            # A suite's jittered platforms keep the base cache's ways.
            ways = (self.platform or Platform()).cache.associativity
            if self.shared_cache and ways < self.n_cores:
                raise ConfigurationError(
                    f"shared-cache co-design over {self.n_cores} cores needs a "
                    f"cache with associativity >= {self.n_cores}, got {ways} "
                    "(e.g. use repro.platform.shared_paper_platform())"
                )
            if self.dynamic is not None or self.random_dynamic:
                raise ConfigurationError(
                    "feedback-scheduling simulation (dynamic) is "
                    f"single-core only; got n_cores={self.n_cores}"
                )
        if self.kind == "search":
            self.check_apps(self.app_count if n_apps is None else n_apps)
        elif not self.n_apps_choices or not all(
            1 <= count <= CASE_STUDY_APPS for count in self.n_apps_choices
        ):
            raise ConfigurationError(
                f"n_apps_choices must draw from 1..{CASE_STUDY_APPS} applications, "
                f"got {self.n_apps_choices!r}"
            )
        if self.platform is not None:
            from ..wcet.models import get_wcet_model

            get_wcet_model(self.platform.wcet_model)  # raises with the registry
        return self

    def check_apps(self, count: int) -> None:
        """The rules that depend on the run's application count: at most
        one core per application, one positive count per application in
        every start, and a dynamic profile sized to the applications."""
        if self.n_cores > count:
            raise ConfigurationError(
                f"n_cores={self.n_cores} exceeds the {count} applications of the "
                "run; n_cores must be between 1 and the application count (raise "
                "n_apps to replicate the case study)"
            )
        for counts in self.starts or ():
            if len(counts) != count or any(c < 1 for c in counts):
                raise ConfigurationError(
                    f"invalid start {list(counts)!r}: need {count} positive iteration "
                    "counts, one per application"
                )
        if self.dynamic is not None:
            if not isinstance(self.dynamic, DynamicProfile):
                raise ConfigurationError(
                    f"dynamic takes a DynamicProfile, got {type(self.dynamic).__name__}"
                )
            self.dynamic.check_apps(count)

    def suite_scenario(self, **changes: Any) -> "RunSpec":
        """The spec of one scenario of this suite: a single run
        (``kind="search"``) with the suite-level fields back at their
        defaults, and ``changes`` applied."""
        suite_fields = {
            item.name: item.default
            for item in fields(RunSpec)
            if "search" not in item.metadata["kinds"]
        }
        return replace(self, kind="search", **suite_fields, **changes)

    def resolved(self, n_apps: int | None = None) -> "RunSpec":
        """This single-run spec validated (see :meth:`validate`) as a
        plain :class:`RunSpec` with the run's defaults filled in: the
        strategy (``hybrid``, or ``exhaustive`` per core for multicore
        runs) and, for multicore runs, the allocator (``exhaustive``)."""
        if self.kind != "search":
            raise ConfigurationError(
                "a scenario is a single run (kind='search'); expand a "
                "kind='suite' spec with synthesize_scenarios"
            )
        self.validate(n_apps)
        values = {item.name: getattr(self, item.name) for item in fields(RunSpec)}
        values["strategy"] = self.strategy_plugin().name
        if self.n_cores > 1:
            values["allocator"] = self.allocator_plugin().name
        return RunSpec(**values)

    def to_dict(self) -> dict:
        """JSON-safe form (inverse of :meth:`from_dict`)."""
        data: dict = {"schema_version": SPEC_SCHEMA_VERSION}
        for item in fields(self):
            value = getattr(self, item.name)
            wire = item.metadata.get("wire")
            if wire is not None and value is not None:
                value = wire[0](value)
            data[item.name] = canonical(value)
        return data

    def to_json(self) -> str:
        """Canonical JSON form (inverse of :meth:`from_json`)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> Any:
        """Rebuild a spec from its :meth:`to_dict` form.

        Strict: a non-object payload, an unsupported schema version, an
        unknown field or a value of the wrong type raises
        :class:`~repro.errors.ConfigurationError` — a malformed
        submission must fail loudly, not run a subtly different job.
        Absent fields take their defaults.
        """
        label = cls.__name__
        payload = strict_payload(cls, data, SPEC_SCHEMA_VERSION)
        known = {item.name: item for item in fields(cls)}
        hints = _type_hints(cls)
        values: dict[str, Any] = {}
        options: dict[str, Any] = {}
        for name, value in payload.items():
            metadata = known[name].metadata
            with _field_errors(label, name):
                if value is not None and "plugin" in metadata:
                    options[name] = value  # decoded once its plugin is known
                elif value is not None and "wire" in metadata:
                    values[name] = metadata["wire"][1](value)
                else:
                    values[name] = _decode(hints[name], value)
        spec = cls(**values)
        for name, value in options.items():
            with _field_errors(label, name):
                if not isinstance(value, dict):
                    raise TypeError(f"expected an object, got {type(value).__name__}")
                plugin = getattr(spec, known[name].metadata["plugin"])()
                options[name] = plugin.options_type(**value)
        return replace(spec, **options)

    @classmethod
    def from_json(cls, text: str) -> Any:
        """Inverse of :meth:`to_json` (identity round-trip)."""
        return cls.from_dict(load_json(text, cls.__name__))


def strict_payload(cls: type, data: Any, version: int) -> dict:
    """``data`` without its ``schema_version``, checked to be an object
    of schema ``version`` naming only fields of the dataclass ``cls``
    (:class:`~repro.errors.ConfigurationError` otherwise)."""
    label = cls.__name__
    if not isinstance(data, dict):
        raise ConfigurationError(f"{label} must be a JSON object, got {type(data).__name__}")
    payload = dict(data)
    found = payload.pop("schema_version", version)
    if found != version:
        raise ConfigurationError(
            f"unsupported {label} schema_version {found!r}; this version speaks {version}"
        )
    known = sorted(item.name for item in fields(cls))
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown {label} field(s) {', '.join(unknown)}; known fields: {', '.join(known)}"
        )
    return payload


def load_json(text: str, label: str) -> Any:
    """``json.loads`` raising :class:`~repro.errors.ConfigurationError`."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ConfigurationError(f"invalid {label} JSON: {exc}") from exc


@functools.cache
def _type_hints(cls: type) -> dict[str, Any]:
    return typing.get_type_hints(cls)


@contextlib.contextmanager
def _field_errors(label: str, name: str) -> Iterator[None]:
    """Turn a field's decode failure into a ConfigurationError naming it."""
    try:
        yield
    except ConfigurationError:
        raise
    except (TypeError, ValueError, KeyError, ReproError) as exc:
        raise ConfigurationError(f"invalid {label} field {name!r}: {exc}") from exc


def _decode(hint: Any, value: Any) -> Any:
    """``value`` checked against the annotation ``hint``; JSON lists
    become tuples.  Raises :class:`TypeError` on a mismatch."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        args = typing.get_args(hint)
        if value is None and type(None) in args:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        item_hint = typing.get_args(hint)[0]
        return tuple(_decode(item_hint, item) for item in value)
    if not isinstance(value, hint) or (hint is int and isinstance(value, bool)):
        raise TypeError(f"expected {hint.__name__}, got {type(value).__name__} {value!r}")
    return value


# ----------------------------------------------------------------------
# The CLI face of the spec
# ----------------------------------------------------------------------
def add_run_flags(parser: argparse.ArgumentParser, names: tuple[str, ...], **defaults: Any) -> None:
    """Add the flags of the :class:`RunSpec` fields ``names`` to a
    command; ``defaults`` overrides a field's default for this command.

    A field's flag stores under the field's name; the platform's flags
    store under their own names (see :func:`platform_from_args`).
    """
    for item in fields(RunSpec):
        if item.name not in names:
            continue
        for flag, kwargs in item.metadata["cli"]:
            if item.name == "platform":
                parser.add_argument(flag, default=None, **kwargs)
            else:
                default = defaults.get(item.name, item.default)
                parser.add_argument(flag, dest=item.name, default=default, **kwargs)


def spec_from_args(args: argparse.Namespace) -> dict[str, Any]:
    """The :class:`RunSpec` field values a run command's flags give.

    Fields the command has no flag for (or whose flag is unset) keep
    their defaults; a ``--suite-size`` makes the run a suite.  Returns
    keyword arguments, so ``RunSpec(**...)`` and ``JobSpec(**...)``
    both accept it.
    """
    values: dict[str, Any] = {}
    for item in fields(RunSpec):
        value = getattr(args, item.name, None)
        if isinstance(value, list):  # --starts
            value = tuple(value) or None
        if value is not None and item.name != "platform":
            values[item.name] = value
    values["kind"] = "suite" if "suite_size" in values else "search"
    values["platform"] = platform_from_args(args, shared=values.get("shared_cache", False))
    return values


def platform_from_args(args: argparse.Namespace, shared: bool = False) -> Platform | None:
    """The :class:`~repro.platform.Platform` the platform flags describe.

    ``None`` when every flag is unset and no shared cache is requested
    — the paper platform, leaving digests and reports identical to
    runs that never declared a platform.  With ``shared`` the unset
    geometry defaults to :func:`~repro.platform.shared_paper_platform`
    (the paper capacity as 32 sets x 4 ways), since the paper's
    direct-mapped cache has no ways to partition.
    """
    from ..cache.config import CacheConfig
    from ..platform import shared_paper_platform

    given = {
        "n_sets": args.cache_sets,
        "associativity": args.cache_ways,
        "miss_cycles": args.miss_cycles,
    }
    if not shared and args.wcet_model is None and args.clock_mhz is None and all(
        value is None for value in given.values()
    ):
        return None
    default = shared_paper_platform().cache if shared else CacheConfig()
    cache = replace(
        default, **{name: value for name, value in given.items() if value is not None}
    )
    clock = Clock(args.clock_mhz * 1e6) if args.clock_mhz is not None else Clock(20e6)
    return Platform(cache=cache, clock=clock, wcet_model=args.wcet_model or "static")

