"""The benchmark's layer table and the span tracer that times it.

Every layer maps to the dotted callables (``module:Qualified.name``)
that enter it.  :func:`install` imports the whole ``repro`` package,
then replaces each callable with a timing wrapper at every place the
program binds it: the class attribute for a method, and every module
global that holds the function for a function imported by name (for
example ``derive_timing`` in ``sched/timing.py``, ``sched/feasibility.py``
and ``sched/evaluator.py``).  A callable that no longer resolves is
reported as missing instead of failing the run, so renaming a stage
shows up in the trace rather than crashing it.

This module imports nothing from ``repro`` at import time: the
benchmark driver reads the table without loading the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import threading
import time

#: layer name -> the callables whose calls are that layer's spans.
LAYERS: dict[str, tuple[str, ...]] = {
    "control.design": ("repro.control.lockstep:design_controllers_batch",),
    "control.pso": ("repro.control.pso:pso_minimize_many",),
    "control.particle_evals": ("repro.control.lockstep:BatchGainEvaluator.evaluate",),
    "control.pole_placement": ("repro.control.lockstep:_BatchedStageA.gains_batch",),
    "control.feedforward": ("repro.control.lockstep:_FeedforwardGroup.run",),
    "control.stability": ("repro.control.lockstep:BatchGainEvaluator._spectral_radii",),
    "control.tracking": ("repro.control.lockstep:_StackedTracking.run",),
    "apps.case_study": ("repro.apps.casestudy:build_case_study",),
    "wcet.analyze": ("repro.wcet.reuse:analyze_task_wcets",),
    "sched.space": ("repro.sched.feasibility:enumerate_idle_feasible",),
    "sched.timing": ("repro.sched.timing:derive_timing",),
    "sched.strategy": (
        "repro.sched.strategies.builtin:ExhaustiveStrategy.run",
        "repro.sched.strategies.builtin:HybridStrategy.run",
        "repro.sched.strategies.builtin:AnnealingStrategy.run",
        "repro.sched.strategies.builtin:InterleavedStrategy.run",
        "repro.sched.strategies.online:OnlineStrategy.run",
    ),
    "engine.batch": (
        "repro.sched.engine.engine:SearchEngine.evaluate_batch",
        "repro.sched.engine.partitioned:PartitionedSearchEngine.evaluate_pairs",
    ),
    "engine.dispatch": (
        "repro.sched.engine.backends:SerialBackend.map",
        "repro.sched.engine.backends:ProcessPoolBackend.map",
        "repro.sched.engine.partitioned:PartitionedSerialBackend.map",
        "repro.sched.engine.partitioned:PartitionedPoolBackend.map",
    ),
    "engine.keys": ("repro.sched.engine.keys:evaluation_key",),
    "engine.disk_get": ("repro.sched.engine.store:PersistentCache.get",),
    "engine.disk_put": (
        "repro.sched.engine.store:PersistentCache.put",
        "repro.sched.engine.store:PersistentCache.put_many",
    ),
    "engine.encode": ("repro.sched.engine.serialize:evaluation_to_dict",),
    "engine.decode": ("repro.sched.engine.serialize:evaluation_from_dict",),
    "study.run": ("repro.study.study:Study.run",),
    "study.report_io": (
        "repro.study.report:RunReport.to_json",
        "repro.study.report:RunReport.from_json",
    ),
}

#: Layers that also count work items per call, from the call's arguments:
#: requests designed, and gain rows (particles) scored.
ITEMS = {
    "control.design": lambda args: len(args[0]),
    "control.particle_evals": lambda args: sum(len(gains) for gains in args[1]),
}

#: The dispatch callables that hand work to a process pool.
POOL_DISPATCH = (
    "repro.sched.engine.backends:ProcessPoolBackend.map",
    "repro.sched.engine.partitioned:PartitionedPoolBackend.map",
)

CONTROL_LAYERS = tuple(name for name in LAYERS if name.startswith("control."))

_SHARED = (
    "apps.case_study", "wcet.analyze", "sched.space", "engine.batch",
    "engine.keys", "engine.disk_get", "study.run", "study.report_io",
)

#: workload -> layers whose calls it must record (when they resolve).
#: Worker processes are invisible to outside tracing, so the pool
#: workload claims no control layer: its designs run in the workers.
CLAIMS: dict[str, tuple[str, ...]] = {
    "search-cold": _SHARED + CONTROL_LAYERS + (
        "sched.timing", "sched.strategy", "engine.dispatch",
        "engine.disk_put", "engine.encode",
    ),
    "multicore-pool": _SHARED + (
        "engine.dispatch", "engine.disk_put", "engine.encode",
    ),
    "serve-warm": _SHARED + (
        "sched.timing", "sched.strategy", "engine.decode",
    ),
}


class Tracer:
    """Per-layer call counts, total and self time, and work items.

    Spans nest per thread.  A layer entered again from inside itself (one
    of its callables calling another) is one span, not two.  Time spent in
    spans with no enclosing layer span is summed as ``top_s``, so the
    caller can subtract it from a wall time to get what no layer covers.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._local = threading.local()
        self.missing: list[str] = []
        #: Seconds :func:`install` took; not cleared by :meth:`reset`.
        self.install_s = 0.0
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.totals = {name: [0, 0, 0, 0] for name in LAYERS}
            self.target_calls = {t: 0 for targets in LAYERS.values() for t in targets}
            self.top_ns = 0

    def wrap(self, layer: str, target: str, fn):
        items = ITEMS.get(layer)
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            n_items = items(args) if items is not None else 0
            frame = [layer, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                with self._lock:
                    row = self.totals[layer]
                    row[0] += 1
                    row[1] += elapsed
                    row[2] += elapsed - frame[1]
                    row[3] += n_items
                    self.target_calls[target] += 1
                    if stack:
                        stack[-1][1] += elapsed
                    else:
                        self.top_ns += elapsed

        return traced

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "layers": {
                    name: {
                        "calls": row[0],
                        "total_s": row[1] / 1e9,
                        "self_s": row[2] / 1e9,
                        "items": row[3],
                    }
                    for name, row in self.totals.items()
                },
                "targets": dict(self.target_calls),
                "top_s": self.top_ns / 1e9,
                "install_s": self.install_s,
                "missing": list(self.missing),
            }

    def dump(self, path: str) -> None:
        """Write the totals atomically, so a reader never sees half a file."""
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


def _import_all() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue  # importing a __main__ would run its command
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue  # a module with an absent optional dependency binds nothing


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr] if path else getattr(owner, attr)


def install(tracer: Tracer) -> None:
    """Wrap every layer callable at every binding site in ``repro``."""
    start = time.perf_counter()
    try:
        _install(tracer)
    finally:
        tracer.install_s = time.perf_counter() - start


def _install(tracer: Tracer) -> None:
    _import_all()
    modules = [
        module for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]
    for layer, targets in LAYERS.items():
        for target in targets:
            try:
                owner, attr, raw = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                tracer.missing.append(target)
                continue
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(tracer.wrap(layer, target, raw.__func__))
                else:
                    wrapped = tracer.wrap(layer, target, raw)
                setattr(owner, attr, wrapped)
                continue
            wrapped = tracer.wrap(layer, target, raw)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, name, wrapped)


def missing_layers(missing: list[str]) -> list[str]:
    """Layers none of whose callables resolved."""
    gone = set(missing)
    return [name for name, targets in LAYERS.items() if gone.issuperset(targets)]
