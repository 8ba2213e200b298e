"""Cache-reuse analysis: guaranteed WCET reduction for back-to-back tasks.

Implements the paper's eq. (5): the effective WCET of the second and
later consecutive tasks of an application is the cold WCET minus the
*guaranteed* reduction obtained because the cache still holds (part of)
the program when the task re-enters.

``method`` names a registered WCET model (see
:mod:`repro.wcet.models`): ``"static"`` (default, matches the paper's
"guaranteed" semantics), ``"concrete"`` (exact replay, the tightest
possible value under the model) or ``"analytic"`` (cheap closed-form
estimate) builtin, plus anything third parties register with
:func:`~repro.wcet.models.register_wcet_model`.  Unknown names raise
:class:`~repro.errors.ConfigurationError` listing the registered
models — the same contract as the search-strategy registry.

The analysis is a pure function of the program's name, instruction
width and placed structure, the cache configuration and the resolved
model, so :func:`analyze_task_wcets` memoizes it in :data:`WCET_MEMO`:
a warm job (or any repeated ``(program, platform)`` pair in one
process) re-analyzes nothing.
"""

from __future__ import annotations

from ..cache.config import CacheConfig
from ..errors import AnalysisError
from ..identity import encode
from ..memo import ByIdentity, Memo
from ..program.program import Program
from .models import get_wcet_model
from .results import TaskWcets

#: A registered WCET-model name (kept as an alias for old callers that
#: imported the ``Literal`` type this used to be).
Method = str

#: Memoized analyses: one entry per (program, cache, model) triple.
#: A case-study build needs 3, a synthesized suite a few per scenario,
#: shared-cache co-design one per program and way count.
WCET_MEMO: Memo[TaskWcets] = Memo("wcet", maxsize=512)


def analyze_task_wcets(
    program: Program, config: CacheConfig, method: Method = "static"
) -> TaskWcets:
    """Compute the cold/warm WCET pair for one application's task.

    The cold WCET assumes arbitrary prior cache contents (other
    applications ran before); the warm WCET assumes the task directly
    follows a completed run of itself.

    Memoized in :data:`WCET_MEMO`.  The key is everything the result
    depends on: the program's name and instruction width, the identity
    encoding of its structure tree (every block's size and placement,
    every loop bound), the cache configuration and the resolved model
    *object* — re-registering a model under the same name is a miss.
    """
    model = get_wcet_model(method)
    key = (
        program.name,
        program.instr_size,
        encode(program.root),
        config,
        ByIdentity(model),
    )
    return WCET_MEMO.get(key, lambda: model.analyze(program, config))


def guaranteed_reduction(
    program: Program, config: CacheConfig, method: Method = "static"
) -> int:
    """The guaranteed WCET reduction ``E_gu`` in cycles (paper eq. (5))."""
    wcets = analyze_task_wcets(program, config, method)
    return wcets.reduction_cycles


def task_wcet_sequence(
    program: Program, config: CacheConfig, count: int, method: Method = "static"
) -> list[int]:
    """WCETs of ``count`` back-to-back tasks: ``[cold, warm, warm, ...]``.

    This is the sequence :math:`E_i^{wc}(1), E_i^{wc}(2), \\ldots` of the
    paper's Section II-C for one application executed ``count`` times
    consecutively.
    """
    if count < 1:
        raise AnalysisError(f"count must be >= 1, got {count}")
    wcets = analyze_task_wcets(program, config, method)
    return [wcets.wcet_cycles(position) for position in range(1, count + 1)]
