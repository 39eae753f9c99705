"""Aggregate function templates.

Section 6.1.2 of the paper: every reduction function — built-in or
user-defined — is expressed with four lambdas:

* ``init``   — the initial accumulator state (e.g. ``0`` for Sum),
* ``acc``    — folds one snapshot value into the state,
* ``result`` — extracts the final scalar from the state,
* ``deacc``  — (optional) removes a value from the state; only invertible
  aggregates provide it, enabling the Subtract-on-Evict algorithm.

On top of the paper's template this module adds two optional *vectorized*
hooks used by the NumPy code-generation backend:

* ``prefix_arrays`` / ``prefix_result`` — express the aggregate as sums of a
  few per-snapshot component arrays, so window results can be computed with
  prefix sums and ``searchsorted`` (Sum, Count, Mean, Variance, StdDev, ...).
* ``rmq`` — the aggregate is a range-min/range-max query answered by a sparse
  table (Max, Min).
* ``vector_eval`` — a generic NumPy reduction applied per window (used by
  custom aggregates such as kurtosis or crest factor).

The scalar template (init/acc/result/deacc/merge) is always present and is
the semantic reference; vectorized hooks are pure optimizations and the test
suite checks they agree with the scalar fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import QueryBuildError

__all__ = [
    "AggregateFunction",
    "AggregateStrategy",
    "SUM",
    "COUNT",
    "PRODUCT",
    "MAX",
    "MIN",
    "MEAN",
    "VARIANCE",
    "STDDEV",
    "SUM_SQUARES",
    "FIRST",
    "LAST",
    "custom_aggregate",
    "builtin_aggregates",
]

State = Any


class AggregateStrategy(NamedTuple):
    """How an aggregate is evaluated — the one place its optional hooks are
    ranked.  Every consumer (the per-buffer :class:`RangeAggregator`, the
    online insert/evict aggregators, a session's persistent reduce sites and
    the plan it reports) reads this instead of probing the hooks itself.
    """

    #: vectorized index built per buffer: ``'prefix'`` (prefix sums),
    #: ``'rmq'`` (sparse table) or ``'fold'`` (per-window reduction)
    range: str
    #: insert/evict structure: ``'subtract-on-evict'`` (has ``deacc``),
    #: ``'two-stacks'`` (has ``merge``) or ``'refold'``
    online: str


@dataclass(frozen=True)
class AggregateFunction:
    """A (possibly user-defined) reduction function.

    Parameters mirror the Init/Acc/Result/Deacc template of the paper plus
    optional vectorization hooks (see module docstring).  ``merge`` combines
    two partial states and is required by tree-structured parallel
    aggregation (the LightSaber-like baseline) and by partial-aggregate
    parallelization.
    """

    name: str
    init: Callable[[], State]
    acc: Callable[[State, float], State]
    result: Callable[[State], float]
    deacc: Optional[Callable[[State, float], State]] = None
    merge: Optional[Callable[[State, State], State]] = None
    prefix_arrays: Optional[Callable[[np.ndarray], Tuple[np.ndarray, ...]]] = None
    prefix_result: Optional[Callable[..., np.ndarray]] = None
    #: accumulate prefix sums in extended precision, over values shifted by
    #: a fixed center (the prefix index picks the mean of the first values
    #: it sees).  Only shift-invariant aggregates whose result is a
    #: *cancellation* of large prefix components (variance's sum-of-squares
    #: formula, amplified by stddev's sqrt near zero) set this: centering
    #: keeps the components small when ``mean² >> variance``.  Plain
    #: sums/means stay on fast float64.
    prefix_extended_precision: bool = False
    rmq: Optional[str] = None  # 'max' | 'min'
    vector_eval: Optional[Callable[[np.ndarray], float]] = None

    # ------------------------------------------------------------------ #
    # scalar evaluation (semantic reference)
    # ------------------------------------------------------------------ #
    @property
    def invertible(self) -> bool:
        """True when the aggregate supports Subtract-on-Evict."""
        return self.deacc is not None

    @property
    def mergeable(self) -> bool:
        """True when partial states can be combined (parallel reduction)."""
        return self.merge is not None

    @property
    def strategy(self) -> AggregateStrategy:
        """Cheapest evaluation structures the provided hooks admit."""
        if self.prefix_arrays is not None and self.prefix_result is not None:
            ranged = "prefix"
        elif self.rmq is not None:
            ranged = "rmq"
        else:
            ranged = "fold"
        if self.invertible:
            online = "subtract-on-evict"
        elif self.mergeable:
            online = "two-stacks"
        else:
            online = "refold"
        return AggregateStrategy(ranged, online)

    def fold(self, values: Sequence[float]) -> Tuple[float, bool]:
        """Reduce a sequence of values with the scalar template.

        Returns ``(result, valid)``; an empty input reduces to φ
        (``valid=False``), matching the paper's semantics that a reduction
        only ranges over non-null snapshots.
        """
        values = list(values)
        if not values:
            return (0.0, False)
        state = self.init()
        for v in values:
            state = self.acc(state, float(v))
        return (float(self.result(state)), True)

    def fold_array(self, values: np.ndarray) -> Tuple[float, bool]:
        """Reduce a NumPy array, preferring the vectorized hook when present."""
        if len(values) == 0:
            return (0.0, False)
        if self.vector_eval is not None:
            return (float(self.vector_eval(np.asarray(values, dtype=np.float64))), True)
        return self.fold(values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AggregateFunction({self.name})"

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def __reduce_ex__(self, protocol):
        # Built-in aggregates are module-level singletons whose lambdas
        # cannot be pickled; serialize them by name so compiled-query
        # artifacts can cross a process boundary, and restore the singleton
        # (identity-preserving, so ``agg is SUM`` keeps holding after a
        # round-trip).  Custom aggregates fall back to the default protocol:
        # they are picklable exactly when their callables are (module-level
        # functions yes, lambdas no) — the execution backend uses that to
        # decide between process dispatch and its thread fallback.
        if _BUILTIN_SINGLETONS.get(self.name) is self:
            return (_restore_builtin_aggregate, (self.name,))
        return super().__reduce_ex__(protocol)


# ---------------------------------------------------------------------- #
# built-in aggregates
# ---------------------------------------------------------------------- #
def _safe_sqrt(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(x, 0.0))


SUM = AggregateFunction(
    name="sum",
    init=lambda: 0.0,
    acc=lambda s, v: s + v,
    result=lambda s: s,
    deacc=lambda s, v: s - v,
    merge=lambda a, b: a + b,
    prefix_arrays=lambda vals: (vals,),
    prefix_result=lambda s: s,
    vector_eval=np.sum,
)

COUNT = AggregateFunction(
    name="count",
    init=lambda: 0.0,
    acc=lambda s, v: s + 1.0,
    result=lambda s: s,
    deacc=lambda s, v: s - 1.0,
    merge=lambda a, b: a + b,
    prefix_arrays=lambda vals: (np.ones_like(vals),),
    prefix_result=lambda n: n,
    vector_eval=lambda vals: float(len(vals)),
)

PRODUCT = AggregateFunction(
    name="product",
    init=lambda: 1.0,
    acc=lambda s, v: s * v,
    result=lambda s: s,
    merge=lambda a, b: a * b,
    vector_eval=np.prod,
)

MAX = AggregateFunction(
    name="max",
    init=lambda: -math.inf,
    acc=lambda s, v: v if v > s else s,
    result=lambda s: s,
    merge=lambda a, b: max(a, b),
    rmq="max",
    vector_eval=np.max,
)

MIN = AggregateFunction(
    name="min",
    init=lambda: math.inf,
    acc=lambda s, v: v if v < s else s,
    result=lambda s: s,
    merge=lambda a, b: min(a, b),
    rmq="min",
    vector_eval=np.min,
)

MEAN = AggregateFunction(
    name="mean",
    init=lambda: (0.0, 0.0),  # (sum, count)
    acc=lambda s, v: (s[0] + v, s[1] + 1.0),
    result=lambda s: s[0] / s[1] if s[1] else 0.0,
    deacc=lambda s, v: (s[0] - v, s[1] - 1.0),
    merge=lambda a, b: (a[0] + b[0], a[1] + b[1]),
    prefix_arrays=lambda vals: (vals, np.ones_like(vals)),
    prefix_result=lambda s, n: np.divide(s, n, out=np.zeros_like(s), where=n != 0),
    vector_eval=np.mean,
)

VARIANCE = AggregateFunction(
    name="variance",
    init=lambda: (0.0, 0.0, 0.0),  # (sum, sumsq, count)
    acc=lambda s, v: (s[0] + v, s[1] + v * v, s[2] + 1.0),
    # the sum-of-squares formula can go slightly negative through floating
    # point cancellation; clamp at zero so downstream sqrt is always defined.
    result=lambda s: max(s[1] / s[2] - (s[0] / s[2]) ** 2, 0.0) if s[2] else 0.0,
    deacc=lambda s, v: (s[0] - v, s[1] - v * v, s[2] - 1.0),
    merge=lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
    prefix_arrays=lambda vals: (vals, vals * vals, np.ones_like(vals)),
    prefix_extended_precision=True,
    prefix_result=lambda s, sq, n: np.maximum(
        np.where(
            n != 0,
            np.divide(sq, np.maximum(n, 1.0)) - np.divide(s, np.maximum(n, 1.0)) ** 2,
            0.0,
        ),
        0.0,
    ),
    vector_eval=lambda vals: float(np.var(vals)),
)

STDDEV = AggregateFunction(
    name="stddev",
    init=VARIANCE.init,
    acc=VARIANCE.acc,
    result=lambda s: math.sqrt(max(VARIANCE.result(s), 0.0)),
    deacc=VARIANCE.deacc,
    merge=VARIANCE.merge,
    prefix_arrays=VARIANCE.prefix_arrays,
    prefix_extended_precision=True,
    prefix_result=lambda s, sq, n: _safe_sqrt(VARIANCE.prefix_result(s, sq, n)),
    vector_eval=lambda vals: float(np.std(vals)),
)

SUM_SQUARES = AggregateFunction(
    name="sum_squares",
    init=lambda: 0.0,
    acc=lambda s, v: s + v * v,
    result=lambda s: s,
    deacc=lambda s, v: s - v * v,
    merge=lambda a, b: a + b,
    prefix_arrays=lambda vals: (vals * vals,),
    prefix_result=lambda s: s,
    vector_eval=lambda vals: float(np.sum(vals * vals)),
)

FIRST = AggregateFunction(
    name="first",
    init=lambda: None,
    acc=lambda s, v: v if s is None else s,
    result=lambda s: 0.0 if s is None else s,
    vector_eval=lambda vals: float(vals[0]),
)

LAST = AggregateFunction(
    name="last",
    init=lambda: None,
    acc=lambda s, v: v,
    result=lambda s: 0.0 if s is None else s,
    vector_eval=lambda vals: float(vals[-1]),
)


def custom_aggregate(
    name: str,
    init: Callable[[], State],
    acc: Callable[[State, float], State],
    result: Callable[[State], float],
    deacc: Optional[Callable[[State, float], State]] = None,
    merge: Optional[Callable[[State, State], State]] = None,
    vector_eval: Optional[Callable[[np.ndarray], float]] = None,
) -> AggregateFunction:
    """Create a user-defined reduction function.

    This is the public entry point for the "Custom-Agg" operators used by the
    Pan-Tompkins and vibration-analysis queries of the benchmark suite.
    """
    if not callable(init) or not callable(acc) or not callable(result):
        raise QueryBuildError("init, acc and result must be callables")
    return AggregateFunction(
        name=name,
        init=init,
        acc=acc,
        result=result,
        deacc=deacc,
        merge=merge,
        vector_eval=vector_eval,
    )


def _restore_builtin_aggregate(name: str) -> AggregateFunction:
    """Unpickle hook: resolve a built-in aggregate back to its singleton."""
    return _BUILTIN_SINGLETONS[name]


def builtin_aggregates() -> Dict[str, AggregateFunction]:
    """Mapping of all built-in aggregate names to their definitions."""
    return {
        a.name: a
        for a in (
            SUM,
            COUNT,
            PRODUCT,
            MAX,
            MIN,
            MEAN,
            VARIANCE,
            STDDEV,
            SUM_SQUARES,
            FIRST,
            LAST,
        )
    }


#: the built-in singletons, used by pickling to serialize builtins by name
_BUILTIN_SINGLETONS: Dict[str, AggregateFunction] = builtin_aggregates()
