"""Aggregate function templates.

Section 6.1.2 of the paper: every reduction function — built-in or
user-defined — is expressed with four lambdas:

* ``init``   — the initial accumulator state (e.g. ``0`` for Sum),
* ``acc``    — folds one snapshot value into the state,
* ``result`` — extracts the final scalar from the state,
* ``deacc``  — (optional) removes a value from the state; only invertible
  aggregates provide it, enabling the Subtract-on-Evict algorithm.

An :class:`AggregateFunction` is also the aggregate's one **table row**:
next to the paper's template it carries every optional lowering a consumer
may derive, and nothing elsewhere is keyed by an aggregate's name —

* ``prefix_arrays`` / ``prefix_result`` (+ ``prefix_extended_precision``) —
  the aggregate as sums of a few per-snapshot component arrays, so window
  results come from prefix sums (Sum, Count, Mean, Variance, StdDev, ...);
  ``c_components`` / ``c_result`` state the same decomposition as C text
  for the native tier.
* ``rmq`` — a range-min/range-max query answered by a sparse table
  (:data:`RMQ_DIRECTIONS` holds what each direction means in NumPy and C).
* ``edge`` — the aggregate picks the window's first / last valid snapshot.
* ``vector_eval`` — a generic NumPy reduction applied per window (what an
  opaque :func:`custom_aggregate` may bring).

A **derived** row (:func:`derived_aggregate`) is a prefix row stated as
data: component expressions of the snapshot value and a finish over their
window sums, written in the operator table's rows.  Its scalar template,
NumPy hooks and C text are all generated from that one definition, so its
tiers agree by construction and the native tier lowers it like a built-in.

:attr:`AggregateFunction.strategy` ranks these hooks once; the range index
(``windowing/sliding.py::build_range_index``), the native emitter, a
session's reduce-site plan and ``python -m repro.analysis --rows`` all read
it.  Adding a built-in aggregate is adding one row below.  The scalar
template (init/acc/result/deacc/merge) is always present and is the
semantic reference; ``tests/test_conformance.py`` checks every row's
lowerings against the scalar fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.ir.nodes import BinOp, Call, Const, Expr, UnaryOp, Var, lift
from ..core.ops import bind, c_literal, eval_op
from ..errors import QueryBuildError

__all__ = [
    "prefix_center",
    "AggregateFunction",
    "AggregateStrategy",
    "RmqDirection",
    "RMQ_DIRECTIONS",
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
    "derived_aggregate",
    "builtin_aggregates",
]

State = Any


class AggregateStrategy(NamedTuple):
    """How an aggregate is evaluated — the one place its optional hooks are
    ranked.  Every consumer (the range index a reduce site builds, the
    native emitter, a session's reduce site plan) reads this instead of
    probing the hooks itself.
    """

    #: vectorized index built per buffer: ``'prefix'`` (prefix sums),
    #: ``'rmq'`` (sparse table) or ``'fold'`` (per-window reduction)
    range: str


class RmqDirection(NamedTuple):
    """What an ``rmq`` direction means to the sparse table and the C deque."""

    reduce: np.ufunc
    #: what a φ snapshot holds so it never wins a query
    fill: float
    #: the C monotone deque evicts its back while ``back <evicts> incoming``
    c_evicts: str


RMQ_DIRECTIONS = {
    "max": RmqDirection(np.maximum, -math.inf, "<="),
    "min": RmqDirection(np.minimum, math.inf, ">="),
}


def prefix_center(values: np.ndarray, valid: np.ndarray) -> np.longdouble:
    """The centre an extended-precision prefix index subtracts for its
    lifetime: ``np.mean`` of its first chunk, zero-masked at φ lanes, in
    ``longdouble``.  Pairwise summation is NumPy's to make, so the native
    tier takes these bits as given rather than replicating them in C."""
    return np.mean(np.where(valid, np.asarray(values, dtype=np.float64), 0.0).astype(np.longdouble))


@dataclass(frozen=True)
class AggregateFunction:
    """A (possibly user-defined) reduction function.

    Parameters mirror the Init/Acc/Result/Deacc template of the paper plus
    optional vectorization hooks (see module docstring).  ``merge`` combines
    two partial states, as tree-structured and partial-aggregate parallel
    reductions (and the two-stacks insert/evict aggregator) need.
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
    rmq: Optional[str] = None  # a key of RMQ_DIRECTIONS
    vector_eval: Optional[Callable[[np.ndarray], float]] = None
    #: the window's first (``0``) or last (``-1``) valid snapshot is the result
    edge: Optional[int] = None
    #: C text of the prefix decomposition (``None``: no native lowering):
    #: one expression per component over the masked — and, for
    #: extended-precision rows, centred — value ``{x}``, its validity ``{k}``
    #: and the accumulator's literal suffix ``{L}``; ``c_result`` is the
    #: statements computing ``double {s}_res`` from the components' window
    #: sums ``{d0}``, ``{d1}``, ...
    c_components: Optional[Tuple[str, ...]] = None
    c_result: Optional[Tuple[str, ...]] = None
    #: a derived row's definition, ``(components, finish)`` as
    #: :func:`derived_aggregate` took them: what every hook above was
    #: generated from, and what the row pickles as
    derivation: Optional[Tuple[Tuple[Tuple[str, Expr], ...], Expr]] = None

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
        """Cheapest range index the provided hooks admit."""
        if self.prefix_arrays is not None and self.prefix_result is not None:
            return AggregateStrategy("prefix")
        if self.rmq is not None:
            return AggregateStrategy("rmq")
        return AggregateStrategy("fold")

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

    # ------------------------------------------------------------------ #
    # row accessors: the prefix decomposition and the native lowering
    # ------------------------------------------------------------------ #
    @property
    def prefix_dtype(self) -> type:
        """Accumulator dtype of the prefix sums (see ``prefix_extended_precision``)."""
        return np.longdouble if self.prefix_extended_precision else np.float64

    def prefix_components(self, values: np.ndarray, valid: np.ndarray, center=None):
        """Per-snapshot component arrays of one chunk, in the accumulator
        dtype, φ lanes contributing nothing to *any* component (e.g. the
        count component of Mean).  Extended-precision rows subtract
        ``center`` first (default: this chunk's mean); returns
        ``(components, center)`` so a growable index can keep one center for
        its lifetime.  The component arrays are built in the accumulator
        dtype too — squaring in float64 first would already bake in more
        rounding error than longdouble prefixes can cancel."""
        masked = np.where(valid, np.asarray(values, dtype=np.float64), 0.0).astype(
            self.prefix_dtype, copy=False
        )
        if self.prefix_extended_precision:
            if center is None:
                center = prefix_center(values, valid)
            masked = masked - center
        return [np.where(valid, comp, 0.0) for comp in self.prefix_arrays(masked)], center

    def prefix_finish(self, sums: Sequence[np.ndarray]) -> np.ndarray:
        """Window results (float64) from the components' window sums."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.asarray(self.prefix_result(*sums), dtype=np.float64)

    @property
    def generated(self) -> bool:
        """True when the library wrote this row's lowerings (a built-in or a
        derived row), so its C text may be trusted; an opaque
        :func:`custom_aggregate` is Python callables only."""
        return self.derivation is not None or _BUILTIN_SINGLETONS.get(self.name) is self

    @property
    def c_lowerable(self) -> bool:
        """True when the row carries a C fragment for its range strategy."""
        if self.strategy.range == "prefix":
            return self.c_components is not None and self.c_result is not None
        return self.rmq is not None or self.edge is not None

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
        if self.derivation is not None:  # rebuilt from its definition
            components, finish = self.derivation
            return (derived_aggregate, (self.name, dict(components), finish))
        return super().__reduce_ex__(protocol)


# ---------------------------------------------------------------------- #
# built-in aggregates
# ---------------------------------------------------------------------- #
def _safe_sqrt(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(x, 0.0))


_C_ONE = "({k} ? 1.0{L} : 0.0{L})"
_C_SUM = ("double {s}_res = {d0};",)
# after centring a φ lane holds ``-center``, hence the explicit re-mask
_C_MOMENTS = ("({k} ? {x} : 0.0{L})", "({k} ? {x} * {x} : 0.0{L})", _C_ONE)
_C_VARIANCE = (
    "long double {s}_s = {d0};",
    "long double {s}_sq = {d1};",
    "long double {s}_n = {d2};",
    "long double {s}_var = ({s}_n != 0.0L)"
    " ? ({s}_sq / {s}_n - ({s}_s / {s}_n) * ({s}_s / {s}_n)) : 0.0L;",
    "{s}_var = NPMAX({s}_var, 0.0L);",
)
_C_NARROW = ("double {s}_res = (double){s}_var;",)


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
    c_components=("{x}",),
    c_result=_C_SUM,
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
    c_components=(_C_ONE,),
    c_result=_C_SUM,
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
    c_components=("{x}", _C_ONE),
    c_result=(
        "double {s}_s = {d0};",
        "double {s}_n = {d1};",
        "double {s}_res = ({s}_n != 0.0) ? ({s}_s / {s}_n) : 0.0;",
    ),
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
    c_components=_C_MOMENTS,
    c_result=_C_VARIANCE + _C_NARROW,
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
    c_components=_C_MOMENTS,
    c_result=_C_VARIANCE + ("{s}_var = sqrtl(NPMAX({s}_var, 0.0L));",) + _C_NARROW,
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
    c_components=("{x} * {x}",),
    c_result=_C_SUM,
)

FIRST = AggregateFunction(
    name="first",
    init=lambda: None,
    acc=lambda s, v: v if s is None else s,
    result=lambda s: 0.0 if s is None else s,
    vector_eval=lambda vals: float(vals[0]),
    edge=0,
)

LAST = AggregateFunction(
    name="last",
    init=lambda: None,
    acc=lambda s, v: v,
    result=lambda s: 0.0 if s is None else s,
    vector_eval=lambda vals: float(vals[-1]),
    edge=-1,
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


# ---------------------------------------------------------------------- #
# derived rows
# ---------------------------------------------------------------------- #
def derived_aggregate(name: str, components: Dict[str, Any], finish: Any) -> AggregateFunction:
    """A prefix row stated as data, lowered to every tier from one definition.

    ``components`` maps a name to an expression of the snapshot value
    (:data:`~repro.core.frontend.query.PAYLOAD`, ``E`` in the apps) or a
    constant; each is summed over the window in float64.  ``finish`` is an
    expression over ``Var(name)`` — those window sums — giving the window's
    result.  Both are IR expressions of :class:`~repro.core.ops.Op` rows
    (``Const``, ``Var``, ``BinOp``, ``UnaryOp``, ``Call``), and every hook of
    the returned row comes from those rows: the scalar template (a state of
    running sums) from their scalar functions, ``prefix_arrays`` /
    ``prefix_result`` from their NumPy templates and ``c_components`` /
    ``c_result`` from their C templates (``None`` when a row has none: the
    kernel then stays on NumPy).  A window result cannot carry φ, so the
    only partial operator allowed is ``/``, whose zero divisor gives 0.0 on
    every tier; ``**`` and ``pow`` have no C template, so write a power as
    a product.  An empty window is φ, as for every prefix row.

    Example — the mean of squares, as MEAN with ``element=E * E`` computes
    it::

        derived_aggregate("mean_square", {"n": 1.0, "sq": E * E}, Var("sq") / Var("n"))
    """
    from ..core.frontend.query import PAYLOAD

    names = tuple(components)
    exprs = tuple(lift(e) for e in components.values())
    finish = lift(finish)
    if not exprs:
        raise QueryBuildError(f"derived aggregate {name!r} needs at least one component")
    for n, expr in zip(names, exprs):
        _check_derived(name, f"component {n!r}", expr, {PAYLOAD.name})
    _check_derived(name, "finish", finish, set(names))

    def acc(state, v, sign=1.0):
        env = {PAYLOAD.name: v}
        return tuple(s + sign * _scalar(e, env) for s, e in zip(state, exprs))

    sums = tuple(f"w{i}" for i in range(len(names)))
    numpy_components = _numpy_function(exprs, ("x",), {PAYLOAD.name: "x"})
    numpy_finish = _numpy_function((finish,), sums, dict(zip(names, sums)))
    c_parts = [_c_expression(e, {PAYLOAD.name: "{x}"}) for e in exprs]
    c_finish = _c_statements(finish, {n: f"{{d{i}}}" for i, n in enumerate(names)})
    lowerable = None not in c_parts and c_finish is not None
    return AggregateFunction(
        name=name,
        init=lambda: (0.0,) * len(exprs),
        acc=acc,
        result=lambda state: _scalar(finish, dict(zip(names, state))),
        deacc=lambda state, v: acc(state, v, -1.0),
        merge=lambda a, b: tuple(x + y for x, y in zip(a, b)),
        prefix_arrays=numpy_components,
        prefix_result=lambda *window_sums: numpy_finish(*window_sums)[0],
        # masked as prefix_components masks: a φ lane adds 0.0 to every sum
        c_components=tuple(f"({{k}} ? {c} : 0.0{{L}})" for c in c_parts) if lowerable else None,
        c_result=c_finish if lowerable else None,
        derivation=(tuple(zip(names, exprs)), finish),
    )


def _check_derived(name: str, label: str, expr: Expr, leaves) -> None:
    for node in _postorder(expr):
        if not isinstance(node, (Const, Var, BinOp, UnaryOp, Call)):
            raise QueryBuildError(
                f"derived aggregate {name!r}: {label} holds a {type(node).__name__} node"
            )
        if isinstance(node, Var) and node.name not in leaves:
            raise QueryBuildError(
                f"derived aggregate {name!r}: {label} reads {node.name!r}; it may read {sorted(leaves)}"
            )
        if not isinstance(node, (Const, Var)) and node.row.domain is not None and node.row.name != "/":
            raise QueryBuildError(
                f"derived aggregate {name!r}: {label} uses {node.row.name!r}, whose φ "
                "outside its domain a window result cannot carry"
            )


def _postorder(expr: Expr) -> list:
    """Every node of ``expr`` once, operands first (shared ones visited once)."""
    seen, order = set(), []

    def visit(node):
        if id(node) not in seen:
            seen.add(id(node))
            for child in node.children():
                visit(child)
            order.append(node)

    visit(expr)
    return order


def _scalar(expr: Expr, env: Dict[str, float]) -> float:
    """The rows' scalar functions; outside ``/``'s domain its value, 0.0."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    return eval_op(expr.row, [_scalar(c, env) for c in expr.children()])[0]


def _numpy_function(exprs: Sequence[Expr], params: Tuple[str, ...], leaves: Dict[str, str]) -> Callable:
    """A NumPy function of ``params`` returning ``exprs`` as arrays, written
    from the rows' NumPy templates, one temporary per node (constants are
    full arrays: ``/``'s template sizes its output from its left operand)."""
    names: Dict[int, str] = {}
    consts: Dict[str, float] = {}
    lines = [f"def _derived({', '.join(params)}):", f"    _shape = _np.shape({params[0]})"]
    for expr in exprs:
        for node in _postorder(expr):
            if id(node) in names:
                continue
            if isinstance(node, Const):
                const = f"_c{len(consts)}"
                consts[const] = node.value
                value = f"_np.full(_shape, {const})"
            elif isinstance(node, Var):
                value = leaves[node.name]
            else:
                value = node.row.numpy.format(**bind(names[id(c)] for c in node.children()))
            names[id(node)] = f"_t{len(names)}"
            lines.append(f"    {names[id(node)]} = {value}")
    lines.append(f"    return ({', '.join(names[id(e)] for e in exprs)},)")
    namespace = {"_np": np, **consts}
    exec("\n".join(lines), namespace)  # noqa: S102 - source built from the operator table
    return namespace["_derived"]


def _c_expression(expr: Expr, leaves: Dict[str, str]) -> Optional[str]:
    """``expr`` as one C expression from the rows' C templates (``None``
    when a row has none)."""
    if isinstance(expr, Const):
        return c_literal(expr.value)
    if isinstance(expr, Var):
        return leaves[expr.name]
    operands = [_c_expression(c, leaves) for c in expr.children()]
    if expr.row.c is None or None in operands:
        return None
    return expr.row.c.format(**bind(operands))


def _c_statements(expr: Expr, leaves: Dict[str, str]) -> Optional[Tuple[str, ...]]:
    """Statements computing ``double {s}_res`` from ``expr``, one temporary
    per node, as ``c_result`` states them (``None`` when a row has no C)."""
    names: Dict[int, str] = {}
    lines = []
    for node in _postorder(expr):
        if isinstance(node, Const):
            value = c_literal(node.value)
        elif isinstance(node, Var):
            value = leaves[node.name]
        elif node.row.c is None:
            return None
        else:
            value = node.row.c.format(**bind(names[id(c)] for c in node.children()))
        names[id(node)] = f"{{s}}_f{len(names)}"
        lines.append(f"double {names[id(node)]} = {value};")
    return tuple(lines) + (f"double {{s}}_res = {names[id(expr)]};",)


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
