"""TiLT IR node definitions.

Section 4.1 of the paper introduces three constructs on top of a standard
functional scalar language:

* **temporal objects** — time-evolving values; referenced here by
  :class:`TRef` and sampled/windowed through :class:`TIndex` and
  :class:`TWindow`;
* **reduction functions** — :class:`Reduce`, folding a windowed temporal
  object into a scalar with an :class:`~repro.windowing.AggregateFunction`;
* **temporal expressions** — :class:`TemporalExpr`, defining an output
  temporal object as a functional transformation of input temporal objects
  over a :class:`TDom` time domain.

Every scalar expression evaluates to a ``(value, valid)`` pair: ``valid`` is
False when the value is the null value φ.  Arithmetic involving φ yields φ
(Section 4.1, Equation 1); the explicit :class:`IsValid` and
:class:`Coalesce` nodes are the only ways to escape φ-propagation.

All nodes are immutable dataclasses.  Scalar expression nodes overload the
usual Python operators so queries can be written naturally, e.g.::

    avg10 = stock.window(-10, 0).reduce(SUM) / 10.0
    avg20 = stock.window(-20, 0).reduce(SUM) / 20.0
    joined = when(avg10.is_valid() & avg20.is_valid(), avg10 - avg20)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

from ...errors import ValidationError
from ..ops import OPS, Op

if TYPE_CHECKING:  # pragma: no cover - import only needed for type checkers
    from ...windowing.functions import AggregateFunction

__all__ = [
    "INFINITY",
    "ELEM_VAR",
    "Expr",
    "Const",
    "Phi",
    "Var",
    "Let",
    "TRef",
    "TIndex",
    "TWindow",
    "Reduce",
    "BinOp",
    "UnaryOp",
    "IfThenElse",
    "IsValid",
    "Coalesce",
    "Call",
    "TDom",
    "TemporalExpr",
    "TiltProgram",
    "when",
    "lift",
]

INFINITY = math.inf

#: Name of the implicit per-snapshot variable available inside a Reduce's
#: element expression (see :class:`Reduce`).
ELEM_VAR = "%elem"


def _op_row(name: str, form: str, what: str) -> Op:
    """The operator-table row a node of type ``form`` may carry under ``name``."""
    row = OPS.get(name)
    if row is None or form not in row.forms:
        raise ValidationError(f"unknown {what} {name!r}")
    return row


def lift(value: Union["Expr", float, int, bool]) -> "Expr":
    """Coerce a Python scalar into a :class:`Const` (no-op for Expr)."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(1.0 if value else 0.0)
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise ValidationError(f"cannot lift {value!r} into a TiLT expression")


@dataclass(frozen=True)
class Expr:
    """Base class of all scalar TiLT IR expressions."""

    # ------------------------------------------------------------------ #
    # operator overloading: arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other): return BinOp("+", self, lift(other))
    def __radd__(self, other): return BinOp("+", lift(other), self)
    def __sub__(self, other): return BinOp("-", self, lift(other))
    def __rsub__(self, other): return BinOp("-", lift(other), self)
    def __mul__(self, other): return BinOp("*", self, lift(other))
    def __rmul__(self, other): return BinOp("*", lift(other), self)
    def __truediv__(self, other): return BinOp("/", self, lift(other))
    def __rtruediv__(self, other): return BinOp("/", lift(other), self)
    def __mod__(self, other): return BinOp("%", self, lift(other))
    def __rmod__(self, other): return BinOp("%", lift(other), self)
    def __pow__(self, other): return BinOp("**", self, lift(other))
    def __neg__(self): return UnaryOp("neg", self)
    def __abs__(self): return UnaryOp("abs", self)

    # ------------------------------------------------------------------ #
    # operator overloading: comparisons / logic
    # ------------------------------------------------------------------ #
    def __gt__(self, other): return BinOp(">", self, lift(other))
    def __lt__(self, other): return BinOp("<", self, lift(other))
    def __ge__(self, other): return BinOp(">=", self, lift(other))
    def __le__(self, other): return BinOp("<=", self, lift(other))
    def eq(self, other): return BinOp("==", self, lift(other))
    def ne(self, other): return BinOp("!=", self, lift(other))
    def __and__(self, other): return BinOp("and", self, lift(other))
    def __or__(self, other): return BinOp("or", self, lift(other))
    def __invert__(self): return UnaryOp("not", self)

    # ------------------------------------------------------------------ #
    # φ helpers
    # ------------------------------------------------------------------ #
    def is_valid(self) -> "IsValid":
        """``self != φ`` — always-valid boolean."""
        return IsValid(self)

    def coalesce(self, default: Union["Expr", float]) -> "Coalesce":
        """Replace φ with ``default``."""
        return Coalesce(self, lift(default))

    def sqrt(self) -> "UnaryOp":
        return UnaryOp("sqrt", self)

    def children(self) -> Tuple["Expr", ...]:
        """Direct sub-expressions (overridden by composite nodes)."""
        return ()


@dataclass(frozen=True)
class Const(Expr):
    """A scalar constant (always valid)."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Phi(Expr):
    """The null value φ.  Any arithmetic involving φ is φ."""


@dataclass(frozen=True)
class Var(Expr):
    """Reference to a let-bound scalar variable (or the Reduce element var)."""

    name: str


@dataclass(frozen=True)
class Let(Expr):
    """Scoped bindings: ``let name_i = value_i in body``.

    Fusion (Section 5.2) introduces Let nodes so that an inlined temporal
    expression is evaluated once even if referenced several times.
    """

    bindings: Tuple[Tuple[str, Expr], ...]
    body: Expr

    def children(self) -> Tuple[Expr, ...]:
        return tuple(v for _, v in self.bindings) + (self.body,)


@dataclass(frozen=True)
class TRef(Expr):
    """Reference to a temporal object by name.

    The name refers either to an input stream or to the output of a previous
    :class:`TemporalExpr` in the same program.  A bare ``TRef`` used in a
    scalar position is sugar for ``TIndex(ref, 0)`` — "the value of the
    object *now*" — and the builder normalizes it accordingly.
    """

    name: str

    # temporal-object level helpers -------------------------------------------------
    def at(self, offset: float = 0.0) -> "TIndex":
        """Value of the temporal object at ``t + offset``."""
        return TIndex(self.name, float(offset))

    def shift(self, delay: float) -> "TIndex":
        """Value ``delay`` seconds ago (the Shift operator)."""
        return TIndex(self.name, -float(delay))

    def window(self, start_offset: float, end_offset: float = 0.0) -> "TWindow":
        """Derived temporal object over ``(t + start_offset, t + end_offset]``."""
        return TWindow(self.name, float(start_offset), float(end_offset))

    def children(self) -> Tuple[Expr, ...]:
        return ()


@dataclass(frozen=True)
class TIndex(Expr):
    """``~ref[t + offset]`` — point access into a temporal object."""

    ref: str
    offset: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", float(self.offset))


@dataclass(frozen=True)
class TWindow(Expr):
    """``~ref[t + start_offset : t + end_offset]`` — a derived, windowed temporal object.

    Not a scalar by itself: it may only appear as the operand of
    :class:`Reduce`.
    """

    ref: str
    start_offset: float
    end_offset: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "start_offset", float(self.start_offset))
        object.__setattr__(self, "end_offset", float(self.end_offset))
        if self.end_offset <= self.start_offset:
            raise ValidationError(
                f"window ({self.start_offset}, {self.end_offset}] is empty or inverted"
            )

    def reduce(self, agg: AggregateFunction, element: Optional[Expr] = None) -> "Reduce":
        """Apply a reduction function to this window."""
        return Reduce(agg, self, element)

    @property
    def size(self) -> float:
        return self.end_offset - self.start_offset


@dataclass(frozen=True)
class Reduce(Expr):
    """``⊕(agg, ~ref[t+a : t+b])`` — reduce a windowed temporal object to a scalar.

    ``element`` is an optional per-snapshot mapping expression (in terms of
    the variable :data:`ELEM_VAR`) applied to each snapshot value before it is
    folded — e.g. squaring samples before a Sum.  Reductions over an empty
    window evaluate to φ.
    """

    agg: AggregateFunction
    window: TWindow
    element: Optional[Expr] = None

    def children(self) -> Tuple[Expr, ...]:
        if self.element is not None:
            return (self.window, self.element)
        return (self.window,)


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary arithmetic / comparison / logical operation (φ-propagating)."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        _op_row(self.op, "binop", "binary operator")

    @property
    def row(self) -> Op:
        return OPS[self.op]

    def children(self) -> Tuple[Expr, ...]:
        return (self.lhs, self.rhs)


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operation (φ-propagating)."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        _op_row(self.op, "unop", "unary operator")

    @property
    def row(self) -> Op:
        return OPS[self.op]

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class IfThenElse(Expr):
    """Conditional: φ condition yields φ; otherwise picks a branch.

    A false/φ branch value of φ is how the Where operator drops values
    (Figure 4 of the paper).
    """

    cond: Expr
    then: Expr
    orelse: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.then, self.orelse)


@dataclass(frozen=True)
class IsValid(Expr):
    """``operand != φ`` — 1.0/0.0, never φ itself."""

    operand: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class Coalesce(Expr):
    """Value of ``operand`` unless it is φ, in which case ``default``."""

    operand: Expr
    default: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand, self.default)


@dataclass(frozen=True)
class Call(Expr):
    """External scalar function call (sqrt, exp, log, ...), φ-propagating."""

    func: str
    args: Tuple[Expr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != _op_row(self.func, "call", "external function").arity:
            raise ValidationError(
                f"function {self.func!r} takes {self.row.arity} argument(s), got {len(self.args)}"
            )

    @property
    def row(self) -> Op:
        return OPS[self.func]

    def children(self) -> Tuple[Expr, ...]:
        return self.args


def when(cond: Union[Expr, bool], value: Union[Expr, float], otherwise: Union[Expr, float, None] = None) -> IfThenElse:
    """Sugar for the Where-style conditional: ``value`` if ``cond`` else φ."""
    orelse = Phi() if otherwise is None else lift(otherwise)
    return IfThenElse(lift(cond), lift(value), orelse)


# ---------------------------------------------------------------------- #
# temporal expressions and programs
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TDom:
    """A time domain ``TDom(start, end, precision)`` (Section 4.1).

    ``start``/``end`` of ``-inf``/``+inf`` describe the un-resolved, infinite
    domain; boundary resolution (Section 5.1) replaces them with the symbolic
    partition interval ``(Ts, Te]`` at execution time.  ``precision`` is the
    finest granularity at which the output value may change; a value of 0
    means "continuous" — the output changes exactly when its inputs change.
    """

    start: float = -INFINITY
    end: float = INFINITY
    precision: float = 0.0

    def __post_init__(self) -> None:
        if self.precision < 0:
            raise ValidationError("time domain precision must be non-negative")
        if self.end < self.start:
            raise ValidationError("time domain end must not precede start")

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.start) and math.isfinite(self.end)

    def with_bounds(self, start: float, end: float) -> "TDom":
        """Return a copy bounded to ``(start, end]``."""
        return TDom(start, end, self.precision)


@dataclass(frozen=True)
class TemporalExpr:
    """``~name[t] = expr`` over time domain ``tdom``."""

    name: str
    tdom: TDom
    expr: Expr

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("temporal expression must have a name")


@dataclass(frozen=True)
class TiltProgram:
    """A full TiLT IR query: inputs, a sequence of temporal expressions, and
    the name of the output temporal object.

    The expression list is ordered; an expression may reference inputs and
    any previously defined expression (the program is a DAG by
    construction).
    """

    inputs: Tuple[str, ...]
    exprs: Tuple[TemporalExpr, ...]
    output: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "exprs", tuple(self.exprs))

    def expr_named(self, name: str) -> TemporalExpr:
        """Look up a temporal expression by output name."""
        for te in self.exprs:
            if te.name == name:
                return te
        raise KeyError(name)

    def defined_names(self) -> Tuple[str, ...]:
        return tuple(te.name for te in self.exprs)

    @property
    def output_expr(self) -> TemporalExpr:
        return self.expr_named(self.output)

    def with_exprs(self, exprs: Sequence[TemporalExpr], output: Optional[str] = None) -> "TiltProgram":
        """Copy of the program with a new expression list (used by optimizer passes)."""
        return TiltProgram(self.inputs, tuple(exprs), output or self.output)
