"""The operator table: every scalar operator and external function, once.

One :class:`Op` row states an operator's meaning side by side in every
form a consumer needs — the scalar reference (interpreter, constant
folder), the NumPy template (``pysource``) and the per-lane
C template (``native``; ``None`` where portable C cannot replicate NumPy's
bits: SIMD transcendentals; ``np.mod`` is NumPy's ``npy_divmod``, which
portable C restates as ``tilt_mod``).  IR node validation, the
lowerability walk and ``python -m repro.analysis --rows`` read the same
rows, so adding an operator is adding one row here.

Domain errors (division by zero, log of a non-positive number, ...) do not
raise — they produce φ, consistent with the paper's rule that any operation
on φ yields φ.  Inside the domain every form computes the IEEE result
(NaN and ±inf are values, not φ); where the scalar reference and the NumPy
tier once disagreed, the row's comment states the resolution: the scalar
side moved to what the NumPy tier — the one every served run executes —
computes.  ``tests/test_conformance.py`` checks scalar ≡ NumPy ≡ C for
every row over an edge grid.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

__all__ = ["Op", "OPS", "eval_op", "bind", "c_literal"]


class Op(NamedTuple):
    """One operator: templates are over the operand names ``{a}``, ``{b}``."""

    name: str
    #: IR node types that may carry this name: ``binop`` / ``unop`` / ``call``
    forms: Tuple[str, ...]
    arity: int
    #: reference semantics over in-domain float operands
    scalar: Callable[..., float]
    numpy: str
    c: Optional[str] = None
    #: operands outside the domain give φ: scalar predicate, NumPy mask, C mask
    domain: Optional[Callable[..., bool]] = None
    numpy_domain: Optional[str] = None
    c_domain: Optional[str] = None
    #: ``(left, right)`` constants ``c`` with ``c ∘ x == x`` / ``x ∘ c == x``
    #: for every ``x`` including φ (the folder's algebraic identities)
    identity: Tuple[Optional[float], Optional[float]] = (None, None)


def eval_op(row: Op, args: Sequence[float]) -> Tuple[float, bool]:
    """Apply a row to valid scalar operands; returns ``(value, valid)``."""
    if row.domain is not None and not row.domain(*args):
        return 0.0, False
    return float(row.scalar(*args)), True


def bind(operands: Sequence) -> Dict[str, object]:
    """Operands under the names the row templates use (``.format(**bind(...))``)."""
    return dict(zip("ab", operands))


def c_literal(value: float) -> str:
    """Exact C literal for a float (hex form, no decimal rounding)."""
    value = float(value)
    if value != value:
        return "NAN"
    if value == math.inf:
        return "INFINITY"
    if value == -math.inf:
        return "(-INFINITY)"
    return value.hex()


def _pow(a: float, b: float) -> float:
    # IEEE pow like np.power; before the table this raised TypeError out of
    # the constant folder (Python's ``**`` goes complex) or folded to φ
    try:
        return math.pow(a, b)
    except OverflowError:  # finite operands, |result| > DBL_MAX
        return -math.inf if a < 0 and b % 2 == 1 else math.inf
    except ValueError:
        if a == 0:  # 0 ** negative: a pole, signed only for odd integers
            return math.copysign(math.inf, a) if b % 2 == 1 else math.inf
        return math.nan  # negative ** non-integer


def _rounder(fn: Callable[[float], int]) -> Callable[[float], float]:
    # np.floor/np.ceil: NaN and ±inf pass through (math.floor raises), and a
    # zero result keeps the operand's sign (ceil(-0.5) is -0.0)
    return lambda a: math.copysign(float(fn(a)), a) if math.isfinite(a) else a


def _trig(fn: Callable[[float], float]) -> Callable[[float], float]:
    # np.sin(±inf) is NaN; math.sin raises (and used to fold to φ)
    return lambda a: fn(a) if math.isfinite(a) else math.nan


_B, _U, _F, _UF = ("binop",), ("unop",), ("call",), ("unop", "call")

_ROWS = (
    Op("+", _B, 2, operator.add, "({a} + {b})", "({a} + {b})", identity=(0.0, 0.0)),
    Op("-", _B, 2, operator.sub, "({a} - {b})", "({a} - {b})", identity=(None, 0.0)),
    Op("*", _B, 2, operator.mul, "({a} * {b})", "({a} * {b})", identity=(1.0, 1.0)),
    Op(
        "/", _B, 2, operator.truediv,
        "_np.divide({a}, {b}, out=_np.zeros_like({a}), where=({b} != 0))",
        "(({b} != 0.0) ? ({a} / {b}) : 0.0)",
        domain=lambda a, b: b != 0, numpy_domain="({b} != 0)", c_domain="({b} != 0.0)",
        identity=(None, 1.0),
    ),
    # floored like np.mod (sign of the divisor); the scalar side used C's
    # truncating fmod, so folding ``-7 % 3`` changed a query's result.  The C
    # side is npy_divmod's remainder (``tilt_mod`` in the kernel header)
    Op(
        "%", _B, 2, operator.mod, "_np.mod({a}, _np.where({b} != 0, {b}, 1.0))",
        "tilt_mod({a}, (({b} != 0.0) ? {b} : 1.0))",
        domain=lambda a, b: b != 0, numpy_domain="({b} != 0)", c_domain="({b} != 0.0)",
    ),
    Op("**", _B, 2, _pow, "_np.power({a}, {b})"),
    # np.minimum/np.maximum: a NaN operand wins (first operand on a tie);
    # the scalar side used to return the non-NaN one
    Op("min", _B, 2, lambda a, b: a if a < b or a != a else b, "_np.minimum({a}, {b})", "NPMIN({a}, {b})"),
    Op("max", _B, 2, lambda a, b: a if a > b or a != a else b, "_np.maximum({a}, {b})", "NPMAX({a}, {b})"),
    *(
        Op(
            sym, _B, 2, lambda a, b, compare=compare: float(compare(a, b)),
            f"({{a}} {sym} {{b}}).astype(_np.float64)", f"(({{a}} {sym} {{b}}) ? 1.0 : 0.0)",
        )
        for sym, compare in (
            (">", operator.gt), ("<", operator.lt), (">=", operator.ge),
            ("<=", operator.le), ("==", operator.eq), ("!=", operator.ne),
        )
    ),
    Op(
        "and", _B, 2, lambda a, b: float(a != 0 and b != 0),
        "(({a} != 0) & ({b} != 0)).astype(_np.float64)",
        "((({a} != 0.0) && ({b} != 0.0)) ? 1.0 : 0.0)",
    ),
    Op(
        "or", _B, 2, lambda a, b: float(a != 0 or b != 0),
        "(({a} != 0) | ({b} != 0)).astype(_np.float64)",
        "((({a} != 0.0) || ({b} != 0.0)) ? 1.0 : 0.0)",
    ),
    Op("neg", _U, 1, operator.neg, "(-{a})", "(-({a}))"),
    Op("not", _U, 1, lambda a: float(a == 0), "({a} == 0).astype(_np.float64)", "(({a} == 0.0) ? 1.0 : 0.0)"),
    Op("abs", _UF, 1, abs, "_np.abs({a})", "fabs({a})"),
    # the domain is ``a >= 0`` in every form, so sqrt(NaN) and log(NaN) are
    # φ (the scalar side tested ``a < 0`` and let NaN through as a value);
    # the templates' clamp makes sqrt(-0.0) +0.0, where math.sqrt keeps -0.0
    Op(
        "sqrt", _UF, 1, lambda a: math.sqrt(a if a > 0 else 0.0),
        "_np.sqrt(_np.maximum({a}, 0.0))", "sqrt(NPMAX({a}, 0.0))",
        domain=lambda a: a >= 0, numpy_domain="({a} >= 0)", c_domain="({a} >= 0.0)",
    ),
    # clamped at 700 like the NumPy template: exp(800) is exp(700), not φ
    # (``min`` keeps a NaN first operand)
    Op("exp", _UF, 1, lambda a: math.exp(min(a, 700.0)), "_np.exp(_np.minimum({a}, 700.0))"),
    Op(
        "log", _UF, 1, lambda a: math.log(max(a, 1e-300)), "_np.log(_np.maximum({a}, 1e-300))",
        domain=lambda a: a > 0, numpy_domain="({a} > 0)",
    ),
    Op("floor", _UF, 1, _rounder(math.floor), "_np.floor({a})", "floor({a})"),
    Op("ceil", _UF, 1, _rounder(math.ceil), "_np.ceil({a})", "ceil({a})"),
    # np.sign: ±0 -> +0.0, NaN -> NaN (copysign gave sign(NaN) = ±1)
    Op(
        "sign", _U, 1, lambda a: a if a != a else float((a > 0) - (a < 0)), "_np.sign({a})",
        "(({a} > 0.0) ? 1.0 : (({a} < 0.0) ? -1.0 : (({a} == 0.0) ? 0.0 : ({a}))))",
    ),
    Op("sin", _F, 1, _trig(math.sin), "_np.sin({a})"),
    Op("cos", _F, 1, _trig(math.cos), "_np.cos({a})"),
    Op("pow", _F, 2, _pow, "_np.power({a}, {b})"),
    Op("atan2", _F, 2, math.atan2, "_np.arctan2({a}, {b})"),
)

#: the table, by name; a ``Call`` of ``sqrt``/``abs``/... reads the unary row
OPS: Dict[str, Op] = {row.name: row for row in _ROWS}
