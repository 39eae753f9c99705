"""Vectorized (batch-at-a-time) evaluation of frontend scalar expressions.

The compiler-based baselines (the Grizzly-like and LightSaber-like engines)
process whole micro-batches at once rather than event-by-event, so their
Select/Where expressions are evaluated over NumPy arrays.  This is a small
recursive evaluator over the TiLT scalar expression nodes; it has the same
φ-propagation semantics as the scalar evaluator in
:mod:`repro.spe.common.expreval`, returning a ``(values, valid)`` array pair.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ...core.ir.nodes import (
    BinOp,
    Call,
    Coalesce,
    Const,
    Expr,
    IfThenElse,
    IsValid,
    Let,
    Phi,
    UnaryOp,
    Var,
)
from ...core.ops import bind
from ...errors import ExecutionError

__all__ = ["eval_expr_vectorized"]

ArrayResult = Tuple[np.ndarray, np.ndarray]


def _apply_template(template: str, arrays: Dict[str, np.ndarray]) -> np.ndarray:
    # The NumPy operator templates in repro.core.ops are written for the code
    # generator; here we evaluate them directly with a restricted namespace.
    return eval(template.format(**{k: k for k in arrays}), {"_np": np, **arrays})  # noqa: S307


def eval_expr_vectorized(expr: Expr, bindings: Dict[str, ArrayResult], n: int) -> ArrayResult:
    """Evaluate ``expr`` over arrays of length ``n``.

    ``bindings`` maps placeholder variable names to ``(values, valid)`` array
    pairs (e.g. ``{"%payload": (payloads, ones)}``).
    """
    if isinstance(expr, Const):
        return np.full(n, expr.value), np.ones(n, dtype=bool)
    if isinstance(expr, Phi):
        return np.zeros(n), np.zeros(n, dtype=bool)
    if isinstance(expr, Var):
        if expr.name not in bindings:
            raise ExecutionError(f"unbound variable {expr.name!r}")
        return bindings[expr.name]
    if isinstance(expr, (BinOp, UnaryOp, Call)):
        row = expr.row
        pairs = [eval_expr_vectorized(operand, bindings, n) for operand in expr.children()]
        arrays = bind(p[0] for p in pairs)
        valid = np.ones(n, dtype=bool)
        for _, ok in pairs:
            valid = valid & ok
        if row.numpy_domain is not None:
            valid = valid & _apply_template(row.numpy_domain, arrays)
        return np.asarray(_apply_template(row.numpy, arrays), dtype=np.float64), valid
    if isinstance(expr, IfThenElse):
        cv, ck = eval_expr_vectorized(expr.cond, bindings, n)
        tv, tk = eval_expr_vectorized(expr.then, bindings, n)
        ev, ek = eval_expr_vectorized(expr.orelse, bindings, n)
        values = np.where(cv != 0, tv, ev)
        valid = ck & np.where(cv != 0, tk, ek)
        return values, valid
    if isinstance(expr, IsValid):
        _, ok = eval_expr_vectorized(expr.operand, bindings, n)
        return ok.astype(np.float64), np.ones(n, dtype=bool)
    if isinstance(expr, Coalesce):
        ov, ok = eval_expr_vectorized(expr.operand, bindings, n)
        dv, dk = eval_expr_vectorized(expr.default, bindings, n)
        return np.where(ok, ov, dv), ok | dk
    if isinstance(expr, Let):
        scope = dict(bindings)
        for name, value in expr.bindings:
            scope[name] = eval_expr_vectorized(value, scope, n)
        return eval_expr_vectorized(expr.body, scope, n)
    raise ExecutionError(
        f"vectorized evaluation does not support node type {type(expr).__name__}"
    )
