"""Interpreted (un-compiled) execution of TiLT programs.

This backend evaluates every temporal expression of a program one at a time,
materializing the intermediate snapshot buffers between them — exactly the
execution model of an interpretation-based SPE, and the configuration the
paper labels "TiLT UnOpt" in the Figure 10 sensitivity study.  It is also the
semantic reference implementation: the property-based tests assert that the
compiled NumPy backend produces identical snapshot buffers.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ...errors import ExecutionError
from ..ir.analysis import topological_order
from ..ir.nodes import (
    ELEM_VAR,
    BinOp,
    Call,
    Coalesce,
    Const,
    Expr,
    IfThenElse,
    IsValid,
    Let,
    Phi,
    Reduce,
    TDom,
    TIndex,
    TRef,
    TWindow,
    TemporalExpr,
    TiltProgram,
    UnaryOp,
    Var,
)
from ..ops import eval_op
from ..runtime.ssbuf import SSBuf
from .grid import evaluation_times

__all__ = ["Interpreter", "evaluate_expr_at", "evaluate_temporal_expr", "evaluate_program"]

ScalarResult = Tuple[float, bool]


def evaluate_expr_at(
    expr: Expr,
    t: float,
    env: Mapping[str, SSBuf],
    bindings: Optional[Dict[str, ScalarResult]] = None,
) -> ScalarResult:
    """Evaluate a scalar TiLT expression at time ``t``.

    Returns ``(value, valid)``; φ-propagation follows the shared operator
    semantics in :mod:`repro.core.ops`.
    """
    bindings = bindings if bindings is not None else {}

    if isinstance(expr, Const):
        return (expr.value, True)
    if isinstance(expr, Phi):
        return (0.0, False)
    if isinstance(expr, Var):
        if expr.name not in bindings:
            raise ExecutionError(f"unbound variable {expr.name!r}")
        return bindings[expr.name]
    if isinstance(expr, (TRef, TIndex)):
        name = expr.name if isinstance(expr, TRef) else expr.ref
        offset = 0.0 if isinstance(expr, TRef) else expr.offset
        buf = env.get(name)
        if buf is None:
            raise ExecutionError(f"unknown temporal object ~{name}")
        return buf.value_at(t + offset)
    if isinstance(expr, Reduce):
        return _evaluate_reduce(expr, t, env, bindings)
    if isinstance(expr, TWindow):
        raise ExecutionError("windowed temporal object evaluated outside a reduction")
    if isinstance(expr, (BinOp, UnaryOp, Call)):
        vals = []
        for operand in expr.children():
            v, ok = evaluate_expr_at(operand, t, env, bindings)
            if not ok:
                return (0.0, False)
            vals.append(v)
        return eval_op(expr.row, vals)
    if isinstance(expr, IfThenElse):
        cv, cok = evaluate_expr_at(expr.cond, t, env, bindings)
        if not cok:
            return (0.0, False)
        branch = expr.then if cv != 0 else expr.orelse
        return evaluate_expr_at(branch, t, env, bindings)
    if isinstance(expr, IsValid):
        _, ok = evaluate_expr_at(expr.operand, t, env, bindings)
        return (1.0 if ok else 0.0, True)
    if isinstance(expr, Coalesce):
        v, ok = evaluate_expr_at(expr.operand, t, env, bindings)
        if ok:
            return (v, True)
        return evaluate_expr_at(expr.default, t, env, bindings)
    if isinstance(expr, Let):
        scope = dict(bindings)
        for name, value in expr.bindings:
            scope[name] = evaluate_expr_at(value, t, env, scope)
        return evaluate_expr_at(expr.body, t, env, scope)
    raise ExecutionError(f"cannot evaluate IR node of type {type(expr).__name__}")


def _evaluate_reduce(
    expr: Reduce, t: float, env: Mapping[str, SSBuf], bindings: Dict[str, ScalarResult]
) -> ScalarResult:
    window = expr.window
    buf = env.get(window.ref)
    if buf is None:
        raise ExecutionError(f"unknown temporal object ~{window.ref}")
    ws = t + window.start_offset
    we = t + window.end_offset
    lo = int(np.searchsorted(buf.times, ws, side="right"))
    hi = int(np.searchsorted(buf.interval_starts, we, side="left"))
    values: List[float] = []
    for i in range(lo, hi):
        if not buf.valid[i]:
            continue
        v = float(buf.values[i])
        if expr.element is not None:
            scope = dict(bindings)
            scope[ELEM_VAR] = (v, True)
            mv, mok = evaluate_expr_at(expr.element, t, env, scope)
            if not mok:
                continue
            v = mv
        values.append(v)
    return expr.agg.fold(values)


def evaluate_temporal_expr(
    te: TemporalExpr,
    env: Mapping[str, SSBuf],
    t_start: float,
    t_end: float,
) -> SSBuf:
    """Materialize one temporal expression over ``(t_start, t_end]``."""
    times = evaluation_times(te.expr, env, te.tdom, t_start, t_end)
    if len(times) == 0:
        return SSBuf.empty(t_start)
    values = np.zeros(len(times))
    valid = np.zeros(len(times), dtype=bool)
    for i, t in enumerate(times):
        values[i], valid[i] = evaluate_expr_at(te.expr, float(t), env)
    # Note: the buffer is deliberately *not* compacted.  Reductions over a
    # derived temporal object fold one value per snapshot; merging adjacent
    # equal snapshots would silently change those counts (e.g. the mean of a
    # window containing repeated values).
    return SSBuf(times, values, valid, start_time=t_start)


def evaluate_program(
    program: TiltProgram,
    inputs: Mapping[str, SSBuf],
    t_start: float,
    t_end: float,
    boundary=None,
) -> Dict[str, SSBuf]:
    """Evaluate every temporal expression of a program (interpreted mode).

    Returns the full environment (inputs + all materialized intermediates);
    the output buffer is ``result[program.output]``.  When ``boundary`` (a
    :class:`~repro.core.lineage.BoundarySpec`) is given, intermediate
    expressions are materialized over a correspondingly extended interval so
    that consumers reading into the past/future find their data.
    """
    env: Dict[str, SSBuf] = dict(inputs)
    missing = [name for name in program.inputs if name not in env]
    if missing:
        raise ExecutionError(f"missing input streams: {missing}")
    lookback = boundary.max_lookback if boundary is not None else 0.0
    lookahead = boundary.max_lookahead if boundary is not None else 0.0
    order = topological_order(program)
    for name in order:
        te = program.expr_named(name)
        if name == program.output:
            env[name] = evaluate_temporal_expr(te, env, t_start, t_end)
        else:
            env[name] = evaluate_temporal_expr(te, env, t_start - lookback, t_end + lookahead)
    return env


class Interpreter:
    """Object wrapper around :func:`evaluate_program` (keeps a program and
    its resolved boundary around for repeated runs)."""

    def __init__(self, program: TiltProgram, boundary=None):
        self.program = program
        self.boundary = boundary

    def run(self, inputs: Mapping[str, SSBuf], t_start: float, t_end: float) -> SSBuf:
        """Run the program and return the output snapshot buffer."""
        env = evaluate_program(self.program, inputs, t_start, t_end, boundary=self.boundary)
        return env[self.program.output]
