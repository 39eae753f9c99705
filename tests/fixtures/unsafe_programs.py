"""Deliberately unsafe / suspicious TiLT IR programs for analyzer tests.

Each entry pairs a hand-built program with the finding code the analyzer
must produce for it.  These are programs the *structural* validator happily
accepts — the hazards only fall out of the bounds-safety / hygiene / domain
analyses, which is exactly why ``repro.analysis`` exists.

Also exercised by the native tier's refuse-with-reason path: kernels
generated outside ``compile_program`` carry no bounds proof and must be
refused native lowering (see ``test_analysis.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.ir.nodes import (
    BinOp,
    Call,
    Coalesce,
    Const,
    IsValid,
    TDom,
    TIndex,
    TRef,
    TWindow,
    TemporalExpr,
    TiltProgram,
    UnaryOp,
)
from repro.windowing import SUM

_TD = TDom(precision=1.0)


def _prog(exprs, output, inputs=("x",)) -> TiltProgram:
    return TiltProgram(tuple(inputs), tuple(exprs), output)


@dataclass(frozen=True)
class UnsafeProgram:
    """One corpus entry: the program plus the finding it must provoke."""

    name: str
    program: TiltProgram
    expected_code: str
    expected_severity: str  # "error" | "warning"


def _unbounded_window() -> TiltProgram:
    # ~out[t] = sum(~x[-inf : t]) — no finite lookback margin exists, the
    # query cannot be partitioned (BS001; resolve_boundaries raises too).
    expr = TWindow("x", float("-inf"), 0.0).reduce(SUM)
    return _prog([TemporalExpr("out", _TD, expr)], "out")


def _const_read_into_void() -> TiltProgram:
    # ~mid carries no input lineage, so the resolved margins are zero — yet
    # ~out consumes ~mid 50 ticks in the past.  CompiledQuery.run would
    # materialize ~mid over (Ts, Te] only and the reads at (Ts-50, Te-50]
    # silently come back φ (BS003).
    mid = TemporalExpr("mid", _TD, Const(5.0))
    out = TemporalExpr(
        "out", _TD, BinOp("+", TIndex("x", 0.0), TIndex("mid", -50.0))
    )
    return _prog([mid, out], "out")


def _lookahead_shadow() -> TiltProgram:
    # ~fwd reads the *future* of ~x (margin: lookahead only, lookback 20);
    # ~out then reads ~fwd 30 ticks back.  Composed input margins cover
    # (Ts-20, Te], but ~fwd itself is consumed over (Ts-30, Te-30] while
    # materialized over (Ts-20, Te] — the head of the range is missing
    # (BS003).
    fwd = TemporalExpr("fwd", _TD, TWindow("x", 10.0, 20.0).reduce(SUM))
    out = TemporalExpr("out", _TD, TIndex("fwd", -30.0))
    return _prog([fwd, out], "out")


def _dead_definition() -> TiltProgram:
    # ~orphan is computed every partition but never consumed (DD001).
    orphan = TemporalExpr("orphan", _TD, TWindow("x", -10.0, 0.0).reduce(SUM))
    out = TemporalExpr("out", _TD, TIndex("x", 0.0))
    return _prog([orphan, out], "out")


def _unused_input() -> TiltProgram:
    # input ~y is declared but never referenced (DD002).
    out = TemporalExpr("out", _TD, TIndex("x", 0.0))
    return _prog([out], "out", inputs=("x", "y"))


def _unguarded_divide() -> TiltProgram:
    # ~x / ~x — the divisor can be zero and nothing observes the φ (DOM001).
    out = TemporalExpr(
        "out", _TD, BinOp("/", TIndex("x", 0.0), TIndex("x", -1.0))
    )
    return _prog([out], "out")


def _divide_by_max_with_zero() -> TiltProgram:
    # ~x / max(~x[-1], 0) — a floor of zero is no guard (DOM001).
    divisor = BinOp("max", TIndex("x", -1.0), Const(0.0))
    out = TemporalExpr("out", _TD, BinOp("/", TIndex("x", 0.0), divisor))
    return _prog([out], "out")


def _unguarded_sqrt() -> TiltProgram:
    # sqrt of a raw stream value that may be negative (DOM002).
    out = TemporalExpr("out", _TD, Call("sqrt", (TIndex("x", 0.0),)))
    return _prog([out], "out")


def _unguarded_log() -> TiltProgram:
    # log of a value not provably positive (DOM003).
    out = TemporalExpr("out", _TD, UnaryOp("log", TIndex("x", 0.0)))
    return _prog([out], "out")


def _misaligned_precision() -> TiltProgram:
    # precisions 3 and 2 don't nest: the partition alignment grid (3) is
    # not a multiple of 2, so partition edges can split ~fine's points
    # (BS004).
    fine = TemporalExpr("fine", TDom(precision=2.0), TIndex("x", 0.0))
    out = TemporalExpr(
        "out", TDom(precision=3.0), BinOp("+", TIndex("fine", 0.0), Const(1.0))
    )
    return _prog([fine, out], "out")


#: the corpus: every entry must yield its expected finding code
UNSAFE_PROGRAMS: List[UnsafeProgram] = [
    UnsafeProgram("unbounded-window", _unbounded_window(), "BS001", "error"),
    UnsafeProgram("const-read-into-void", _const_read_into_void(), "BS003", "error"),
    UnsafeProgram("lookahead-shadow", _lookahead_shadow(), "BS003", "error"),
    UnsafeProgram("dead-definition", _dead_definition(), "DD001", "warning"),
    UnsafeProgram("unused-input", _unused_input(), "DD002", "warning"),
    UnsafeProgram("unguarded-divide", _unguarded_divide(), "DOM001", "warning"),
    UnsafeProgram("divide-by-max-with-zero", _divide_by_max_with_zero(), "DOM001", "warning"),
    UnsafeProgram("unguarded-sqrt", _unguarded_sqrt(), "DOM002", "warning"),
    UnsafeProgram("unguarded-log", _unguarded_log(), "DOM003", "warning"),
    UnsafeProgram("misaligned-precision", _misaligned_precision(), "BS004", "warning"),
]


def guarded_domain_program() -> TiltProgram:
    """Negative control: the same divide/sqrt sites, properly guarded.

    The division result flows through ``Coalesce``, a second divisor is
    floored at a positive constant (``max(~x[-1], 1)``) and the sqrt operand
    is ``abs``-wrapped — the analyzer must emit no DOM findings.
    """
    div = BinOp("/", TIndex("x", 0.0), TIndex("x", -1.0))
    floored = BinOp("/", TIndex("x", 0.0), BinOp("max", TIndex("x", -1.0), Const(1.0)))
    root = Call("sqrt", (UnaryOp("abs", TIndex("x", 0.0)),))
    valid = IsValid(TIndex("x", 0.0))
    body = BinOp("+", Coalesce(div, Const(0.0)), BinOp("+", root, BinOp("+", valid, floored)))
    return _prog([TemporalExpr("out", _TD, body)], "out")
