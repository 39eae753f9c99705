"""Per-event scalar expression evaluation for the interpreted baseline.

The frontend expresses Select/Where/Join payload functions as TiLT scalar
expressions over placeholders (``PAYLOAD``, ``LEFT``, ``RIGHT``).  The
event-centric baseline evaluates those expressions one event at a time by
walking the expression tree — precisely the per-event interpretation
overhead the paper attributes to engines like Trill, and the reason the
baseline is slow relative to TiLT's generated kernels.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...core.codegen.interpreter import evaluate_expr_at
from ...core.ir.nodes import Expr

__all__ = ["eval_event_expr"]

_EMPTY_ENV: Dict = {}


def eval_event_expr(expr: Expr, bindings: Dict[str, Tuple[float, bool]]) -> Tuple[float, bool]:
    """Evaluate a payload expression for a single event.

    ``bindings`` maps placeholder variable names (e.g. ``"%payload"``) to
    ``(value, valid)`` pairs.  Returns ``(value, valid)``; an invalid result
    means the event is dropped (φ).
    """
    return evaluate_expr_at(expr, 0.0, _EMPTY_ENV, bindings)
