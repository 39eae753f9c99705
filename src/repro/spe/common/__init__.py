"""Operators and per-event expression evaluation of the baseline engine."""

from .expreval import eval_event_expr
from .operators import (
    ChopOperator,
    MergeJoinOperator,
    SelectOperator,
    ShiftOperator,
    StatefulOperator,
    WhereOperator,
    WindowAggregateOperator,
)

__all__ = [
    "eval_event_expr",
    "StatefulOperator",
    "SelectOperator",
    "WhereOperator",
    "ShiftOperator",
    "ChopOperator",
    "WindowAggregateOperator",
    "MergeJoinOperator",
]
