"""Seeded LNT107 violations: operator / aggregate meaning encoded a second
time, outside ``core/ops.py`` and ``windowing/functions.py``.

Never imported — parsed by the lint checkers in tests and by the CI gate.
"""

_C_BINOPS = {"+": "({a} + {b})", "max": "NPMAX({a}, {b})"}  # LNT107
_PREFIX_AGGS = {"sum", "count", "mean"}  # LNT107


def lower(node, agg, group):
    if node.op == "%":  # LNT107
        return None
    if node.func in ("sqrt", "exp"):  # LNT107
        return None
    fill = "(-INFINITY)" if agg.name == "max" else "INFINITY"  # LNT107
    # negatives the checker must NOT flag
    histogram = {"count": group.count, "sum": group.sum, "buckets": []}  # not all keys are rows
    if node.name == "engine.compile" or group.kind == "max":  # not a row name / not a row field
        return histogram
    if node.op in _C_BINOPS and agg.name != node.name:  # reads a table, compares no literal
        return fill
    return node.row.c
