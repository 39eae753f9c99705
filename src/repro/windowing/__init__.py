"""Sliding-window aggregation substrate.

Aggregate function templates (Init/Acc/Result/Deacc, Section 6.1.2 of the
paper) and the range indexes the TiLT backend evaluates windows with:
prefix sums, a sparse-table RMQ, a first/last-valid search, and a
per-window fold.
"""

from .functions import (
    COUNT,
    FIRST,
    LAST,
    MAX,
    MEAN,
    MIN,
    PRODUCT,
    STDDEV,
    SUM,
    SUM_SQUARES,
    VARIANCE,
    AggregateFunction,
    builtin_aggregates,
    custom_aggregate,
    derived_aggregate,
)
from .prefix import PrefixRangeIndex, snapshot_range_indices
from .sliding import build_range_index, range_aggregate
from .sparse_table import SparseTableRMQ

__all__ = [
    "AggregateFunction",
    "builtin_aggregates",
    "custom_aggregate",
    "derived_aggregate",
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
    "PrefixRangeIndex",
    "snapshot_range_indices",
    "SparseTableRMQ",
    "build_range_index",
    "range_aggregate",
]
