"""Sliding-window aggregation substrate.

Aggregate function templates (Init/Acc/Result/Deacc, Section 6.1.2 of the
paper) and the window aggregation algorithms used by both the TiLT backend
and the baseline engines: prefix-sum range indexes, sparse-table RMQ,
Subtract-on-Evict, two-stacks, and naive recomputation.
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
)
from .online import (
    RecomputeAggregator,
    SubtractOnEvict,
    TwoStacksAggregator,
    make_online_aggregator,
)
from .prefix import PrefixRangeIndex, snapshot_range_indices
from .sliding import (
    build_range_index,
    range_aggregate,
    streaming_window_aggregate,
    window_aggregate,
    window_grid,
)
from .sparse_table import SparseTableRMQ

__all__ = [
    "AggregateFunction",
    "builtin_aggregates",
    "custom_aggregate",
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
    "SubtractOnEvict",
    "TwoStacksAggregator",
    "RecomputeAggregator",
    "make_online_aggregator",
    "PrefixRangeIndex",
    "snapshot_range_indices",
    "SparseTableRMQ",
    "build_range_index",
    "range_aggregate",
    "window_aggregate",
    "streaming_window_aggregate",
    "window_grid",
]
