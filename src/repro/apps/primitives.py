"""Primitive temporal operations (Figure 1 / Figure 7a of the paper).

Four single-operator micro-benchmarks — Select, Where, Window-Sum and
temporal Join — measured on a synthetic scalar stream.  These are the
queries of the Figure 7a throughput comparison across all five engines.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.frontend.query import LEFT, PAYLOAD, RIGHT, QueryNode, source
from ..core.runtime.stream import ColumnChunk, EventStream
from ..datagen.generators import uniform_value_stream
from .base import StreamingApplication

__all__ = [
    "select_query",
    "where_query",
    "window_sum_query",
    "join_query",
    "SELECT_OP",
    "WHERE_OP",
    "WINDOW_SUM_OP",
    "JOIN_OP",
    "PRIMITIVE_OPERATIONS",
]

E = PAYLOAD


def select_query() -> QueryNode:
    """Figure 1a: per-event projection ``e => e + 1``."""
    return source("values").select(E + 1.0).named("selected")


def where_query() -> QueryNode:
    """Figure 1b: per-event filter ``e => e % 2 == 0``."""
    return source("values").where((E % 2.0).eq(0.0)).named("filtered")


def window_sum_query(size: float = 10.0, stride: float = 5.0) -> QueryNode:
    """Figure 1d: sliding-window sum with a 10-second window and 5-second stride."""
    return source("values").sum(size, stride).named("wsum")


def join_query() -> QueryNode:
    """Figure 1c: temporal join ``(l, r) => l + r`` of two streams."""
    left = source("left")
    right = source("right")
    return left.join(right, LEFT + RIGHT).named("joined")


def _single_stream(num_events: int, seed: int) -> Dict[str, EventStream]:
    return {"values": uniform_value_stream(num_events, seed=seed + 29)}


def _integer_stream(num_events: int, seed: int) -> Dict[str, EventStream]:
    cols = uniform_value_stream(num_events, seed=seed + 29).columns()
    rounded = ColumnChunk(cols.starts, cols.ends, np.round(cols.values))
    return {"values": EventStream(rounded, name="values", check_order=False)}


def _two_streams(num_events: int, seed: int) -> Dict[str, EventStream]:
    half = max(1, num_events // 2)
    return {
        "left": uniform_value_stream(half, seed=seed + 29, period=1.0, name="left"),
        "right": uniform_value_stream(half, seed=seed + 31, period=1.3, name="right"),
    }


SELECT_OP = StreamingApplication(
    name="select",
    title="Select",
    description="Per-event projection e => e + 1",
    operators="Select",
    dataset="Synthetic uniform values",
    build_query=select_query,
    build_streams=_single_stream,
)

WHERE_OP = StreamingApplication(
    name="where",
    title="Where",
    description="Per-event filter e => e % 2 == 0",
    operators="Where",
    dataset="Synthetic integer values",
    build_query=where_query,
    build_streams=_integer_stream,
)

WINDOW_SUM_OP = StreamingApplication(
    name="wsum",
    title="Window-Sum",
    description="Sliding window sum, size 10 stride 5",
    operators="Window, Sum",
    dataset="Synthetic uniform values",
    build_query=window_sum_query,
    build_streams=_single_stream,
)

JOIN_OP = StreamingApplication(
    name="join",
    title="Temporal Join",
    description="Temporal join (l, r) => l + r",
    operators="Join",
    dataset="Two synthetic uniform value streams",
    build_query=join_query,
    build_streams=_two_streams,
)

#: the four micro-benchmarks of Figure 7a, in presentation order
PRIMITIVE_OPERATIONS = [SELECT_OP, WHERE_OP, WINDOW_SUM_OP, JOIN_OP]
