"""Trill-like baseline engine.

An interpretation-based, event-centric SPE modelled on the architectural
properties the paper attributes to Microsoft Trill (Section 3 and 8):

* the logical query (a frontend operator DAG) is mapped operator-by-operator
  onto concrete stateful implementations and *interpreted*: every event flows
  through per-event Python code, including tree-walking evaluation of the
  user's Select/Where/Join expressions;
* events move between operators in columnar micro-batches of a configurable
  size — the knob behind the latency/throughput trade-off of Figure 9;
* Trill parallelises only over partitioned input streams, one partition
  per worker, which is why it scales worst in the paper's Figure 8 study;
  this engine models one partition and runs on the calling thread.

The engine supports the full operator vocabulary (Select, Where, Shift,
Chop, windowed aggregation with arbitrary aggregate functions, temporal
Join), which is why Trill is the only baseline of the paper that can run
all eight real-world applications.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ...core.frontend.query import (
    Chop,
    CoalesceJoin,
    Join,
    QueryNode,
    Select,
    Shift,
    StreamSource,
    Where,
    WindowAggregate,
)
from ...core.runtime.stream import Event, EventStream
from ...errors import ExecutionError, UnsupportedOperationError
from ..common.operators import (
    ChopOperator,
    MergeJoinOperator,
    SelectOperator,
    ShiftOperator,
    WhereOperator,
    WindowAggregateOperator,
    coalesce_events,
)

__all__ = ["TrillEngine"]


class TrillEngine:
    """Interpreted, micro-batched, event-centric baseline engine."""

    def __init__(self, batch_size: int = 4096):
        if batch_size <= 0:
            raise ExecutionError("batch_size must be positive")
        self.batch_size = int(batch_size)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self, query: QueryNode, streams: Mapping[str, EventStream]) -> EventStream:
        """Execute the query DAG over the given input streams."""
        memo: Dict[int, List[Event]] = {}
        events = self._execute(query, streams, memo)
        return EventStream(sorted(events, key=lambda e: (e.start, e.end)),
                          name="output", check_order=False)

    # ------------------------------------------------------------------ #
    # DAG interpretation
    # ------------------------------------------------------------------ #
    def _execute(
        self,
        node: QueryNode,
        streams: Mapping[str, EventStream],
        memo: Dict[int, List[Event]],
    ) -> List[Event]:
        key = id(node)
        if key in memo:
            return memo[key]
        result = self._execute_node(node, streams, memo)
        memo[key] = result
        return result

    def _execute_node(
        self,
        node: QueryNode,
        streams: Mapping[str, EventStream],
        memo: Dict[int, List[Event]],
    ) -> List[Event]:
        if isinstance(node, StreamSource):
            stream = streams.get(node.stream)
            if stream is None:
                raise ExecutionError(f"missing input stream {node.stream!r}")
            if node.field is not None:
                stream = stream.select_field(node.field)
            return list(stream.events)
        if isinstance(node, Select):
            return self._run_unary(SelectOperator(node.expr), node, streams, memo)
        if isinstance(node, Where):
            return self._run_unary(WhereOperator(node.predicate), node, streams, memo)
        if isinstance(node, Shift):
            return self._run_unary(ShiftOperator(node.delay), node, streams, memo)
        if isinstance(node, Chop):
            return self._run_unary(ChopOperator(node.period), node, streams, memo)
        if isinstance(node, WindowAggregate):
            op = WindowAggregateOperator(node.size, node.stride, node.agg, node.element)
            return self._run_unary(op, node, streams, memo)
        if isinstance(node, Join):
            return self._run_join(node, streams, memo)
        if isinstance(node, CoalesceJoin):
            left = self._execute(node.parents[0], streams, memo)
            right = self._execute(node.parents[1], streams, memo)
            return coalesce_events(left, right)
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not support operator {node.describe()}"
        )

    def _run_unary(
        self,
        operator,
        node: QueryNode,
        streams: Mapping[str, EventStream],
        memo: Dict[int, List[Event]],
    ) -> List[Event]:
        upstream = self._execute(node.parents[0], streams, memo)
        out: List[Event] = []
        for batch in _chunks(upstream, self.batch_size):
            out.extend(operator.process(batch))
        out.extend(operator.flush())
        return out

    def _run_join(
        self,
        node: Join,
        streams: Mapping[str, EventStream],
        memo: Dict[int, List[Event]],
    ) -> List[Event]:
        left = self._execute(node.parents[0], streams, memo)
        right = self._execute(node.parents[1], streams, memo)
        op = MergeJoinOperator(node.expr)
        out: List[Event] = []
        left_batches = list(_chunks(left, self.batch_size))
        right_batches = list(_chunks(right, self.batch_size))
        li = ri = 0
        # feed batches in (approximate) time order so the join buffers stay small
        while li < len(left_batches) or ri < len(right_batches):
            take_left = ri >= len(right_batches) or (
                li < len(left_batches)
                and left_batches[li][0].start <= right_batches[ri][0].start
            )
            if take_left:
                out.extend(op.process_left(left_batches[li]))
                li += 1
            else:
                out.extend(op.process_right(right_batches[ri]))
                ri += 1
        out.extend(op.flush())
        return out


def _chunks(events: List[Event], size: int) -> List[List[Event]]:
    return [events[i : i + size] for i in range(0, len(events), size)]
