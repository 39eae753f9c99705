"""Stateful, event-centric physical operators.

These are the building blocks of the interpreted Trill-like baseline
engine.  Each operator follows the classic iterator/push model the paper
describes in Section 3: it receives events (in micro-batches), updates its
internal state, and emits output events to the next operator in the
data-flow graph.  All per-event work happens in Python, including the
per-event evaluation of user expressions — the interpretation overhead that
compiler-based engines eliminate.

Operator state is explicit so that a query runs batch by batch (the
engine's ``batch_size``): ``process`` consumes one input batch, ``flush``
drains any remaining state at end-of-stream.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ...core.ir.nodes import Expr
from ...core.runtime.stream import Event
from ...errors import UnsupportedOperationError
from ...windowing.functions import AggregateFunction
from .expreval import eval_event_expr

__all__ = [
    "StatefulOperator",
    "SelectOperator",
    "WhereOperator",
    "ShiftOperator",
    "ChopOperator",
    "WindowAggregateOperator",
    "MergeJoinOperator",
    "coalesce_events",
]

PAYLOAD_VAR = "%payload"
LEFT_VAR = "%left"
RIGHT_VAR = "%right"


class StatefulOperator:
    """Base class: single-input stateful operator."""

    def process(self, events: Sequence[Event]) -> List[Event]:
        """Consume a batch of in-order events, return output events."""
        raise NotImplementedError

    def flush(self) -> List[Event]:
        """Drain remaining state at end-of-stream."""
        return []


class SelectOperator(StatefulOperator):
    """Per-event projection: evaluates the payload expression on every event."""

    def __init__(self, expr: Expr):
        self.expr = expr

    def process(self, events: Sequence[Event]) -> List[Event]:
        out: List[Event] = []
        for e in events:
            value, ok = eval_event_expr(self.expr, {PAYLOAD_VAR: (e.value(), True)})
            if ok:
                out.append(Event(e.start, e.end, value))
        return out


class WhereOperator(StatefulOperator):
    """Per-event filter: keeps events whose payload satisfies the predicate."""

    def __init__(self, predicate: Expr):
        self.predicate = predicate

    def process(self, events: Sequence[Event]) -> List[Event]:
        out: List[Event] = []
        for e in events:
            keep, ok = eval_event_expr(self.predicate, {PAYLOAD_VAR: (e.value(), True)})
            if ok and keep != 0:
                out.append(e)
        return out


class ShiftOperator(StatefulOperator):
    """Delays every event's validity interval by a fixed number of seconds."""

    def __init__(self, delay: float):
        self.delay = float(delay)

    def process(self, events: Sequence[Event]) -> List[Event]:
        return [Event(e.start + self.delay, e.end + self.delay, e.payload) for e in events]


class ChopOperator(StatefulOperator):
    """Splits event intervals at multiples of ``period`` seconds."""

    def __init__(self, period: float):
        if period <= 0:
            raise UnsupportedOperationError("chop period must be positive")
        self.period = float(period)

    def process(self, events: Sequence[Event]) -> List[Event]:
        out: List[Event] = []
        eps = self.period * 1e-9
        for e in events:
            start = e.start
            while start < e.end - eps:
                boundary = math.floor(start / self.period) * self.period + self.period
                if boundary <= start + eps:
                    boundary += self.period
                end = min(boundary, e.end)
                out.append(Event(start, end, e.payload))
                start = end
        return out


class WindowAggregateOperator(StatefulOperator):
    """Sliding/tumbling window aggregation over an in-order event stream.

    Maintains a buffer of events that may still contribute to an open window
    and emits a result for every window end ``g`` (a multiple of ``stride``)
    once an arriving event proves that no further events can land in that
    window.  Window results carry the validity interval ``(g - stride, g]``
    and windows with no events emit nothing, matching the TiLT semantics so
    that cross-engine results are comparable.
    """

    def __init__(
        self,
        size: float,
        stride: float,
        agg: AggregateFunction,
        element: Optional[Expr] = None,
    ):
        self.size = float(size)
        self.stride = float(stride)
        self.agg = agg
        self.element = element
        self._buffer: Deque[Event] = deque()
        self._next_grid: Optional[float] = None

    # ------------------------------------------------------------------ #
    def process(self, events: Sequence[Event]) -> List[Event]:
        out: List[Event] = []
        for e in events:
            if self._next_grid is None:
                self._next_grid = math.floor(e.start / self.stride) * self.stride + self.stride
            # any window ending at or before this event's start is now final
            while self._next_grid is not None and e.start >= self._next_grid:
                out.extend(self._emit_window(self._next_grid))
                self._next_grid += self.stride
            self._buffer.append(e)
        return out

    def flush(self) -> List[Event]:
        out: List[Event] = []
        if self._next_grid is None:
            return out
        last_end = max((e.end for e in self._buffer), default=self._next_grid)
        # emit every window that overlaps buffered data, i.e. whose start lies
        # before the end of the last buffered event.
        while self._next_grid - self.stride < last_end:
            out.extend(self._emit_window(self._next_grid))
            self._next_grid += self.stride
        return out

    # ------------------------------------------------------------------ #
    def _emit_window(self, grid_end: float) -> List[Event]:
        ws = grid_end - self.size
        # evict events that can no longer contribute to any window >= grid_end
        while self._buffer and self._buffer[0].end <= ws:
            self._buffer.popleft()
        values: List[float] = []
        for e in self._buffer:
            if e.end > ws and e.start < grid_end:
                v = e.value()
                if self.element is not None:
                    v, ok = eval_event_expr(self.element, {PAYLOAD_VAR: (v, True)})
                    if not ok:
                        continue
                values.append(v)
        result, ok = self.agg.fold(values)
        if not ok:
            return []
        return [Event(grid_end - self.stride, grid_end, result)]


def coalesce_events(left: Sequence[Event], right: Sequence[Event]) -> List[Event]:
    """Left-preferring temporal merge of two in-order event sequences.

    Emits the left events unchanged, plus the portions of right events not
    covered by any left event.  Used by the baseline engine to implement the
    frontend Coalesce operator (the imputation query).
    """
    out: List[Event] = list(left)
    left_sorted = sorted(left, key=lambda e: e.start)
    for r in right:
        gaps = [(r.start, r.end)]
        for l in left_sorted:
            if l.end <= r.start:
                continue
            if l.start >= r.end:
                break
            new_gaps: List[Tuple[float, float]] = []
            for gs, ge in gaps:
                if l.end <= gs or l.start >= ge:
                    new_gaps.append((gs, ge))
                    continue
                if l.start > gs:
                    new_gaps.append((gs, l.start))
                if l.end < ge:
                    new_gaps.append((l.end, ge))
            gaps = new_gaps
            if not gaps:
                break
        for gs, ge in gaps:
            if ge > gs:
                out.append(Event(gs, ge, r.payload))
    out.sort(key=lambda e: (e.start, e.end))
    return out


class _JoinState:
    """Buffered events, watermarks and payload evaluation of a temporal join."""

    def __init__(self, expr: Expr):
        self.expr = expr
        self.left: List[Event] = []
        self.right: List[Event] = []
        self.left_wm = -math.inf
        self.right_wm = -math.inf

    def payload(self, l: Event, r: Event) -> Tuple[float, bool]:
        return eval_event_expr(
            self.expr, {LEFT_VAR: (l.value(), True), RIGHT_VAR: (r.value(), True)}
        )

    @staticmethod
    def overlap(l: Event, r: Event) -> Optional[Tuple[float, float]]:
        start = max(l.start, r.start)
        end = min(l.end, r.end)
        if end > start:
            return (start, end)
        return None

    def evict(self) -> None:
        wm = min(self.left_wm, self.right_wm)
        self.left = [e for e in self.left if e.end > wm]
        self.right = [e for e in self.right if e.end > wm]


class MergeJoinOperator:
    """Temporal join using an in-order sweep (the Trill-style O(n) join).

    ``process_left`` / ``process_right`` accept batches from either side; the
    operator joins each newly arrived event against the buffered events of
    the other side, then evicts events that can no longer overlap anything.
    """

    def __init__(self, expr: Expr):
        self._state = _JoinState(expr)

    def process_left(self, events: Sequence[Event]) -> List[Event]:
        return self._process(events, left_side=True)

    def process_right(self, events: Sequence[Event]) -> List[Event]:
        return self._process(events, left_side=False)

    def flush(self) -> List[Event]:
        return []

    def _process(self, events: Sequence[Event], left_side: bool) -> List[Event]:
        st = self._state
        out: List[Event] = []
        own = st.left if left_side else st.right
        other = st.right if left_side else st.left
        for e in events:
            if left_side:
                st.left_wm = max(st.left_wm, e.start)
            else:
                st.right_wm = max(st.right_wm, e.start)
            # in-order merge: other-side events are sorted by start; skip the
            # prefix that ends before this event starts.
            for o in other:
                if o.end <= e.start:
                    continue
                if o.start >= e.end:
                    break
                pair = (e, o) if left_side else (o, e)
                window = st.overlap(*pair)
                if window is None:
                    continue
                value, ok = st.payload(*pair)
                if ok:
                    out.append(Event(window[0], window[1], value))
            own.append(e)
        st.evict()
        out.sort(key=lambda ev: (ev.start, ev.end))
        return out
