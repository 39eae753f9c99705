"""Grizzly-like baseline engine.

Grizzly is a compiler-based SPE specialized for window aggregation.  The two
properties of it that the paper's evaluation exercises are reproduced here:

* **limited operator coverage** — only Select, Where and windowed
  aggregation are supported; temporal Join, Shift and Chop raise
  :class:`~repro.errors.UnsupportedOperationError`, which is why Grizzly
  cannot run the eight real-world applications (Section 7.3);
* **shared atomic aggregation state** — parallel workers aggregate into a
  single shared hash table of window states protected by a lock.  Every
  mini-chunk of events pays a synchronization round-trip, which is what
  limits Grizzly's multi-core scaling in Figure 8 and its Window-Sum
  throughput in Figure 7a.

Select/Where are evaluated batch-at-a-time over NumPy arrays ("compiled"
execution), so Grizzly lands where the paper puts it: much faster than the
interpreted engines, slower than TiLT.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Mapping, Tuple

import numpy as np

from ...core.frontend.query import (
    Join,
    QueryNode,
    Select,
    StreamSource,
    Where,
    WindowAggregate,
)
from ...core.runtime.executor import default_kind, make_executor
from ...core.runtime.stream import ColumnChunk, EventStream
from ...errors import ExecutionError, UnsupportedOperationError
from ...windowing.functions import AggregateFunction
from ..common.vectoreval import eval_expr_vectorized

__all__ = ["GrizzlyEngine"]

PAYLOAD_VAR = "%payload"

#: events per shared-state synchronization round-trip
_CHUNK = 512


class GrizzlyEngine:
    """Aggregation-only engine with vectorized operators and shared window state."""

    name = "grizzly"

    def __init__(self, batch_size: int = 32768, workers: int = 1):
        self.batch_size = int(batch_size)
        self.workers = max(1, int(workers))

    # ------------------------------------------------------------------ #
    def run(self, query: QueryNode, streams: Mapping[str, EventStream]) -> EventStream:
        """Execute a Select/Where/Window-aggregate query."""
        columns = self._columns_for(query, streams)
        return EventStream(columns.sorted(), name="output", check_order=False)

    def _columns_for(self, node: QueryNode, streams: Mapping[str, EventStream]) -> ColumnChunk:
        if isinstance(node, StreamSource):
            stream = streams.get(node.stream)
            if stream is None:
                raise ExecutionError(f"missing input stream {node.stream!r}")
            if node.field is not None:
                stream = stream.select_field(node.field)
            return stream.columns()
        if isinstance(node, Select):
            cols = self._columns_for(node.parents[0], streams)
            n = len(cols)
            values, valid = eval_expr_vectorized(
                node.expr, {PAYLOAD_VAR: (cols.values, np.ones(n, dtype=bool))}, n
            )
            cols = ColumnChunk(cols.starts, cols.ends, np.asarray(values, dtype=np.float64))
            return cols[valid]
        if isinstance(node, Where):
            cols = self._columns_for(node.parents[0], streams)
            n = len(cols)
            keep, valid = eval_expr_vectorized(
                node.predicate, {PAYLOAD_VAR: (cols.values, np.ones(n, dtype=bool))}, n
            )
            return cols[valid & (keep != 0)]
        if isinstance(node, WindowAggregate):
            cols = self._columns_for(node.parents[0], streams)
            return self._window_aggregate(cols, node)
        if isinstance(node, Join):
            raise UnsupportedOperationError("Grizzly-like engine does not support temporal Join")
        raise UnsupportedOperationError(
            f"Grizzly-like engine does not support operator {node.describe()}"
        )

    # ------------------------------------------------------------------ #
    # shared-state parallel window aggregation
    # ------------------------------------------------------------------ #
    def _window_aggregate(self, cols: ColumnChunk, node: WindowAggregate) -> ColumnChunk:
        if len(cols) == 0:
            return ColumnChunk.empty()
        agg = node.agg
        size, stride = node.size, node.stride
        values = cols.values
        if node.element is not None:
            n = len(cols)
            values, valid = eval_expr_vectorized(
                node.element, {PAYLOAD_VAR: (values, np.ones(n, dtype=bool))}, n
            )
            cols = ColumnChunk(cols.starts[valid], cols.ends[valid], values[valid])
            values = cols.values

        shared_state: Dict[int, Tuple] = {}
        lock = threading.Lock()

        # split events across workers; each worker synchronizes on the shared
        # state once per mini-chunk (the "atomic updates" cost).
        slices = np.array_split(np.arange(len(cols)), self.workers)
        executor = make_executor(self.workers, default_kind(self.workers))

        def work(index_slice: np.ndarray) -> None:
            for lo in range(0, len(index_slice), _CHUNK):
                idx = index_slice[lo : lo + _CHUNK]
                partials = self._chunk_partials(
                    cols.starts[idx], cols.ends[idx], values[idx], size, stride, agg
                )
                with lock:
                    for widx, state in partials.items():
                        current = shared_state.get(widx)
                        if current is None:
                            shared_state[widx] = state
                        else:
                            shared_state[widx] = self._merge_states(agg, current, state)

        try:
            executor.map(work, [s for s in slices if len(s)])
        finally:
            executor.shutdown()

        if not shared_state:
            return ColumnChunk.empty()
        windows = np.array(sorted(shared_state.keys()), dtype=np.int64)
        results = np.array(
            [self._finalize_state(agg, shared_state[w]) for w in windows], dtype=np.float64
        )
        ends = windows.astype(np.float64) * stride
        starts = ends - stride
        return ColumnChunk(starts, ends, results)

    @staticmethod
    def _chunk_partials(
        starts: np.ndarray,
        ends: np.ndarray,
        values: np.ndarray,
        size: float,
        stride: float,
        agg: AggregateFunction,
    ) -> Dict[int, Tuple]:
        """Per-window partial aggregate states for one mini-chunk of events.

        An event with interval ``(s, e]`` contributes to every window end
        ``g = k*stride`` with ``s < g < e + size``.
        """
        partials: Dict[int, Tuple] = {}
        first_idx = np.floor(starts / stride).astype(np.int64) + 1
        last_idx = np.ceil((ends + size) / stride).astype(np.int64) - 1
        for i in range(len(starts)):
            for widx in range(int(first_idx[i]), int(last_idx[i]) + 1):
                g = widx * stride
                if not (starts[i] < g < ends[i] + size):
                    continue
                state = partials.get(widx)
                if state is None:
                    state = agg.init()
                partials[widx] = agg.acc(state, float(values[i]))
        return partials

    @staticmethod
    def _merge_states(agg: AggregateFunction, a, b):
        if agg.mergeable:
            return agg.merge(a, b)
        raise UnsupportedOperationError(
            f"Grizzly-like engine requires a mergeable aggregate, got {agg.name!r}"
        )

    @staticmethod
    def _finalize_state(agg: AggregateFunction, state) -> float:
        return float(agg.result(state))
