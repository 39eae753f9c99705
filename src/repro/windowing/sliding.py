"""High-level window aggregation over snapshot buffers.

Two entry points:

* :func:`range_aggregate` — evaluate an aggregate over *arbitrary* per-output
  windows ``(ws_i, we_i]`` of an SSBuf.  Chooses a prefix-sum index, a sparse
  table, or a generic per-window reduction depending on the aggregate's
  capabilities.  This is the primitive the code-generation backend calls for
  every ``Reduce`` node.
* :func:`window_aggregate` — classic size/stride sliding-window aggregation
  producing a new SSBuf on a regular grid (used by the baseline engines and
  by the interpreted TiLT mode for standalone Window operators).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.runtime.ssbuf import SSBuf
from .functions import AggregateFunction
from .online import make_online_aggregator
from .prefix import PrefixRangeIndex, snapshot_range_indices
from .sparse_table import SparseTableRMQ

__all__ = ["RangeAggregator", "range_aggregate", "window_aggregate", "window_grid"]


class RangeAggregator:
    """Reusable per-(buffer, aggregate) range aggregation object.

    Builds the appropriate index once so that repeated queries (e.g. the two
    different windows of the trend query, or per-partition evaluation) do not
    pay the construction cost again.
    """

    def __init__(self, buf: SSBuf, agg: AggregateFunction):
        self.buf = buf
        self.agg = agg
        self._prefix: Optional[PrefixRangeIndex] = None
        self._rmq: Optional[SparseTableRMQ] = None
        kind = agg.strategy.range
        if kind == "prefix":
            self._prefix = PrefixRangeIndex(agg)
            self._prefix.extend(buf.times, buf.values, buf.valid, buf.start_time)
        elif kind == "rmq":
            self._rmq = SparseTableRMQ(buf.values, buf.valid, mode=agg.rmq)

    def query(
        self, window_starts: np.ndarray, window_ends: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregate every time window ``(ws_i, we_i]``; returns (values, valid)."""
        window_starts = np.asarray(window_starts, dtype=np.float64)
        window_ends = np.asarray(window_ends, dtype=np.float64)
        return self.query_indices(
            *snapshot_range_indices(
                self.buf.times, self.buf.start_time, window_starts, window_ends
            )
        )

    def query_indices(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregate every snapshot index range ``[lo_i, hi_i)`` of the buffer
        (see :func:`~repro.windowing.prefix.snapshot_range_indices`)."""
        if self._prefix is not None:
            return self._prefix.query_indices(lo, hi)
        if self._rmq is not None:
            return self._rmq.query_indices(lo, hi)
        return self._fold(lo, hi)

    def _fold(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One reduction call per window holding a valid snapshot; the valid
        counts are vectorised, and only a window containing a φ is masked."""
        values, valid = self.buf.values, self.buf.valid
        hi = np.maximum(hi, lo)
        valid_prefix = np.concatenate(([0], np.cumsum(valid)))
        counts = valid_prefix[hi] - valid_prefix[lo]
        ok = counts > 0
        at = np.flatnonzero(ok)
        dense = counts[at] == (hi - lo)[at]
        fold = self.agg.vector_eval or (lambda window: self.agg.fold(window)[0])
        results = [
            float(fold(values[a:b] if whole else values[a:b][valid[a:b]]))
            for a, b, whole in zip(lo[at].tolist(), hi[at].tolist(), dense.tolist())
        ]
        out = np.zeros(len(lo))
        out[at] = results
        return out, ok


def range_aggregate(
    buf: SSBuf,
    window_starts: np.ndarray,
    window_ends: np.ndarray,
    agg: AggregateFunction,
) -> Tuple[np.ndarray, np.ndarray]:
    """One-shot :class:`RangeAggregator` query."""
    return RangeAggregator(buf, agg).query(window_starts, window_ends)


def window_grid(t_start: float, t_end: float, stride: float) -> np.ndarray:
    """Window end timestamps: multiples of ``stride`` inside ``(t_start, t_end]``."""
    if t_end <= t_start or stride <= 0:
        return np.empty(0)
    first = np.floor(t_start / stride) * stride + stride
    # guard against floating point: the first grid point must be > t_start
    if first <= t_start:
        first += stride
    return np.arange(first, t_end + stride * 0.5, stride)


def window_aggregate(
    buf: SSBuf,
    size: float,
    stride: float,
    agg: AggregateFunction,
    t_start: Optional[float] = None,
    t_end: Optional[float] = None,
) -> SSBuf:
    """Sliding/tumbling window aggregation producing a new SSBuf.

    The output snapshot at grid time ``g`` (a multiple of ``stride``) covers
    ``(g - stride, g]`` and holds the aggregate over the window
    ``(g - size, g]``; windows containing no events yield φ.  This matches
    the time-domain-precision semantics of the paper's Window/Reduce
    temporal expression (Figure 4, last line).
    """
    if t_start is None:
        t_start = buf.start_time
    if t_end is None:
        t_end = buf.end_time
    ends = window_grid(t_start, t_end, stride)
    if len(ends) == 0:
        return SSBuf.empty(t_start)
    starts = ends - size
    values, valid = range_aggregate(buf, starts, ends, agg)
    return SSBuf(ends, values, valid, start_time=float(ends[0]) - stride)


def streaming_window_aggregate(
    buf: SSBuf,
    size: float,
    stride: float,
    agg: AggregateFunction,
    t_start: Optional[float] = None,
    t_end: Optional[float] = None,
) -> SSBuf:
    """Reference implementation of :func:`window_aggregate` using an online
    aggregator (insert/evict) instead of the vectorized indexes.

    Kept separate so the test suite can cross-check both code paths; the
    baseline engines also use it because they process events one at a time.
    """
    if t_start is None:
        t_start = buf.start_time
    if t_end is None:
        t_end = buf.end_time
    ends = window_grid(t_start, t_end, stride)
    if len(ends) == 0:
        return SSBuf.empty(t_start)
    out_vals = np.zeros(len(ends))
    out_valid = np.zeros(len(ends), dtype=bool)
    times = buf.times
    interval_starts = buf.interval_starts
    values = buf.values
    valid = buf.valid
    for i, g in enumerate(ends):
        ws, we = g - size, g
        online = make_online_aggregator(agg)
        lo = np.searchsorted(times, ws, side="right")
        hi = np.searchsorted(interval_starts, we, side="left")
        for j in range(lo, hi):
            if valid[j]:
                online.insert(float(values[j]))
        out_vals[i], out_valid[i] = online.query()
    return SSBuf(ends, out_vals, out_valid, start_time=float(ends[0]) - stride)
