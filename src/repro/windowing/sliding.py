"""High-level window aggregation over snapshot buffers.

Two entry points:

* :func:`build_range_index` / :func:`range_aggregate` — evaluate an aggregate
  over *arbitrary* per-output windows ``(ws_i, we_i]`` of an SSBuf.  The
  aggregate's row picks a prefix-sum index, a sparse table, or a generic
  per-window reduction.  This is the primitive every reduce site of the
  code-generation backend builds for a ``Reduce`` node.
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

__all__ = ["FoldRangeIndex", "build_range_index", "range_aggregate", "window_aggregate", "window_grid"]


class FoldRangeIndex:
    """The ``fold`` range strategy: one reduction call per window holding a
    valid snapshot; the valid counts are vectorised, and only a window
    containing a φ is masked."""

    def __init__(self, agg: AggregateFunction, values: np.ndarray, valid: np.ndarray):
        self._values, self._valid = values, valid
        self._valid_prefix = np.concatenate(([0], np.cumsum(valid)))
        self._fold = agg.vector_eval or (lambda window: agg.fold(window)[0])

    def query_indices(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        values, valid = self._values, self._valid
        hi = np.maximum(hi, lo)
        counts = self._valid_prefix[hi] - self._valid_prefix[lo]
        ok = counts > 0
        at = np.flatnonzero(ok)
        dense = counts[at] == (hi - lo)[at]
        results = [
            float(self._fold(values[a:b] if whole else values[a:b][valid[a:b]]))
            for a, b, whole in zip(lo[at].tolist(), hi[at].tolist(), dense.tolist())
        ]
        out = np.zeros(len(lo))
        out[at] = results
        return out, ok


def build_range_index(
    agg: AggregateFunction,
    times: np.ndarray,
    values: np.ndarray,
    valid: np.ndarray,
    start_time: float,
):
    """Build the range index the aggregate's row picks
    (``agg.strategy.range``) over one run of snapshots.  Every index answers
    ``query_indices(lo, hi)`` — snapshot index ranges from
    :func:`~repro.windowing.prefix.snapshot_range_indices` — with
    ``(values, valid)``; only the prefix index also grows (``extend``), which
    is why only prefix reduce sites persist across a session's ticks."""
    kind = agg.strategy.range
    if kind == "prefix":
        index = PrefixRangeIndex(agg)
        index.extend(times, values, valid, start_time)
        return index
    if kind == "rmq":
        return SparseTableRMQ(values, valid, mode=agg.rmq)
    return FoldRangeIndex(agg, values, valid)


def range_aggregate(
    buf: SSBuf,
    window_starts: np.ndarray,
    window_ends: np.ndarray,
    agg: AggregateFunction,
) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregate every time window ``(ws_i, we_i]`` of ``buf``; returns
    ``(values, valid)``.  One index build plus one search per window edge —
    what a kernel's ``rt.reduce`` does with its shared cursor table."""
    index = build_range_index(agg, buf.times, buf.values, buf.valid, buf.start_time)
    return index.query_indices(
        *snapshot_range_indices(
            buf.times,
            buf.start_time,
            np.asarray(window_starts, dtype=np.float64),
            np.asarray(window_ends, dtype=np.float64),
        )
    )


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
