"""Size/stride sliding-window aggregation over a snapshot buffer: the
regular-grid oracle of the windowing tests.

:func:`window_aggregate` evaluates the windows with the engine's range
indexes (:func:`repro.windowing.range_aggregate`);
:func:`streaming_window_aggregate` walks the same windows with an online
insert/evict aggregator, so the two cross-check each other.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.runtime.ssbuf import SSBuf
from repro.windowing import AggregateFunction, range_aggregate

from .online import make_online_aggregator

__all__ = ["window_grid", "window_aggregate", "streaming_window_aggregate"]


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
    """:func:`window_aggregate` computed with an online aggregator
    (insert/evict) instead of the vectorized indexes."""
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
