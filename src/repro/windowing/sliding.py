"""Window aggregation over snapshot buffers.

:func:`build_range_index` / :func:`range_aggregate` evaluate an aggregate
over *arbitrary* per-output windows ``(ws_i, we_i]`` of an SSBuf.  The
aggregate's row picks a prefix-sum index, a sparse table, a search for the
window's first / last valid snapshot, or a generic per-window reduction.  This is the primitive every reduce site of the
code-generation backend builds for a ``Reduce`` node.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.runtime.ssbuf import SSBuf
from .functions import AggregateFunction
from .prefix import PrefixRangeIndex, snapshot_range_indices
from .sparse_table import SparseTableRMQ

__all__ = ["FoldRangeIndex", "EdgeRangeIndex", "build_range_index", "range_aggregate"]


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


class EdgeRangeIndex:
    """The ``fold`` strategy of an edge row (FIRST / LAST): each window's
    first / last valid snapshot, found by one search of the valid positions
    per window — no call per window."""

    def __init__(self, edge: int, values: np.ndarray, valid: np.ndarray):
        self._edge = edge
        self._values = values
        self._at = np.flatnonzero(valid)

    def query_indices(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        at = self._at
        if self._edge == 0:  # the first valid position at or after lo
            j = np.searchsorted(at, lo, side="left")
            ok = j < len(at)
            pick = at[np.minimum(j, len(at) - 1)] if len(at) else j
            ok &= pick < hi
        else:  # the last valid position before hi
            j = np.searchsorted(at, hi, side="left") - 1
            ok = j >= 0
            pick = at[np.maximum(j, 0)] if len(at) else j
            ok &= pick >= lo
        out = np.zeros(len(lo))
        out[ok] = self._values[pick[ok]]
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
    if agg.edge is not None:
        return EdgeRangeIndex(agg.edge, values, valid)
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
