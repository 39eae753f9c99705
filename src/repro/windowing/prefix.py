"""Prefix-sum range-aggregation index.

For invertible / decomposable aggregates (Sum, Count, Mean, Variance,
StdDev, ...), the aggregate over an arbitrary contiguous range of snapshots
can be computed from prefix sums of a few per-snapshot component arrays.
Building the index is O(n); answering *any number* of range queries is a
vectorized O(log n) ``searchsorted`` plus array arithmetic.  This is the
workhorse of the NumPy code-generation backend for window reductions.

The index is *growable*: a one-shot kernel invocation builds it with a
single :meth:`PrefixRangeIndex.extend` over the whole buffer (one
allocation and one ``cumsum`` per component), a streaming session keeps it
across ticks, extending it by each tick's new snapshots and pruning what no
future window can reach — the same class, the same query math.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.runtime.growable import GrowableArray
from .functions import AggregateFunction

__all__ = ["PrefixRangeIndex", "snapshot_range_indices"]


def snapshot_range_indices(
    times: np.ndarray,
    start_time: float,
    window_starts: np.ndarray,
    window_ends: np.ndarray,
    left_starts: Optional[np.ndarray] = None,
    left_ends: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Map time windows to contiguous snapshot index ranges.

    A snapshot with interval ``(s_i, t_i]`` (``s_0 = start_time``,
    ``s_i = t_{i-1}``) overlaps the query window ``(ws, we]`` iff
    ``t_i > ws`` and ``s_i < we``.  Because snapshots are ordered and
    contiguous, the overlapping snapshots form the index range ``[lo, hi)``
    with::

        lo = first i such that t_i > ws
        hi = first i such that s_i >= we

    Both follow from the edge's *left cursor* (the number of snapshot times
    strictly before it), so a window costs one ``searchsorted`` per edge —
    none when the caller already holds the cursors (``left_starts`` /
    ``left_ends``: a kernel making several accesses at one offset of one
    input).  Returns ``(lo, hi)`` arrays; empty windows have ``lo >= hi``.
    """
    if not len(times):
        none = np.zeros(len(window_starts), dtype=np.intp)
        return none, none
    if left_starts is None:
        left_starts = np.searchsorted(times, window_starts, side="left")
    if left_ends is None:
        left_ends = np.searchsorted(times, window_ends, side="left")
    last = len(times) - 1
    lo = left_starts + (times[np.minimum(left_starts, last)] == window_starts)
    hi = np.minimum(left_ends, last) + (window_ends > start_time)
    return lo, hi


class PrefixRangeIndex:
    """Growable range-aggregate index backed by prefix sums.

    ``agg`` must have a prefix decomposition (``agg.strategy.range ==
    'prefix'``).  Snapshots are appended with :meth:`extend`; the interval
    of each is ``(previous time, time]``, the first one starting at the
    ``start_time`` of the first :meth:`extend`.
    """

    def __init__(self, agg: AggregateFunction):
        if agg.strategy.range != "prefix":
            raise ValueError(f"aggregate {agg.name!r} has no prefix decomposition")
        self.agg = agg
        # Aggregates whose result cancels large prefix components against
        # each other (variance/stddev) accumulate in extended precision:
        # a windowed value is the difference of two potentially huge prefix
        # totals, and float64 cancellation there is what used to make a
        # near-zero windowed variance come out at ~1e-8 (so ~1e-4 stddev
        # after the sqrt amplification).  Everything else (sums, means,
        # counts) stays on fast float64.
        self.dtype = agg.prefix_dtype
        #: ``start_time`` followed by every snapshot time: ``edges[1:]`` are
        #: the snapshot times, ``edges[:-1]`` their interval starts
        self._edges = GrowableArray()
        self._center: Optional[np.longdouble] = None
        self._valid_prefix = GrowableArray()
        self._prefixes: List[GrowableArray] = []

    def __len__(self) -> int:
        """Snapshots currently held."""
        return max(len(self._edges) - 1, 0)

    def extend(
        self, times: np.ndarray, values: np.ndarray, valid: np.ndarray, start_time: float
    ) -> None:
        """Append snapshots that follow the ones already held.

        ``start_time`` is the interval start of the first appended snapshot;
        only the first call reads it (later chunks continue from the last
        time held).  O(appended): the component cumsums are extended, not
        rebuilt.
        """
        if len(times) == 0:
            return
        valid = np.asarray(valid, dtype=bool)
        # one fixed center for the index's lifetime (a per-chunk center
        # could not be cancelled across chunks); for a one-shot build that
        # is the buffer mean
        components, self._center = self.agg.prefix_components(values, valid, self._center)
        if not len(self._edges):
            self._edges.append((start_time,))
            self._valid_prefix.append((0.0,))
            self._prefixes = [GrowableArray(self.dtype) for _ in components]
            for prefix in self._prefixes:
                prefix.append((0.0,))
        self._edges.append(times)
        self._accumulate(self._valid_prefix, valid.astype(np.float64))
        for prefix, comp in zip(self._prefixes, components):
            self._accumulate(prefix, comp)

    @staticmethod
    def _accumulate(prefix: GrowableArray, comp: np.ndarray) -> None:
        last = prefix.view[-1]
        tail = prefix.grow(len(comp))
        np.cumsum(comp, dtype=tail.dtype, out=tail)
        if last:
            tail += last

    @property
    def times(self) -> np.ndarray:
        """Times of the snapshots held (what window cursors index into)."""
        return self._edges.view[1:]

    @property
    def start_time(self) -> float:
        """Interval start of the first snapshot held."""
        return float(self._edges.view[0]) if len(self._edges) else 0.0

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
        """``(edges, valid_prefix, prefixes)``: the live arrays every query
        reads — ``start_time`` then each snapshot time, the count of valid
        snapshots before each edge and one prefix per component — as views
        valid until the next :meth:`extend` / :meth:`prune` (what the native
        tick entry is handed by pointer)."""
        return self._edges.view, self._valid_prefix.view, [p.view for p in self._prefixes]

    def query_indices(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregate each snapshot index range ``[lo_i, hi_i)``.

        Returns ``(values, valid)`` where ranges containing no valid
        snapshot produce ``valid=False`` (φ).
        """
        if not len(self._edges):
            return np.zeros(len(lo)), np.zeros(len(lo), dtype=bool)
        hi = np.maximum(hi, lo)
        valid_prefix = self._valid_prefix.view
        counts = valid_prefix[hi] - valid_prefix[lo]
        results = self.agg.prefix_finish([p.view[hi] - p.view[lo] for p in self._prefixes])
        valid = counts > 0
        return np.where(valid, results, 0.0), valid

    def prune(self, t: float) -> None:
        """Drop snapshots at or before ``t`` once they outnumber the rest.

        The cumsums are rebased to the new front so totals stay bounded by
        the retained window, which keeps the floating-point drift of a
        long-running session within the tolerance of ``SSBuf.__eq__``.
        Amortized: O(log n) per call, O(live) when the drop fires.
        """
        k = int(np.searchsorted(self._edges.view[1:], t, side="right"))
        if k < GrowableArray.COMPACT_MIN_DEAD or 2 * k < len(self):
            return
        self._edges.drop_prefix(k)
        for prefix in (self._valid_prefix, *self._prefixes):
            prefix.drop_prefix(k)
            live = prefix.view
            live -= live[0]
