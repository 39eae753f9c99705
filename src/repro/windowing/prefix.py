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
future window can reach — the same class, the same query math.  Once the
query is promoted, its native entry does the extending, one-shot runs
included: the index reserves the rows (:meth:`~PrefixRangeIndex.reserve`,
an extended-precision index taking its centre there) and C fills them with
the bytes :meth:`~PrefixRangeIndex.extend` would have written.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.runtime.growable import GrowableArray
from .functions import AggregateFunction

__all__ = ["PrefixRangeIndex", "snapshot_range_indices", "PRUNE_MIN"]

#: a kept index drops the snapshots a prune floor retires once there are at
#: least this many of them (and they are at least half of what it holds)
PRUNE_MIN = 256


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
        self._prefixes = [GrowableArray(self.dtype) for _ in agg.c_components or ()]

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
            self._open(start_time, len(components))
        self._edges.append(times)
        self._accumulate(self._valid_prefix, valid.astype(np.float64))
        for prefix, comp in zip(self._prefixes, components):
            self._accumulate(prefix, comp)

    def reserve(self, n: int, start_time: float, center=None) -> None:
        """Append ``n`` rows for the native entry to fill: its C code writes
        exactly what :meth:`extend` would — the times, the valid prefix and
        each component's prefix — into the rows reserved here, and writes
        nowhere else.  ``start_time`` as for :meth:`extend`; ``center``, read
        by the reservation that opens an extended-precision index, is the
        one :meth:`extend` would take (``prefix_center`` of the chunk)."""
        if not len(self._edges):
            self._open(start_time, len(self.agg.c_components))
            self._center = center
        for column in (self._edges, self._valid_prefix, *self._prefixes):
            column.grow(n)

    def _open(self, start_time: float, components: int) -> None:
        """The rows before the first snapshot: its start time and zero sums."""
        if len(self._prefixes) != components:
            self._prefixes = [GrowableArray(self.dtype) for _ in range(components)]
        self._edges.append((start_time,))
        for prefix in (self._valid_prefix, *self._prefixes):
            prefix.append((0.0,))

    def rewind(self) -> None:
        """Hold nothing again — what a fresh index holds — keeping every
        array's storage (a native kernel's binding of it included)."""
        self._center = None
        for column in (self._edges, self._valid_prefix, *self._prefixes):
            column.rewind()

    @property
    def center(self) -> Optional[np.longdouble]:
        """The fixed centre an extended-precision index subtracts (``None``
        before its first :meth:`extend`, and always on a float64 index)."""
        return self._center

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
        entry is handed by pointer)."""
        return self._edges.view, self._valid_prefix.view, [p.view for p in self._prefixes]

    def storage(self) -> Tuple[GrowableArray, ...]:
        """The arrays :meth:`arrays` views — edges, valid prefix, one prefix
        per component — for a native kernel to bind; they live as long as
        the index (a rewind keeps them)."""
        return (self._edges, self._valid_prefix, *self._prefixes)

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
        The drop fires once ``k`` snapshots are at or before ``t``, where
        ``k`` is at least :data:`PRUNE_MIN` and half of those held, so
        one array read decides a call that does not fire; O(live) when it
        does.  A native entry applies this rule in C (:meth:`drop` then
        moves the front).
        """
        held = len(self)
        need = max(PRUNE_MIN, (held + 1) // 2)
        if need > held or self._edges.view[need] > t:  # edges[need] is time need - 1
            return
        k = int(np.searchsorted(self._edges.view[1:], t, side="right"))
        self.drop(k)
        for prefix in (self._valid_prefix, *self._prefixes):
            live = prefix.view
            live -= live[0]

    def drop(self, k: int) -> None:
        """Retire the ``k`` oldest snapshots without rebasing the sums."""
        for column in (self._edges, self._valid_prefix, *self._prefixes):
            column.drop_prefix(k)
