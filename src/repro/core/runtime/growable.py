"""Growable NumPy array: amortized append at the back, trim at the front.

The one storage helper behind everything a streaming session keeps across
ticks — the per-input ingest columns and the persistent reduce-site state
(prefix sums, sweep windows).  All per-tick operations are O(new entries):

* :meth:`GrowableArray.grow` reserves slots at the back with geometric
  growth.  The first reservation of an empty array allocates exactly what
  was asked for, so building a batch index with one ``grow`` costs one
  allocation.
* :meth:`GrowableArray.drop_prefix` retires entries at the front by
  advancing a live-window offset; the dead head is copied away only once it
  outnumbers the live tail, so trimming is O(1) per call and O(live)
  amortized.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GrowableArray"]


class GrowableArray:
    """Append-only array with a lazily compacted dead head."""

    __slots__ = ("_data", "_lo", "_n")

    #: the dead head is compacted away only once it outnumbers the live
    #: tail and exceeds this count
    COMPACT_MIN_DEAD = 256

    def __init__(self, dtype=np.float64):
        self._data = np.empty(0, dtype=dtype)
        self._lo = 0
        self._n = 0

    def __len__(self) -> int:
        return self._n - self._lo

    @property
    def view(self) -> np.ndarray:
        """The live entries (a zero-copy view; valid until the next
        :meth:`grow` / :meth:`drop_prefix`)."""
        return self._data[self._lo : self._n]

    def grow(self, m: int) -> np.ndarray:
        """Reserve ``m`` uninitialized slots at the back and return the
        writable view of them."""
        end = self._n + m
        if end > len(self._data):
            live = self._n - self._lo
            grown = np.empty(max(2 * len(self._data), live + m), dtype=self._data.dtype)
            grown[:live] = self._data[self._lo : self._n]
            self._data, self._lo, self._n = grown, 0, live
            end = live + m
        self._n = end
        return self._data[end - m : end]

    def append(self, values) -> None:
        self.grow(len(values))[:] = values

    def drop_prefix(self, k: int) -> None:
        """Retire the ``k`` oldest live entries."""
        self._lo += k
        if self._lo >= self.COMPACT_MIN_DEAD and 2 * self._lo >= self._n:
            live = self._n - self._lo
            # dead >= live, so source and destination do not overlap
            self._data[:live] = self._data[self._lo : self._n]
            self._lo, self._n = 0, live
