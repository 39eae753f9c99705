"""Growable NumPy array: amortized append at the back, trim at the front.

The one storage helper behind everything a streaming session keeps across
ticks — the per-input ingest columns and the prefix sums of kept reduce
sites.  :meth:`~GrowableArray.drop_prefix` advances a live-window offset
(nothing moves); :meth:`~GrowableArray.grow` reserves slots at the back and,
when the array is full, first moves the live entries down in place if that
frees at least half of it, else reallocates to twice the size — every entry
moves O(1) times amortized, and storage stays within four times the largest
``live + reserved`` it has held.  The first reservation of an empty array
allocates exactly what was asked for.  A native kernel binds the backing
array by pointer (the live entries are ``_data[_lo:_n]``) and rebinds it
only when ``gen`` moves: a reallocation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GrowableArray"]


class GrowableArray:
    """Append-only array with a lazily compacted dead head."""

    __slots__ = ("_data", "_lo", "_n", "gen")

    def __init__(self, dtype=np.float64):
        self._data = np.empty(0, dtype=dtype)
        self._lo = 0
        self._n = 0
        #: bumped whenever ``_data`` is replaced by a larger array
        self.gen = 0

    def __len__(self) -> int:
        return self._n - self._lo

    @property
    def view(self) -> np.ndarray:
        """The live entries (a zero-copy view; valid until the next
        :meth:`grow`)."""
        return self._data[self._lo : self._n]

    def grow(self, m: int) -> np.ndarray:
        """Reserve ``m`` uninitialized slots at the back and return the
        writable view of them."""
        end = self._n + m
        if end > len(self._data):
            live = self._n - self._lo
            if 2 * (live + m) <= len(self._data):
                # the dead head is more than half: the live entries move
                # down, and source and destination do not overlap
                self._data[:live] = self._data[self._lo : self._n]
            else:
                grown = np.empty(max(2 * len(self._data), live + m), dtype=self._data.dtype)
                grown[:live] = self._data[self._lo : self._n]
                self._data = grown
                self.gen += 1
            self._lo, self._n = 0, live
            end = live + m
        self._n = end
        return self._data[end - m : end]

    def append(self, values) -> None:
        self.grow(len(values))[:] = values

    def rewind(self) -> None:
        """Hold nothing again, keeping the backing array."""
        self._lo = self._n = 0

    def drop_prefix(self, k: int) -> None:
        """Retire the ``k`` oldest live entries."""
        self._lo += k
