"""Sparse-table range-min/range-max index.

Non-invertible aggregates such as Max and Min cannot use Subtract-on-Evict
or prefix sums.  The sparse table precomputes min/max over every
power-of-two span in O(n log n) and answers an arbitrary range query with
two lookups.  Queries are fully vectorized over NumPy arrays, which is what
the code-generation backend needs when it evaluates a Max/Min reduction at
thousands of output time points at once.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .functions import RMQ_DIRECTIONS

__all__ = ["SparseTableRMQ"]


class SparseTableRMQ:
    """Range max/min query structure over snapshot values.

    Parameters
    ----------
    values, valid:
        Snapshot values and validity mask; invalid snapshots never win a
        query.
    mode:
        ``'max'`` or ``'min'`` (a key of
        :data:`~repro.windowing.functions.RMQ_DIRECTIONS`).
    """

    def __init__(self, values: np.ndarray, valid: np.ndarray, mode: str = "max"):
        if mode not in RMQ_DIRECTIONS:
            raise ValueError(f"mode must be one of {sorted(RMQ_DIRECTIONS)}")
        self.mode = mode
        self._reduce, fill, _ = RMQ_DIRECTIONS[mode]
        valid = np.asarray(valid, dtype=bool)
        n = len(valid)
        base = np.where(valid, np.asarray(values, dtype=np.float64), fill)
        self._valid_prefix = np.concatenate(([0.0], np.cumsum(valid.astype(np.float64))))
        self._levels = [base]
        # level k answers queries over spans of 2**k; level k+1 combines two
        # overlapping level-k entries and has length n - 2**(k+1) + 1.
        span = 1
        while span * 2 <= n:
            prev = self._levels[-1]
            new_len = n - 2 * span + 1
            nxt = self._reduce(prev[:new_len], prev[span : span + new_len])
            self._levels.append(nxt)
            span *= 2

    def query_indices(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregate over snapshot index ranges ``[lo, hi)`` (vectorized)."""
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        hi = np.maximum(hi, lo)
        counts = self._valid_prefix[hi] - self._valid_prefix[lo]
        lengths = hi - lo
        results = np.full(len(lo), 0.0)
        nonempty = lengths > 0
        if np.any(nonempty):
            lo, hi = lo[nonempty], hi[nonempty]
            k = np.floor(np.log2(hi - lo)).astype(np.int64)
            out = np.empty(len(lo))
            for level in np.unique(k).tolist():
                sel = k == level
                table = self._levels[level]
                out[sel] = self._reduce(table[lo[sel]], table[hi[sel] - (1 << level)])
            results[nonempty] = out
        valid = counts > 0
        return np.where(valid, results, 0.0), valid
