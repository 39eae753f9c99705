"""Seeded LNT106 violations: per-snapshot Python and comparison sorts in a
run-path module.

The path of this fixture deliberately ends in ``core/runtime/ssbuf.py`` so the
lint applies its run-path rule.  ``slice`` is the body ``SSBuf.slice`` had
before PR 16 (every partition input round-tripped through Python lists),
``concat`` the argsort it shared a file with.  Never imported.
"""

import numpy as np


def slice(self, SSBuf, start, end):
    if end <= start:
        return SSBuf.empty(start)
    start = max(start, self.start_time)
    if not len(self.times) or start >= self.times[-1]:
        return SSBuf.empty(start)
    lo = int(np.searchsorted(self.times, start, side="right"))
    hi = int(np.searchsorted(self.times, end, side="right"))
    times = list(self.times[lo:hi])  # LNT106: array slice -> list
    values = list(self.values[lo:hi])  # LNT106
    valid = list(self.valid[lo:hi])  # LNT106
    if hi < len(self.times) and (not times or times[-1] < end):
        times.append(end)
        values.append(float(self.values[hi]))
        valid.append(bool(self.valid[hi]))
    return SSBuf(times, values, valid, start_time=start)


def concat(parts):
    times = np.concatenate([p.times for p in parts])
    order = np.argsort(times, kind="mergesort")  # LNT106: comparison sort
    return np.unique(times[order])  # LNT106: comparison sort


def snapshots_of(buf):
    out = []
    for t, v in zip(buf.times, buf.values):
        out.append((t, v))  # LNT106: append per snapshot
    return out


def fine(parts, bounds):
    # negative: a loop over partitions, a view, and the reviewed exception
    pieces = []
    for part in parts:
        pieces.append(part.times[1:])
    return pieces, np.unique(bounds)  # lint: allow(LNT106) unordered input
