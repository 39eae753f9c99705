"""Evaluation-grid computation for temporal expressions.

Section 6.1.3: naively evaluating a temporal expression at every tick of its
time-domain precision is wasteful because the output can only change when one
of its inputs changes.  The code generator therefore advances the loop
counter directly to the next time at which an *enclosing snapshot* of any
input access changes:

* a point access ``~x[t+o]`` changes at ``c - o`` for every change time ``c``
  of ``~x``;
* a window access ``~x[t+a : t+b]`` changes when a snapshot enters
  (``c - b``) or leaves (``c - a``) the window.

When the time domain has a non-zero precision ``p``, candidate times are
snapped *up* to the next multiple of ``p`` (the output is only allowed to
change on the precision grid).  The domain end ``t_end`` is always included
so a materialized buffer covers its whole output interval, which downstream
(un-fused) consumers rely on.
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np

from ..ir.nodes import Expr, TDom
from ..lineage.boundary import AccessPattern, collect_accesses
from ..runtime.ssbuf import SSBuf

__all__ = ["evaluation_times", "evaluation_times_for_accesses", "snap_to_precision"]


def _grid_index(times: np.ndarray, precision: float) -> np.ndarray:
    """Index ``k`` of the grid point ``k * precision`` each time snaps *up*
    to; a time within 1e-9 grid steps above a grid point counts as on it."""
    return np.ceil(times / precision - 1e-9)


def snap_to_precision(times: np.ndarray, precision: float) -> np.ndarray:
    """Snap candidate times up to the next multiple of ``precision``."""
    if precision <= 0 or len(times) == 0:
        return times
    return _grid_index(times, precision) * precision


def _merge_runs(runs: List[np.ndarray]) -> np.ndarray:
    """Sorted union of non-decreasing runs: each run is deduplicated, then
    placed into the union by one monotone ``searchsorted`` pass of the
    shorter side over the longer — no comparison sort."""
    a = np.empty(0)
    for b in runs:
        fresh = b[1:] != b[:-1]
        if not fresh.all():
            b = b[np.concatenate(([True], fresh))]
        if len(a) < len(b):
            a, b = b, a
        if not len(b):
            continue
        at = np.searchsorted(a, b, side="left")
        fresh = a[np.minimum(at, len(a) - 1)] != b
        b, at = b[fresh], at[fresh]
        at += np.arange(len(b))
        union = np.empty(len(a) + len(b))
        from_a = np.ones(len(union), dtype=bool)
        from_a[at] = False
        union[at] = b
        union[from_a] = a
        a = union
    return a


#: the grid range is read off a bitmap while it has at most this many cells
#: per candidate time; candidates sparser than that are merged instead
_BITMAP_CELLS_PER_CANDIDATE = 8


def _grid_union(runs: List[np.ndarray], precision: float) -> np.ndarray:
    """Sorted union of the candidate runs on the precision grid.

    The value *before* a change must also be materialized on the grid: if
    the output changes at grid point ``k``, the old value's last holding
    point ``k - 1`` needs an explicit snapshot.  Both are derived from the
    integer index so every grid time is the same float ``k * precision``
    however it was reached: on a non-dyadic precision ``k * p - p`` can
    differ from ``(k - 1) * p`` by an ulp, and two snapshots an ulp apart
    are split differently by tick edges than by a one-shot run.
    """
    ks = [_grid_index(run, precision) for run in runs]
    first = min(k[0] for k in ks) - 1.0
    cells = max(k[-1] for k in ks) - first + 1.0
    if cells > _BITMAP_CELLS_PER_CANDIDATE * sum(len(k) for k in ks) + 64:
        return _merge_runs([run for k in ks for run in (k, k - 1.0)]) * precision
    marked = np.zeros(int(cells), dtype=bool)
    for k in ks:
        at = (k - first).astype(np.intp)
        marked[at] = True
        marked[at - 1] = True
    return (np.flatnonzero(marked) + first) * precision


def evaluation_times_for_accesses(
    accesses: Mapping[str, AccessPattern],
    env: Mapping[str, SSBuf],
    tdom: TDom,
    t_start: float,
    t_end: float,
) -> np.ndarray:
    """Output timestamps at which an expression with the given access pattern
    must be evaluated over ``(t_start, t_end]``.

    The candidates are sorted runs, one per (input, boundary offset), so
    their union never needs a comparison sort: on a precision grid it is
    read off a bitmap over the partition's grid range, otherwise (no
    precision, or candidates sparse relative to that range) the runs are
    merged.
    """
    if t_end <= t_start:
        return np.empty(0)
    runs = [np.array([t_end])]
    for ref, pattern in accesses.items():
        buf = env.get(ref)
        if buf is None or len(buf) == 0:
            continue
        for offset in pattern.boundary_offsets():
            # input changes at time c make the output change at c - offset;
            # the buffer's start_time is an implicit change point (φ → first
            # value), so it is included as well.
            changes = buf.change_times_in(t_start + offset, t_end + offset)
            if len(changes):
                runs.append(changes - offset)
            if t_start + offset < buf.start_time <= t_end + offset:
                runs.append(np.array([buf.start_time - offset]))
    times = _grid_union(runs, tdom.precision) if tdom.precision > 0 else _merge_runs(runs)
    lo, hi = np.searchsorted(times, (t_start + 1e-12, t_end + 1e-12), side="right")
    times = times[lo:hi]
    if len(times) == 0 or times[-1] < t_end:
        times = np.append(times, t_end)
    return times


def evaluation_times(
    expr: Expr,
    env: Mapping[str, SSBuf],
    tdom: TDom,
    t_start: float,
    t_end: float,
) -> np.ndarray:
    """Convenience wrapper: derive the access pattern of ``expr`` first."""
    return evaluation_times_for_accesses(collect_accesses(expr), env, tdom, t_start, t_end)
