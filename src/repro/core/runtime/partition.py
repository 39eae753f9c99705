"""Boundary-driven stream partitioning (Section 6.2, Figure 6).

TiLT parallelizes a query by cutting the *output* time range into disjoint
intervals and giving each worker the input snapshots required to produce its
interval — the required input interval is exactly the output interval
extended by the margins that boundary resolution inferred.  Adjacent
partitions therefore duplicate a small amount of input (the shaded region of
Figure 6), which is the price of completely synchronization-free workers.

Margin invariants
-----------------
Both the one-shot engine and the streaming session layer
(:mod:`repro.core.runtime.session`) rely on two facts about the margins:

* **Sufficiency** — a partition producing ``(lo, hi]`` never reads any input
  outside ``(lo - lookback, hi + lookahead]``, so the slice built here is
  all a worker will ever see.  For a streaming session this is what makes
  incremental emission safe: output up to a watermark ``w`` is fully
  determined once input is complete through ``w + max_lookahead``.
* **Deadness** — once output through ``w`` has been emitted, every future
  partition has ``lo >= w`` and therefore reads no input at or before
  ``w - max_lookback``.  That is the carry-over rule: between ticks a
  session must retain (only) the input snapshots after ``w - max_lookback``,
  and may prune everything older.

Partition edges are additionally snapped to the query's coarsest
time-domain precision (``align``) with :func:`snap_down`; streaming tick
boundaries use the same function, so a tick edge is indistinguishable from
an interior partition edge of a one-shot run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ...errors import QueryBuildError
from ..lineage.boundary import BoundarySpec
from .ssbuf import SSBuf

__all__ = ["Partition", "snap_down", "plan_partitions", "partition_inputs"]


def snap_down(t: float, precision: float) -> float:
    """Largest grid point ``k * precision`` (integer ``k``) not above ``t``.

    Grid points are the floats ``k * precision`` — the representation the
    evaluation grid (:mod:`repro.core.codegen.grid`) emits — so an edge
    snapped here is bit-identical to the evaluation time at that grid point.
    ``floor(t / precision)`` alone is not enough on a non-dyadic precision:
    the division can round across an integer, landing one step low (a tick
    that emits nothing) or one ulp *above* ``t`` (an edge past the safe
    watermark); both are corrected against the products themselves.
    """
    k = math.floor(t / precision)
    if (k + 1) * precision <= t:
        k += 1
    elif k * precision > t:
        k -= 1
    return k * precision


@dataclass(frozen=True)
class Partition:
    """One unit of parallel work.

    ``(t_start, t_end]`` is the output interval this partition produces;
    ``inputs`` holds, per input stream, the slice of the input buffer the
    compiled kernel needs (already extended by the boundary margins).
    """

    index: int
    t_start: float
    t_end: float
    inputs: Dict[str, SSBuf]

    def __reduce__(self):
        # constructor-based reduction: a partition crosses a process
        # boundary as its two bounds plus raw-array snapshot buffers (see
        # :meth:`SSBuf.__reduce__`), with no per-instance dict state.
        return (Partition, (self.index, self.t_start, self.t_end, self.inputs))

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    def input_snapshot_count(self) -> int:
        """Total number of input snapshots handed to this partition."""
        return sum(len(buf) for buf in self.inputs.values())


def plan_partitions(
    t_start: float,
    t_end: float,
    *,
    num_partitions: Optional[int] = None,
    interval: Optional[float] = None,
    align: float = 0.0,
) -> List[Tuple[float, float]]:
    """Split ``(t_start, t_end]`` into consecutive output intervals.

    Exactly one of ``num_partitions`` / ``interval`` must be given: the former
    produces that many equal intervals (the common case: one per worker
    thread), the latter fixed-size intervals (the "user-defined interval
    size" of Section 6.2, also used for the latency-bounded throughput
    experiments where the interval plays the role of the batch size).

    ``align`` snaps the interior partition boundaries down to multiples of
    the given value.  The engine passes the coarsest time-domain precision of
    the query here, so that no partition boundary falls in the middle of a
    precision interval — otherwise a worker would have to evaluate the query
    at an off-grid time it does not have the data to evaluate consistently.
    """
    if t_end <= t_start:
        return []
    if (num_partitions is None) == (interval is None):
        raise QueryBuildError("specify exactly one of num_partitions or interval")
    if num_partitions is not None:
        if num_partitions <= 0:
            raise QueryBuildError("num_partitions must be positive")
        width = (t_end - t_start) / num_partitions
        edges = [t_start + i * width for i in range(num_partitions)] + [t_end]
    else:
        if interval is None or interval <= 0:
            raise QueryBuildError("interval must be positive")
        count = int(math.ceil((t_end - t_start) / interval))
        edges = [t_start + i * interval for i in range(count)] + [t_end]
        edges = [min(e, t_end) for e in edges]
    if align and align > 0:
        # Snapping must not move an interior edge below the range start: with
        # partitions narrower than the grid and an off-grid t_start, flooring
        # would otherwise create a partition that begins before (and overlaps)
        # the requested output range.  Clamped edges collapse into empty
        # partitions and are filtered below.
        interior = [max(snap_down(e, align), edges[0]) for e in edges[1:-1]]
        edges = [edges[0]] + interior + [edges[-1]]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]


def partition_inputs(
    inputs: Mapping[str, SSBuf],
    boundary: BoundarySpec,
    t_start: float,
    t_end: float,
    *,
    num_partitions: Optional[int] = None,
    interval: Optional[float] = None,
    align: float = 0.0,
) -> List[Partition]:
    """Materialize the partitions for a query run.

    Every partition receives, for each input stream, the slice
    ``(p_start - lookback, p_end + lookahead]`` of that stream's snapshot
    buffer (per-input margins from ``boundary``).  The ``inputs`` mapping
    may itself hold pruned tails rather than full streams: as long as each
    buffer still covers every requested slice — the session layer's
    carry-over invariant — the produced partitions are identical to those
    of a full-stream run, because ``SSBuf.slice`` is stable under such
    pruning (see :meth:`SSBuf.slice`).
    """
    bounds = plan_partitions(
        t_start, t_end, num_partitions=num_partitions, interval=interval, align=align
    )
    partitions: List[Partition] = []
    for idx, (lo, hi) in enumerate(bounds):
        sliced: Dict[str, SSBuf] = {}
        for name, buf in inputs.items():
            in_lo, in_hi = boundary.input_interval(name, lo, hi)
            sliced[name] = buf.slice(in_lo, in_hi)
        partitions.append(Partition(index=idx, t_start=lo, t_end=hi, inputs=sliced))
    return partitions
