"""Runtime support objects for generated kernels.

A generated kernel is pure straight-line NumPy code; everything that cannot
be expressed as source text — the aggregate function registry, compiled
element-map functions, the evaluation-grid computation and the snapshot
buffer constructors — is provided through a :class:`KernelRuntime` instance
(`rt` in the generated source).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ...errors import ExecutionError
from ...windowing.functions import AggregateFunction, prefix_center
from ...windowing.prefix import PrefixRangeIndex, snapshot_range_indices
from ...windowing.sliding import build_range_index
from ..ir.nodes import TDom
from ..lineage.boundary import AccessPattern
from ..runtime.ssbuf import SSBuf, _ssbuf_from_arrays
from .grid import evaluation_times_for_accesses

__all__ = ["KernelRuntime", "ReduceSite"]


class ReduceSite:
    """One ``(input, aggregate, element map)`` reduction's state: the
    element map, the range index the aggregate's row picks, and the input
    time the index has consumed through.

    The same object serves both lifetimes.  A one-shot run creates it in the
    invocation's ``cache`` and its single :meth:`ingest` builds the index
    over the partition's slice; a session keeps it (see
    :class:`~repro.core.codegen.incremental.IncrementalKernelRuntime`) and
    every tick's :meth:`ingest` appends the input column's new tail.  All
    windows over the same triple share one site: an index is window-agnostic.
    """

    __slots__ = ("agg", "_element", "index", "ingested_through")

    def __init__(self, agg: AggregateFunction, element: Optional[Callable] = None, index=None):
        self.agg = agg
        self._element = element
        #: built by the first :meth:`ingest`, unless the keeper hands in a
        #: growable one up front
        self.index = index
        #: input time up to which this site has consumed snapshots
        self.ingested_through = -float("inf")

    def ingest(self, buf: SSBuf, rt: "KernelRuntime") -> None:
        """Consume every snapshot of ``buf`` newer than the ingest horizon.

        Idempotent within an invocation (a second call over the same buffer
        is a no-op) and robust to carry-over pruning between ticks:
        snapshots the column dropped below the retention floor are — by the
        margin invariant — strictly older than any window a future tick
        queries.  A site that outlives the invocation must be fed the
        unsliced input column: a slice-clipped phantom snapshot must never
        be appended to.
        """
        times = buf.times
        idx = int(np.searchsorted(times, self.ingested_through, side="right"))
        if idx >= len(times) and self.index is not None:
            return
        values = np.asarray(buf.values[idx:], dtype=np.float64)
        ok = np.asarray(buf.valid[idx:], dtype=bool)
        if self._element is not None:
            mapped, mapped_ok = self._element(values, rt)
            values = np.asarray(mapped, dtype=np.float64)
            ok = ok & np.asarray(mapped_ok, dtype=bool)
        first_start = buf.start_time if idx == 0 else float(times[idx - 1])
        if self.index is None:
            self.index = build_range_index(self.agg, times[idx:], values, ok, first_start)
        else:  # only a growable (prefix) index is ever kept past its build
            self.index.extend(times[idx:], values, ok, first_start)
        if len(times):
            self.ingested_through = float(times[-1])

    def reserve(self, buf: SSBuf) -> int:
        """The native entry's :meth:`ingest` of a prefix site: advance the
        ingest horizon past ``buf``'s new snapshots and reserve their rows in
        the index (:meth:`PrefixRangeIndex.reserve`), with the centre of an
        extended-precision index this opens; returns how many rows the C
        entry is to fill — the tail of ``buf``."""
        if self.index is None:
            self.index = PrefixRangeIndex(self.agg)
        times = buf.times
        idx = int(np.searchsorted(times, self.ingested_through, side="right"))
        new = len(times) - idx
        if not new:
            return 0
        center = None
        if self.agg.prefix_extended_precision and self.index.center is None:
            center = prefix_center(buf.values[idx:], buf.valid[idx:])
        self.index.reserve(new, buf.start_time if idx == 0 else float(times[idx - 1]), center)
        self.ingested_through = float(times[-1])
        return new


class KernelRuntime:
    """Per-kernel helper object passed to generated code as ``rt``.

    The runtime is **immutable after construction**: it carries only the
    compile-time registries (aggregates, element maps, access patterns), no
    execution state.  Anything that lives for one kernel invocation — the
    cursor table and the :class:`ReduceSite` indexes, both held in the
    invocation's ``cache`` dict — is allocated by the generated
    kernel itself and threaded through the ``rt`` calls, so one compiled
    query can run concurrently over many partitions (threads sharing a
    ``CompiledQuery``, or a process pool's per-process rebuilds) without
    any cross-run interference.  An earlier design kept the aggregator
    cache on the runtime, keyed by ``id(buf)`` and cleared by
    :meth:`eval_times`; that was both a cross-thread stomp (one partition
    wiping another's cache mid-run) and an ``id``-reuse staleness hazard.

    Parameters
    ----------
    accesses:
        Access pattern of the kernel's expression (drives the evaluation
        grid).
    tdom:
        Time domain of the temporal expression (precision snapping).
    aggregates:
        Registry of aggregate functions, indexed by the integers embedded in
        the generated source.
    element_functions:
        Compiled element-map functions (one per registered element source).
    """

    #: exposed so generated code can say ``_np = rt.np``
    np = np

    def __init__(
        self,
        accesses: Mapping[str, AccessPattern],
        tdom: TDom,
        aggregates: List[AggregateFunction],
        element_functions: List,
    ):
        self.accesses = accesses
        self.tdom = tdom
        self.aggregates = aggregates
        self.element_functions = element_functions
        #: reduce sites that outlive an invocation, by ``(ref, agg_idx,
        #: elem_idx)`` — none on a compiled kernel's shared runtime; a
        #: session's private runtime fills it from its site plan
        self.sites: Dict[tuple, ReduceSite] = {}

    # ------------------------------------------------------------------ #
    # hooks called from generated code
    # ------------------------------------------------------------------ #
    def eval_times(self, env: Mapping[str, SSBuf], t_start: float, t_end: float) -> np.ndarray:
        """Output timestamps for the partition ``(t_start, t_end]``."""
        return evaluation_times_for_accesses(self.accesses, env, self.tdom, t_start, t_end)

    def empty(self, t_start: float) -> SSBuf:
        """Empty output buffer (no evaluation points in the partition)."""
        return SSBuf.empty(t_start)

    def point(
        self, env: Mapping[str, SSBuf], ref: str, offset: float, ts: np.ndarray, cache: dict
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized point access ``~ref[t + offset]`` at all output times."""
        buf = env.get(ref)
        if buf is None:
            raise ExecutionError(f"unknown temporal object ~{ref}")
        return buf.values_at(*self._cursor(cache, ref, buf.times, ts, offset))

    def reduce(
        self,
        env: Mapping[str, SSBuf],
        ref: str,
        start_offset: float,
        end_offset: float,
        agg_idx: int,
        elem_idx: int,
        ts: np.ndarray,
        cache: dict,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized reduction over ``~ref[t+start_offset : t+end_offset]``.

        ``cache`` is the invocation's private state (a fresh dict per
        generated-kernel call): several reductions over the same input
        within one invocation share the :class:`ReduceSite` and the cursors
        of their window edges, and nothing outlives the run — except a site
        the runtime itself keeps (:attr:`sites`), whose windows index the
        site's own timeline, not the (pruned) input column.
        """
        buf = env.get(ref)
        if buf is None:
            raise ExecutionError(f"unknown temporal object ~{ref}")
        # keyed by input *name*, not id(buf): within one invocation the env
        # binding is stable, and names cannot be recycled the way object ids
        # of freed buffers can.
        key = (ref, agg_idx, elem_idx)
        kept = self.sites.get(key)
        site = kept if kept is not None else cache.get(key)
        if site is None:
            site = cache[key] = self.new_site(agg_idx, elem_idx)
        site.ingest(buf, self)
        held, cursors = (buf, ref) if kept is None else (site.index, site)
        return site.index.query_indices(
            *self._window(cache, cursors, held, ts, start_offset, end_offset)
        )

    def build(self, ts: np.ndarray, values, valid, t_start: float) -> SSBuf:
        """Assemble the output snapshot buffer from the kernel's arrays.

        The buffer is not compacted: downstream reductions fold one value per
        snapshot, so merging adjacent equal snapshots would change their
        results.
        """
        values = np.broadcast_to(np.asarray(values, dtype=np.float64), ts.shape).copy()
        valid = np.broadcast_to(np.asarray(valid, dtype=bool), ts.shape).copy()
        return _ssbuf_from_arrays(ts, values, valid, float(t_start))

    def new_site(self, agg_idx: int, elem_idx: int, index=None) -> ReduceSite:
        """A fresh site for registry entries ``agg_idx`` / ``elem_idx`` (-1: none)."""
        element = self.element_functions[elem_idx] if elem_idx >= 0 else None
        return ReduceSite(self.aggregates[agg_idx], element, index)

    # ------------------------------------------------------------------ #
    # internal helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _cursor(cache: dict, key, times: np.ndarray, ts: np.ndarray, offset: float):
        """``(q, left)``: the access times ``q = ts + offset`` and their left
        cursor in ``times`` (snapshots strictly before each).  The cursor
        table: ``times`` — named by ``key``, an input or a persistent index —
        is searched once per offset per invocation, and every point access
        and window edge at that offset reads the same entry."""
        cursor = cache.get((key, offset))
        if cursor is None:
            q = ts + offset
            cursor = cache[key, offset] = (q, np.searchsorted(times, q, side="left"))
        return cursor

    def _window(self, cache: dict, key, held, ts, start_offset, end_offset):
        """Snapshot index ranges of the windows ``(t+start_offset, t+end_offset]``
        over ``held`` (a buffer or a persistent index: ``.times`` and
        ``.start_time``), from the shared cursors of the two edges."""
        times = held.times
        starts, left_starts = self._cursor(cache, key, times, ts, start_offset)
        ends, left_ends = self._cursor(cache, key, times, ts, end_offset)
        return snapshot_range_indices(
            times, held.start_time, starts, ends, left_starts, left_ends
        )
