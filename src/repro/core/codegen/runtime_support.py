"""Runtime support objects for generated kernels.

A generated kernel is pure straight-line NumPy code; everything that cannot
be expressed as source text — the aggregate function registry, compiled
element-map functions, the evaluation-grid computation and the snapshot
buffer constructors — is provided through a :class:`KernelRuntime` instance
(`rt` in the generated source).
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

import numpy as np

from ...errors import ExecutionError
from ...windowing.functions import AggregateFunction
from ...windowing.prefix import snapshot_range_indices
from ...windowing.sliding import RangeAggregator
from ..ir.nodes import TDom
from ..lineage.boundary import AccessPattern
from ..runtime.ssbuf import SSBuf, _ssbuf_from_arrays
from .grid import evaluation_times_for_accesses

__all__ = ["KernelRuntime"]


class KernelRuntime:
    """Per-kernel helper object passed to generated code as ``rt``.

    The runtime is **immutable after construction**: it carries only the
    compile-time registries (aggregates, element maps, access patterns), no
    execution state.  Anything that lives for one kernel invocation — the
    cursor table and the :class:`RangeAggregator` indexes, both held in the
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
        within one invocation share the built :class:`RangeAggregator`
        index and the cursors of their window edges, and nothing outlives
        the run.
        """
        buf = env.get(ref)
        if buf is None:
            raise ExecutionError(f"unknown temporal object ~{ref}")
        aggregator = self._aggregator(buf, ref, agg_idx, elem_idx, cache)
        return aggregator.query_indices(
            *self._window(cache, ref, buf, ts, start_offset, end_offset)
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

    def _aggregator(
        self,
        buf: SSBuf,
        ref: str,
        agg_idx: int,
        elem_idx: int,
        cache: dict,
    ) -> RangeAggregator:
        # keyed by input *name*, not id(buf): within one invocation the env
        # binding is stable, and names cannot be recycled the way object ids
        # of freed buffers can.
        key = (ref, agg_idx, elem_idx)
        cached = cache.get(key)
        if cached is not None:
            return cached
        agg = self.aggregates[agg_idx]
        target = buf
        if elem_idx >= 0:
            element_fn = self.element_functions[elem_idx]
            mapped_vals, mapped_ok = element_fn(buf.values, self)
            target = _ssbuf_from_arrays(
                buf.times,
                np.asarray(mapped_vals, dtype=np.float64),
                np.asarray(buf.valid, dtype=bool) & np.asarray(mapped_ok, dtype=bool),
                buf.start_time,
            )
        aggregator = RangeAggregator(target, agg)
        cache[key] = aggregator
        return aggregator
