"""Runtime support objects for generated kernels.

A generated kernel is pure straight-line NumPy code; everything that cannot
be expressed as source text — the aggregate function registry, compiled
element-map functions, the evaluation-grid computation, the snapshot
buffer constructors and the reduce sites — is provided through a
:class:`KernelRuntime` instance (`rt` in the generated source), which a
kernel's C entry is handed as well.

A session keeps one runtime per kernel, whose *kept* reduce sites persist
across ticks and ingest only the snapshots that arrived since the last one
— tick cost O(new events) instead of O(lookback + new events).
:func:`reduce_site_plan` decides per site, from
:attr:`AggregateFunction.strategy` (the Init/Acc/Result/Deacc escalation of
the paper's aggregation template, Section 6.1.2): a ``prefix`` row
(``python -m repro.analysis --rows``) over a *program input* keeps a
growable :class:`~repro.windowing.prefix.PrefixRangeIndex`, extended by
NumPy or, with the same bytes, by the promoted kernel's C entry — one state
whichever tier serves the session.  Every other reduction is rebuilt every
call: a persistent sparse table or fold would walk snapshots in Python with
an insert/evict aggregator (the test suite keeps those as the windowing
oracle), measured slower than the vectorized rebuild.  Reductions over
*intermediate* expressions never persist: intermediates are rebuilt each
tick over their margin window, whereas input columns are append-only.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ...errors import ExecutionError
from ...windowing.functions import AggregateFunction, prefix_center
from ...windowing.prefix import PrefixRangeIndex, snapshot_range_indices
from ...windowing.sliding import build_range_index
from ..runtime.ssbuf import SSBuf, _ssbuf_from_arrays
from .grid import evaluation_times_for_accesses

__all__ = ["KernelRuntime", "ReduceSite", "persists", "reduce_site_plan"]

_INF = float("inf")


def persists(agg) -> bool:
    """A site can be kept across ticks only on a growable range index —
    the prefix one (see ``windowing/sliding.py::build_range_index``)."""
    return agg.strategy.range == "prefix"


def reduce_site_plan(spec, input_refs, blanket: Optional[str] = None) -> List[Dict[str, object]]:
    """One row per entry of ``spec.reduce_sites``: does its state persist
    across ticks, and why.

    ``blanket`` is a reason *no* site of this kernel persists (the session
    partitions its ticks, or the kernel materializes an intermediate).
    """
    rows = []
    for ref, start_offset, end_offset, agg_idx, _ in spec.reduce_sites:
        strategy = spec.aggregates[agg_idx].strategy
        if blanket is not None:
            persisted, reason = False, blanket
        elif ref not in input_refs:
            persisted, reason = False, "reduces an intermediate expression"
        elif persists(spec.aggregates[agg_idx]):
            persisted, reason = True, "prefix-decomposable over a program input"
        else:
            persisted, reason = False, "no prefix decomposition"
        rows.append(
            {
                "kernel": spec.name,
                "ref": ref,
                "window": (start_offset, end_offset),
                "aggregate": spec.aggregates[agg_idx].name,
                "strategy": strategy.range,
                "state": "persisted" if persisted else "per-invocation",
                "reason": reason,
            }
        )
    return rows


class ReduceSite:
    """One ``(input, aggregate, element map)`` reduction's state: the
    element map, the range index the aggregate's row picks, and the input
    time the index has consumed through.  A per-call site is rewound at the
    start of every call and its :meth:`ingest` builds the index over the
    call's buffer; a kept site's appends the column's new tail.  All windows
    over one triple share its site: an index is window-agnostic.
    """

    __slots__ = ("agg", "_element", "index", "ingested_through")

    def __init__(self, agg: AggregateFunction, element: Optional[Callable] = None, index=None):
        self.agg = agg
        self._element = element
        #: built by the first :meth:`ingest`, unless the keeper hands in a
        #: growable one up front
        self.index = index
        #: input time up to which this site has consumed snapshots
        self.ingested_through = -_INF

    def rewind(self) -> None:
        """Hold nothing again; a prefix index keeps its storage."""
        self.ingested_through = -_INF
        if isinstance(self.index, PrefixRangeIndex):
            self.index.rewind()
        else:
            self.index = None

    def ingest(self, buf: SSBuf, rt: "KernelRuntime") -> None:
        """Consume every snapshot of ``buf`` newer than the ingest horizon:
        idempotent within a call, and robust to carry-over pruning (what a
        column dropped is older than any window a later tick queries).  A
        kept site must be fed the unsliced input column, never a
        slice-clipped phantom snapshot."""
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
        """The C entry's :meth:`ingest`: reserve rows for ``buf``'s new tail
        (:meth:`PrefixRangeIndex.reserve`, with the centre of an
        extended-precision index this opens), advance the horizon and
        return how many rows C is to fill (the index is a prefix one)."""
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
    """The state one caller keeps for one kernel, passed to generated code
    as ``rt``: the kernel's registries, every reduce site it reads — *kept*
    when :func:`reduce_site_plan` persists it over
    ``input_refs``, else *per-call*, rewound at each call's start
    (:meth:`begin`) — and, once its C entry has been called, that entry's
    struct and output lanes (``bound``).  A one-shot call gets a fresh
    runtime; a session keeps one per kernel, and for its output kernel sets
    ``compact`` (the C entry writes ``SSBuf.compact``'s form), ``columns``
    (ingest columns the entry binds by pointer) and, before each tick,
    ``prune_to`` (the floor its pins and lookback allow: :meth:`prune`).
    """

    #: exposed so generated code can say ``_np = rt.np``
    np = np

    def __init__(self, kernel, input_refs=(), compact: bool = False):
        spec = kernel.spec
        self.accesses, self.tdom, self.aggregates = spec.accesses, spec.tdom, spec.aggregates
        self.element_functions = kernel.element_functions
        #: :func:`reduce_site_plan` rows, aligned with ``spec.reduce_sites``
        self.plan = reduce_site_plan(spec, frozenset(input_refs)) if input_refs else []
        self.kept = frozenset(
            (ref, agg_idx, elem_idx)
            for (ref, _, _, agg_idx, elem_idx), row in zip(spec.reduce_sites, self.plan)
            if row["state"] == "persisted"
        )
        self.compact = compact
        self.columns: Dict[str, object] = {}
        self.bound = None
        self.prune_to = -_INF
        #: the floor the C entry pruned the kept sites to in this call
        self.pruned: Optional[float] = None
        #: every reduce site by ``(ref, agg_idx, elem_idx)``; a kept one holds
        #: its growable index from the start
        self.sites: Dict[tuple, ReduceSite] = {
            key: self.new_site(key[1], key[2], PrefixRangeIndex(self.aggregates[key[1]]))
            for key in self.kept
        }

    def begin(self) -> None:
        """Rewind every per-call site: the start of a call."""
        if len(self.sites) > len(self.kept):
            for key, site in self.sites.items():
                if key not in self.kept:
                    site.rewind()

    def clear(self) -> None:
        """Forget all accumulated state (sites re-ingest from the retained
        carry-over on the next call) — the session's rewind."""
        for site in self.sites.values():
            site.rewind()

    def retained(self) -> int:
        """Total snapshots held across the kept sites (introspection)."""
        return sum(len(self.sites[key].index) for key in self.kept)

    def prune(self) -> float:
        """Prune the kept sites to ``prune_to`` or the oldest kept site's
        ingest horizon, whichever is older (input past a horizon is not
        consumed yet) — unless the C entry did in this call — and return
        that floor."""
        floor, self.pruned = self.pruned, None
        if floor is None:
            floor = min([self.prune_to] + [self.sites[key].ingested_through for key in self.kept])
            for key in self.kept:
                self.sites[key].index.prune(floor)
        return floor

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

        ``cache`` is the invocation's cursor table (a fresh dict per
        generated-kernel call), shared by every window edge at one offset of
        one input.  A kept site's windows index the site's own timeline, a
        per-call site's the input buffer.
        """
        buf = env.get(ref)
        if buf is None:
            raise ExecutionError(f"unknown temporal object ~{ref}")
        key = (ref, agg_idx, elem_idx)
        site = self.site(key)
        site.ingest(buf, self)
        held, cursors = (site.index, site) if key in self.kept else (buf, ref)
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

    def site(self, key) -> ReduceSite:
        """The site of ``key`` — ``(ref, agg_idx, elem_idx)`` — made on first use."""
        site = self.sites.get(key)
        if site is None:
            site = self.sites[key] = self.new_site(key[1], key[2])
        return site

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
