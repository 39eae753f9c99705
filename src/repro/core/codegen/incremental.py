"""Persistent reduce-site state for in-process tick execution.

A partition-and-recompute streaming tick rebuilds every range-aggregation
index over the whole carry-over tail, so tick cost is O(lookback + new
events).  A session on the in-process tick path (see
:class:`~repro.core.runtime.session.StreamingSession`) instead runs its
output kernel with an :class:`IncrementalKernelRuntime`, whose reduction
sites (one ``rt.reduce`` call in the generated source, recorded in
:attr:`KernelSpec.reduce_sites <repro.core.codegen.pysource.KernelSpec>`)
may own state that *persists across ticks* and only ingests the input
snapshots that arrived since the previous tick.

Which sites persist is decided per site by :func:`reduce_site_plan` — the
Init/Acc/Result/Deacc escalation of the paper's aggregation template
(Section 6.1.2), read off :attr:`AggregateFunction.strategy`:

* prefix-decomposable aggregates (Sum, Count, Mean, SumSquares, Variance,
  StdDev) over a *program input* keep a growable
  :class:`~repro.windowing.prefix.PrefixRangeIndex`: appending a tick's tail
  extends the component cumsums in O(new) and queries stay vectorized.
* every other reduction stays on the per-invocation vectorized
  :class:`~repro.windowing.sliding.RangeAggregator` of the base runtime.
  Their persistent form, :class:`OnlineSweep` (a monotone two-pointer sweep
  driving an online aggregator from :mod:`repro.windowing.online`), walks
  snapshots in Python and is slower per tick than rebuilding the vectorized
  index, so only the explicit ``incremental=True`` oracle switch selects it.
* reductions over *intermediate* expressions never persist: intermediates
  are rebuilt from scratch each tick over their margin window, whereas
  input columns are append-only (which makes "ingest the new tail"
  well-defined) and the output interval advances monotonically (which the
  sweep pointers require).

The runtime also exposes the *retention floor* the session's carry-over
pruning must respect: input snapshots newer than a site's ingest horizon
have not been consumed yet and must survive pruning (see
``StreamingSession._prune_floor``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ...windowing.functions import AggregateFunction
from ...windowing.online import make_online_aggregator
from ...windowing.prefix import PrefixRangeIndex, snapshot_range_indices
from ..runtime.growable import GrowableArray
from ..runtime.ssbuf import SSBuf
from .runtime_support import KernelRuntime

__all__ = [
    "reduce_site_plan",
    "OnlineSweep",
    "PersistentSite",
    "IncrementalKernelRuntime",
]

_INF = float("inf")


def reduce_site_plan(
    spec, input_refs, all_eligible: bool = False, blanket: Optional[str] = None
) -> List[Dict[str, object]]:
    """One row per entry of ``spec.reduce_sites``: does its state persist
    across ticks, and why.

    ``blanket`` is a reason *no* site of this kernel persists (the session
    partitions its ticks, or the kernel materializes an intermediate);
    ``all_eligible`` is the ``incremental=True`` override that also persists
    sites without a prefix decomposition.
    """
    rows = []
    for ref, start_offset, end_offset, agg_idx, _ in spec.reduce_sites:
        strategy = spec.aggregates[agg_idx].strategy
        if blanket is not None:
            persisted, reason = False, blanket
        elif ref not in input_refs:
            persisted, reason = False, "reduces an intermediate expression"
        elif strategy.range == "prefix":
            persisted, reason = True, "prefix-decomposable over a program input"
        elif all_eligible:
            persisted, reason = True, "explicit override"
        else:
            persisted, reason = False, "no prefix decomposition"
        rows.append(
            {
                "kernel": spec.name,
                "ref": ref,
                "window": (start_offset, end_offset),
                "aggregate": spec.aggregates[agg_idx].name,
                "strategy": strategy.persistent if persisted else strategy.range,
                "state": "persisted" if persisted else "per-invocation",
                "reason": reason,
            }
        )
    return rows


class OnlineSweep:
    """Monotone two-pointer sweep over one online aggregator.

    ``insert`` consumes snapshots entering the newest queried window,
    ``evict`` removes snapshots that fell out of the oldest edge; both
    pointers only move forward, so each retained snapshot is inserted and
    evicted at most once — amortized O(new events) per tick regardless of
    lookback depth.  Correct because a session's query windows are
    monotone: evaluation times strictly increase across ticks (every tick
    evaluates ``(t_emitted, w]`` with ``w`` advancing).
    """

    def __init__(self, agg: AggregateFunction):
        self._aggregator = make_online_aggregator(agg)
        #: start time, then every snapshot time (as in ``PrefixRangeIndex``)
        self._edges = GrowableArray()
        self._values = GrowableArray()
        self._valid = GrowableArray(dtype=bool)
        self._insert_idx = 0
        self._evict_idx = 0

    def __len__(self) -> int:
        return len(self._values)

    def extend(
        self, times: np.ndarray, values: np.ndarray, valid: np.ndarray, start_time: float
    ) -> None:
        if not len(self._edges):
            self._edges.append((start_time,))
        self._edges.append(times)
        self._values.append(values)
        self._valid.append(valid)

    def query(
        self, window_starts: np.ndarray, window_ends: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregate each window ``(ws_i, we_i]``; φ when no valid snapshot.

        Windows that overlap no snapshot leave the sweep state untouched, so
        duplicate or empty queries are harmless.
        """
        n = len(window_starts)
        out = np.zeros(n)
        ok = np.zeros(n, dtype=bool)
        if not len(self._edges):
            return out, ok
        edges = self._edges.view
        lo, hi = snapshot_range_indices(edges[1:], edges[:-1], window_starts, window_ends)
        values = self._values.view
        valid = self._valid.view
        state = self._aggregator
        insert_idx = self._insert_idx
        evict_idx = self._evict_idx
        for i in range(n):
            l, h = int(lo[i]), int(hi[i])
            if h <= l:
                continue
            while insert_idx < h:
                if valid[insert_idx]:
                    state.insert(float(values[insert_idx]))
                insert_idx += 1
            target = l if l < insert_idx else insert_idx
            while evict_idx < target:
                if valid[evict_idx]:
                    state.evict(float(values[evict_idx]))
                evict_idx += 1
            out[i], ok[i] = state.query()
        self._insert_idx = insert_idx
        self._evict_idx = evict_idx
        return out, ok

    def prune(self, t: float) -> None:
        """Drop already-evicted snapshots at or before ``t``."""
        k = int(np.searchsorted(self._edges.view[1:], t, side="right"))
        k = min(k, self._evict_idx)
        for arr in (self._edges, self._values, self._valid):
            arr.drop_prefix(k)
        self._insert_idx -= k
        self._evict_idx -= k


class PersistentSite:
    """One reduce site's cross-tick state: the range structure plus the
    input time it has consumed through."""

    __slots__ = ("structure", "_elem_idx", "ingested_through")

    def __init__(self, agg: AggregateFunction, elem_idx: int):
        self.structure = (
            PrefixRangeIndex(agg) if agg.strategy.range == "prefix" else OnlineSweep(agg)
        )
        self._elem_idx = elem_idx
        #: input time up to which this site has consumed snapshots
        self.ingested_through = -_INF

    def ingest(self, buf: SSBuf, rt: KernelRuntime) -> None:
        """Append every snapshot of ``buf`` newer than the ingest horizon.

        Idempotent within a tick (a second call over the same buffer is a
        no-op) and robust to carry-over pruning between ticks: snapshots the
        column dropped below the retention floor are — by the margin
        invariant — strictly older than any window a future tick queries.
        ``buf`` must be the unsliced input column: a slice-clipped phantom
        snapshot must never be ingested.
        """
        times = buf.times
        idx = int(np.searchsorted(times, self.ingested_through, side="right"))
        if idx >= len(times):
            return
        values = np.asarray(buf.values[idx:], dtype=np.float64)
        ok = np.asarray(buf.valid[idx:], dtype=bool)
        if self._elem_idx >= 0:
            mapped, mapped_ok = rt.element_functions[self._elem_idx](values, rt)
            values = np.asarray(mapped, dtype=np.float64)
            ok = ok & np.asarray(mapped_ok, dtype=bool)
        first_start = buf.start_time if idx == 0 else float(times[idx - 1])
        self.structure.extend(times[idx:], values, ok, first_start)
        self.ingested_through = float(times[-1])


class IncrementalKernelRuntime(KernelRuntime):
    """A :class:`KernelRuntime` whose planned reductions hit persistent
    site state.

    Shares the compiled kernel's registries (aggregates, element maps,
    access patterns) but is **session-private**: the shared immutable
    runtime of a :class:`~repro.core.codegen.compiled.CompiledKernel` is
    never mutated, so concurrent sessions over the same compiled query
    cannot interfere.
    """

    def __init__(self, kernel, input_refs, all_eligible: bool = False):
        base = kernel.runtime
        super().__init__(base.accesses, base.tdom, base.aggregates, base.element_functions)
        self._reduce_sites = kernel.spec.reduce_sites
        #: :func:`reduce_site_plan` rows, aligned with ``spec.reduce_sites``
        self.plan = reduce_site_plan(kernel.spec, frozenset(input_refs), all_eligible)
        self.clear()

    def clear(self) -> None:
        """Forget all accumulated state (sites re-ingest from the retained
        carry-over on the next tick) — also the rewind/replay reset."""
        shared: Dict[tuple, PersistentSite] = {}
        self._by_call: Dict[tuple, PersistentSite] = {}
        for call, row in zip(self._reduce_sites, self.plan):
            if row["state"] != "persisted":
                continue
            ref, start_offset, end_offset, agg_idx, elem_idx = call
            # a prefix index is window-agnostic, so every window over the
            # same (input, aggregate, element map) shares one; a sweep's
            # pointers track one window's edges
            key = (ref, agg_idx, elem_idx)
            if row["strategy"] != "prefix":
                key += (start_offset, end_offset)
            site = shared.get(key)
            if site is None:
                site = shared[key] = PersistentSite(self.aggregates[agg_idx], elem_idx)
            self._by_call[call] = site
        self._sites = list(shared.values())

    def reduce(self, env, ref, start_offset, end_offset, agg_idx, elem_idx, ts, cache):
        site = self._by_call.get((ref, start_offset, end_offset, agg_idx, elem_idx))
        if site is None:
            return super().reduce(
                env, ref, start_offset, end_offset, agg_idx, elem_idx, ts, cache
            )
        site.ingest(env[ref], self)
        return site.structure.query(ts + start_offset, ts + end_offset)

    def ingested_floor(self) -> float:
        """Oldest ingest horizon across sites — input newer than this has
        not been consumed yet and must not be pruned."""
        return min((s.ingested_through for s in self._sites), default=_INF)

    def retained(self) -> int:
        """Total snapshots held across all site states (introspection)."""
        return sum(len(s.structure) for s in self._sites)

    def prune(self, t: float) -> None:
        for s in self._sites:
            s.structure.prune(t)
