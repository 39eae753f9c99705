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
  :class:`~repro.windowing.sliding.RangeAggregator` of the base runtime: a
  persistent form would have to walk snapshots in Python (the online
  aggregators of :mod:`repro.windowing.online`, the paper's reference
  algorithms), which measured slower per tick than rebuilding the
  vectorized index.
* reductions over *intermediate* expressions never persist: intermediates
  are rebuilt from scratch each tick over their margin window, whereas
  input columns are append-only (which makes "ingest the new tail"
  well-defined).

The runtime also exposes the *retention floor* the session's carry-over
pruning must respect: input snapshots newer than a site's ingest horizon
have not been consumed yet and must survive pruning (see
``StreamingSession._prune_floor``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ...windowing.functions import AggregateFunction
from ...windowing.prefix import PrefixRangeIndex
from ..runtime.ssbuf import SSBuf
from .runtime_support import KernelRuntime

__all__ = ["reduce_site_plan", "PersistentSite", "IncrementalKernelRuntime"]

_INF = float("inf")


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
        elif strategy.range == "prefix":
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


class PersistentSite:
    """One reduce site's cross-tick state: the growable prefix index plus
    the input time it has consumed through."""

    __slots__ = ("structure", "_elem_idx", "ingested_through")

    def __init__(self, agg: AggregateFunction, elem_idx: int):
        self.structure = PrefixRangeIndex(agg)
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

    def __init__(self, kernel, input_refs):
        base = kernel.runtime
        super().__init__(base.accesses, base.tdom, base.aggregates, base.element_functions)
        self._reduce_sites = kernel.spec.reduce_sites
        #: :func:`reduce_site_plan` rows, aligned with ``spec.reduce_sites``
        self.plan = reduce_site_plan(kernel.spec, frozenset(input_refs))
        self.clear()

    def clear(self) -> None:
        """Forget all accumulated state (sites re-ingest from the retained
        carry-over on the next tick) — also the rewind/replay reset."""
        shared: Dict[tuple, PersistentSite] = {}
        self._by_call: Dict[tuple, PersistentSite] = {}
        for call, row in zip(self._reduce_sites, self.plan):
            if row["state"] != "persisted":
                continue
            ref, _, _, agg_idx, elem_idx = call
            # a prefix index is window-agnostic, so every window over the
            # same (input, aggregate, element map) shares one
            key = (ref, agg_idx, elem_idx)
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
        index = site.structure
        # cursors into the persistent index, not the (pruned) input column
        return index.query_indices(
            *self._window(cache, index, index, ts, start_offset, end_offset)
        )

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
