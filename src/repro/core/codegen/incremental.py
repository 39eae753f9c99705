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

* rows whose range strategy is ``prefix`` (``python -m repro.analysis
  --rows`` lists them) over a *program input* keep a growable
  :class:`~repro.windowing.prefix.PrefixRangeIndex`: appending a tick's tail
  extends the component cumsums in O(new) and queries stay vectorized.
* every other reduction builds its :class:`~.runtime_support.ReduceSite` in
  the invocation, like a one-shot run (sparse table / per-window fold): a
  persistent form would have to walk snapshots in Python (the online
  aggregators of :mod:`repro.windowing.online`, the paper's reference
  algorithms), which measured slower per tick than rebuilding the
  vectorized index.
* reductions over *intermediate* expressions never persist: intermediates
  are rebuilt from scratch each tick over their margin window, whereas
  input columns are append-only (which makes "ingest the new tail"
  well-defined).

A promoted output kernel reads the same kept indexes: its C tick entry
(:meth:`NativeKernel.tick <repro.core.codegen.native.NativeKernel.tick>`)
ingests each site exactly as ``rt.reduce`` would and then takes the
index's arrays by pointer, so these sites are the one state a session has
whichever tier serves it.

The runtime also exposes the *retention floor* the session's carry-over
pruning must respect: input snapshots newer than a site's ingest horizon
have not been consumed yet and must survive pruning (see
``StreamingSession._prune_floor``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...windowing.prefix import PrefixRangeIndex
from .runtime_support import KernelRuntime

__all__ = ["persists", "reduce_site_plan", "IncrementalKernelRuntime"]

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


class IncrementalKernelRuntime(KernelRuntime):
    """A :class:`KernelRuntime` that keeps its planned reduce sites.

    Shares the compiled kernel's registries (aggregates, element maps,
    access patterns) but is **session-private**: the shared immutable
    runtime of a :class:`~repro.core.codegen.compiled.CompiledKernel` is
    never mutated, so concurrent sessions over the same compiled query
    cannot interfere.  ``reduce`` is the base class's: a site found in
    :attr:`sites` ingests only the input's new tail and answers from its
    own index.
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
        self.sites = {}
        for (ref, _, _, agg_idx, elem_idx), row in zip(self._reduce_sites, self.plan):
            if row["state"] == "persisted" and (ref, agg_idx, elem_idx) not in self.sites:
                # growable, so the site holds its index from the start
                index = PrefixRangeIndex(self.aggregates[agg_idx])
                self.sites[ref, agg_idx, elem_idx] = self.new_site(agg_idx, elem_idx, index)

    def ingested_floor(self) -> float:
        """Oldest ingest horizon across sites — input newer than this has
        not been consumed yet and must not be pruned."""
        return min((s.ingested_through for s in self.sites.values()), default=_INF)

    def retained(self) -> int:
        """Total snapshots held across all site states (introspection)."""
        return sum(len(s.index) for s in self.sites.values())

    def prune(self, t: float) -> None:
        for s in self.sites.values():
            s.index.prune(t)
