"""LightSaber-like baseline engine.

LightSaber is a compiler-based SPE built around a parallel aggregation tree
(a generalized aggregation graph): the stream is cut into non-overlapping
*panes* (slices of the window grid), workers compute per-pane partial
aggregates independently (no shared mutable state), and window results are
assembled by combining the panes each window spans.

Like the Grizzly-like engine it only supports Select, Where and window
aggregation — queries with temporal joins are rejected, which excludes it
from the paper's real-world application study (Section 7.3).  Unlike
Grizzly, pane aggregation is lock-free and fully vectorized for decomposable
aggregates, which is why it is the strongest baseline on the Yahoo Streaming
Benchmark (Table 1 / Figure 8) while still trailing TiLT.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from ...core.frontend.query import WindowAggregate
from ...core.runtime.executor import default_kind, make_executor
from ...core.runtime.stream import ColumnChunk
from ...errors import UnsupportedOperationError
from ...windowing.functions import AggregateFunction
from ..common.vectoreval import eval_expr_vectorized
from ..grizzly.engine import PAYLOAD_VAR, GrizzlyEngine

__all__ = ["LightSaberEngine"]


class LightSaberEngine(GrizzlyEngine):
    """Aggregation-only engine using lock-free, pane-based parallel aggregation."""

    name = "lightsaber"

    # ------------------------------------------------------------------ #
    # pane-based window aggregation (overrides Grizzly's shared-state path)
    # ------------------------------------------------------------------ #
    def _window_aggregate(self, cols: ColumnChunk, node: WindowAggregate) -> ColumnChunk:
        if len(cols) == 0:
            return ColumnChunk.empty()
        agg = node.agg
        if not agg.mergeable:
            raise UnsupportedOperationError(
                f"LightSaber-like engine requires a mergeable aggregate, got {agg.name!r}"
            )
        size, stride = node.size, node.stride
        pane = self._pane_size(size, stride)
        panes_per_window = max(1, int(round(size / pane)))
        panes_per_stride = max(1, int(round(stride / pane)))

        starts, ends, values = cols.starts, cols.ends, cols.values
        if node.element is not None:
            n = len(cols)
            values, valid = eval_expr_vectorized(
                node.element, {PAYLOAD_VAR: (values, np.ones(n, dtype=bool))}, n
            )
            starts, ends, values = starts[valid], ends[valid], values[valid]
            if len(starts) == 0:
                return ColumnChunk.empty()

        # assign each event to the pane containing its start time; pane k
        # covers ((k-1)*pane, k*pane].
        pane_idx = np.floor(starts / pane).astype(np.int64) + 1
        first_pane = int(pane_idx.min())
        last_pane = int(pane_idx.max())
        num_panes = last_pane - first_pane + 1
        rel_idx = pane_idx - first_pane

        if agg.strategy.range == "prefix":
            pane_components, pane_counts = self._decomposable_pane_partials(
                agg, rel_idx, values, num_panes
            )
            return self._combine_decomposable(
                agg, pane_components, pane_counts, first_pane, pane,
                panes_per_window, panes_per_stride, stride, float(ends.max()),
            )
        pane_states = self._generic_pane_partials(agg, rel_idx, values, num_panes)
        return self._combine_generic(
            agg, pane_states, first_pane, pane,
            panes_per_window, panes_per_stride, stride, float(ends.max()),
        )

    # ------------------------------------------------------------------ #
    # per-pane partial aggregates
    # ------------------------------------------------------------------ #
    def _decomposable_pane_partials(
        self, agg: AggregateFunction, rel_idx: np.ndarray, values: np.ndarray, num_panes: int
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Per-pane component sums via ``np.bincount``, parallel over worker slices."""
        # the row's decomposition (centred first where the row says so),
        # narrowed to what ``bincount`` accumulates in
        components, _ = agg.prefix_components(values, np.ones(len(values), dtype=bool))
        components = [comp.astype(np.float64, copy=False) for comp in components]
        slices = np.array_split(np.arange(len(values)), self.workers)
        executor = make_executor(self.workers, default_kind(self.workers))

        def work(index_slice: np.ndarray):
            if not len(index_slice):
                return None
            idx = rel_idx[index_slice]
            sums = [
                np.bincount(idx, weights=comp[index_slice], minlength=num_panes)
                for comp in components
            ]
            counts = np.bincount(idx, minlength=num_panes)
            return sums, counts

        try:
            results = [r for r in executor.map(work, list(slices)) if r is not None]
        finally:
            executor.shutdown()
        pane_components = [np.zeros(num_panes) for _ in components]
        pane_counts = np.zeros(num_panes)
        for sums, counts in results:
            for i, s in enumerate(sums):
                pane_components[i] += s
            pane_counts += counts
        return pane_components, pane_counts

    def _generic_pane_partials(
        self, agg: AggregateFunction, rel_idx: np.ndarray, values: np.ndarray, num_panes: int
    ) -> Dict[int, Tuple]:
        """Per-pane states for non-decomposable aggregates (e.g. Max/Min)."""
        slices = np.array_split(np.arange(len(values)), self.workers)
        executor = make_executor(self.workers, default_kind(self.workers))

        def work(index_slice: np.ndarray) -> Dict[int, Tuple]:
            out: Dict[int, Tuple] = {}
            idx = rel_idx[index_slice]
            vals = values[index_slice]
            for p in np.unique(idx):
                state = agg.init()
                for v in vals[idx == p]:
                    state = agg.acc(state, float(v))
                out[int(p)] = (state, int(np.count_nonzero(idx == p)))
            return out

        try:
            results = executor.map(work, [s for s in slices if len(s)])
        finally:
            executor.shutdown()
        merged: Dict[int, Tuple] = {}
        for result in results:
            for p, (state, count) in result.items():
                if p in merged:
                    merged[p] = (agg.merge(merged[p][0], state), merged[p][1] + count)
                else:
                    merged[p] = (state, count)
        return merged

    # ------------------------------------------------------------------ #
    # aggregation tree: panes -> windows
    # ------------------------------------------------------------------ #
    def _window_grid(
        self, first_pane: int, pane: float, stride: float, last_event_end: float
    ) -> np.ndarray:
        first_g = math.floor((first_pane - 1) * pane / stride) * stride + stride
        count = int(math.ceil((last_event_end - (first_g - stride)) / stride))
        return first_g + stride * np.arange(max(count, 0))

    def _combine_decomposable(
        self, agg, pane_components, pane_counts, first_pane, pane,
        panes_per_window, panes_per_stride, stride, last_event_end,
    ) -> ColumnChunk:
        grid = self._window_grid(first_pane, pane, stride, last_event_end)
        if not len(grid):
            return ColumnChunk.empty()
        # window ending at grid g spans panes (g/pane - panes_per_window, g/pane]
        end_pane = np.round(grid / pane).astype(np.int64) - first_pane
        lo_pane = end_pane - panes_per_window + 1
        cum = [np.concatenate(([0.0], np.cumsum(c))) for c in pane_components]
        cum_counts = np.concatenate(([0.0], np.cumsum(pane_counts)))
        hi = np.clip(end_pane + 1, 0, len(pane_counts))
        lo = np.clip(lo_pane, 0, len(pane_counts))
        sums = [c[hi] - c[lo] for c in cum]
        counts = cum_counts[hi] - cum_counts[lo]
        results = agg.prefix_finish(sums)
        keep = counts > 0
        return ColumnChunk(grid[keep] - stride, grid[keep], results[keep])

    def _combine_generic(
        self, agg, pane_states, first_pane, pane,
        panes_per_window, panes_per_stride, stride, last_event_end,
    ) -> ColumnChunk:
        grid = self._window_grid(first_pane, pane, stride, last_event_end)
        out_starts, out_ends, out_values = [], [], []
        for g in grid:
            end_pane = int(round(g / pane)) - first_pane
            state = None
            count = 0
            for p in range(end_pane - panes_per_window + 1, end_pane + 1):
                part = pane_states.get(p)
                if part is None:
                    continue
                state = part[0] if state is None else agg.merge(state, part[0])
                count += part[1]
            if state is not None and count > 0:
                out_starts.append(g - stride)
                out_ends.append(g)
                out_values.append(float(agg.result(state)))
        return ColumnChunk(np.array(out_starts), np.array(out_ends), np.array(out_values))

    @staticmethod
    def _pane_size(size: float, stride: float) -> float:
        """Largest pane that divides both the window size and the stride."""
        scale = 1000.0
        a = int(round(size * scale))
        b = int(round(stride * scale))
        g = math.gcd(a, b)
        if g == 0:
            return stride
        return g / scale
