"""Live metrics for continuous streaming sessions.

A one-shot run is timed as a whole over a prepared dataset.  A
:class:`~repro.core.runtime.session.StreamingSession` instead runs
indefinitely in micro-batch ticks, so its interesting numbers are
*rolling*: the sustained ingest rate over the last few seconds of
processing, and the distribution of per-tick latencies (the time from
pulling a micro-batch to emitting its output delta, which bounds result
staleness the same way batch size bounds it in Figure 9 of the paper).

This module is deliberately dependency-free (NumPy only) so the session
runtime can import it without pulling in anything above
``repro.core.runtime``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["LatencyDistribution", "SessionMetrics"]


class LatencyDistribution:
    """Percentile tracker over a bounded history of per-tick latencies.

    Keeps the most recent ``capacity`` samples in a ring buffer; percentiles
    are therefore *recent* percentiles, which is what a live dashboard wants
    from a server that has been up for days.

    Safe to read from a monitoring thread while another thread records.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._samples: Deque[float] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self.count = 0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(float(seconds))
            self.count += 1
            self.max_seconds = max(self.max_seconds, float(seconds))

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of recent tick latencies."""
        return self.quantiles([q])[0]

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """Several percentiles (0..100) from **one** snapshot of the window.

        The sample window is copied and sorted once, however many quantiles
        are requested — the batch API callers should prefer over repeated
        ``p50``/``p99`` reads, each of which snapshots on its own.
        """
        samples = self.samples()
        if not samples:
            return [0.0] * len(qs)
        arr = np.asarray(samples, dtype=np.float64)
        return [float(v) for v in np.percentile(arr, list(qs))]

    def samples(self) -> List[float]:
        """The retained recent samples, oldest first (a copy).

        Fleet-level aggregation merges the per-tenant sample windows into
        one distribution before taking service-wide percentiles.
        """
        with self._lock:
            return list(self._samples)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        samples = self.samples()
        if not samples:
            return 0.0
        return float(np.mean(np.asarray(samples, dtype=np.float64)))


class SessionMetrics:
    """Aggregated live metrics of one streaming session.

    Sessions call :meth:`record_tick` once per micro-batch; everything else
    is derived.  ``busy_seconds`` counts only time spent inside ticks, so
    ``throughput`` matches the paper's metric (events per second of query
    execution, excluding idle/arrival time); ``rolling_throughput`` is the
    same rate over the last ``window_ticks`` ticks, read and written under
    one lock (a monitoring thread may read while the scheduler records).

    Given a :class:`~repro.obs.registry.MetricsRegistry` (a session passes
    its engine's), ``record_tick`` is also the one write path of the
    registry's tick totals and tick-latency histogram.
    """

    def __init__(
        self, registry=None, *, window_ticks: int = 64, latency_history: int = 1024
    ):
        if window_ticks < 1:
            raise ValueError("window_ticks must be >= 1")
        self.window_ticks = int(window_ticks)
        self._window: Deque[Tuple[int, float]] = deque(maxlen=self.window_ticks)
        self._lock = threading.Lock()
        self.latency = LatencyDistribution(capacity=latency_history)
        self.ticks = 0
        self.empty_ticks = 0
        self.input_events = 0
        self.output_snapshots = 0
        self.busy_seconds = 0.0
        self._registry_sinks = None
        if registry is not None:
            self._registry_sinks = (
                registry.counter("repro_ticks_total", "Micro-batch ticks executed"),
                registry.counter("repro_empty_ticks_total", "Ticks that emitted no output"),
                registry.counter("repro_ingested_events_total", "Input events ingested"),
                registry.counter("repro_output_snapshots_total", "Output snapshots emitted"),
                registry.histogram("repro_tick_seconds", "Per-tick wall time"),
            )

    def record_tick(
        self,
        *,
        input_events: int,
        output_snapshots: int,
        seconds: float,
        emitted: bool = True,
    ) -> None:
        input_events = int(input_events)
        seconds = float(seconds)
        with self._lock:
            self.ticks += 1
            if not emitted:
                self.empty_ticks += 1
            self.input_events += input_events
            self.output_snapshots += int(output_snapshots)
            self.busy_seconds += seconds
            self._window.append((input_events, seconds))
        self.latency.record(seconds)
        sinks = self._registry_sinks
        if sinks is not None:
            ticks, empty, events, snaps, hist = sinks
            ticks.inc()
            if not emitted:
                empty.inc()
            if input_events:
                events.inc(input_events)
            if output_snapshots:
                snaps.inc(int(output_snapshots))
            hist.observe(seconds)

    @property
    def throughput(self) -> float:
        """Cumulative input events per second of tick (busy) time."""
        if self.busy_seconds <= 0.0:
            return 0.0
        return self.input_events / self.busy_seconds

    @property
    def rolling_throughput(self) -> float:
        """Events per second over the last ``window_ticks`` ticks (0.0
        before any work)."""
        with self._lock:
            events = sum(e for e, _ in self._window)
            seconds = sum(s for _, s in self._window)
        if seconds <= 0.0:
            return 0.0
        return events / seconds

    def summary(self) -> Dict[str, float]:
        """Snapshot of the headline numbers (stable keys, JSON-friendly)."""
        p50, p95, p99 = self.latency.quantiles([50.0, 95.0, 99.0])
        return {
            "ticks": float(self.ticks),
            "empty_ticks": float(self.empty_ticks),
            "input_events": float(self.input_events),
            "output_snapshots": float(self.output_snapshots),
            "busy_seconds": self.busy_seconds,
            "events_per_second": self.throughput,
            "rolling_events_per_second": self.rolling_throughput,
            "tick_latency_p50": p50,
            "tick_latency_p95": p95,
            "tick_latency_p99": p99,
        }

    def format(self) -> str:
        """One-line human-readable rendering for live logs."""
        p50, p99 = self.latency.quantiles([50.0, 99.0])
        return (
            f"{self.ticks} ticks | {self.input_events:,} events | "
            f"{self.rolling_throughput / 1e6:.3f} M ev/s rolling "
            f"({self.throughput / 1e6:.3f} cumulative) | "
            f"tick p50 {p50 * 1e3:.2f} ms / "
            f"p99 {p99 * 1e3:.2f} ms"
        )
