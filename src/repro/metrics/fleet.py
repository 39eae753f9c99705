"""Fleet-level metrics: service-wide aggregates over many tenant sessions.

:class:`~repro.metrics.streaming.SessionMetrics` describes *one* streaming
session.  A multi-tenant :class:`~repro.serve.QueryService` hosts many, so
its dashboard numbers are aggregates: total sustained events/sec across the
fleet, service-wide tick-latency percentiles (merged over every tenant's
recent sample window), total queue depth awaiting ingestion, and a
**fairness index** summarizing how evenly the scheduler spread execution
time across tenants.

Fairness is Jain's index over the per-tenant busy-time shares, normalized by
the tenants' scheduler weights: 1.0 means every tenant received exactly its
weighted fair share of engine time; ``1/n`` means one tenant monopolized the
service.  Comparing the index between scheduler policies is how the
multi-tenant benchmark shows deficit fair-share beating round-robin under
skewed tenant costs.

Like :mod:`repro.metrics.streaming`, this module depends on NumPy only, so
the serving layer can use it without importing the measurement harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from .streaming import SessionMetrics

__all__ = ["jain_fairness_index", "FleetSnapshot", "aggregate_fleet"]


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n · Σx²)`` over non-negative shares.

    Ranges from ``1/n`` (one party gets everything) to 1.0 (perfectly even).
    An empty or all-zero allocation is vacuously fair (1.0).
    """
    x = np.asarray(list(values), dtype=np.float64)
    if x.size == 0:
        return 1.0
    if np.any(x < 0):
        raise ValueError("fairness shares must be non-negative")
    denom = x.size * float(np.sum(x * x))
    if denom == 0.0:
        return 1.0
    return float(np.sum(x)) ** 2 / denom


@dataclass
class FleetSnapshot:
    """Point-in-time aggregate over the tenants of a query service."""

    tenants: int
    active_tenants: int
    input_events: int
    output_snapshots: int
    busy_seconds: float
    events_per_second: float
    tick_latency_p50: float
    tick_latency_p99: float
    queue_depth: int
    shed_events: int
    fairness: float

    def summary(self) -> Dict[str, float]:
        """JSON-friendly flat rendering (stable keys)."""
        return {
            "tenants": float(self.tenants),
            "active_tenants": float(self.active_tenants),
            "input_events": float(self.input_events),
            "output_snapshots": float(self.output_snapshots),
            "busy_seconds": self.busy_seconds,
            "events_per_second": self.events_per_second,
            "tick_latency_p50": self.tick_latency_p50,
            "tick_latency_p99": self.tick_latency_p99,
            "queue_depth": float(self.queue_depth),
            "shed_events": float(self.shed_events),
            "fairness": self.fairness,
        }

    def format(self) -> str:
        """One-line human-readable rendering for live logs."""
        return (
            f"{self.active_tenants}/{self.tenants} tenants active | "
            f"{self.input_events:,} events | "
            f"{self.events_per_second / 1e6:.3f} M ev/s | "
            f"tick p50 {self.tick_latency_p50 * 1e3:.2f} ms / "
            f"p99 {self.tick_latency_p99 * 1e3:.2f} ms | "
            f"queued {self.queue_depth} | fairness {self.fairness:.3f}"
        )


def aggregate_fleet(
    per_tenant: Mapping[str, SessionMetrics],
    *,
    active: Optional[Sequence[str]] = None,
    weights: Optional[Mapping[str, float]] = None,
    queue_depths: Optional[Mapping[str, int]] = None,
    shed_events: Optional[Mapping[str, int]] = None,
) -> FleetSnapshot:
    """Fold per-tenant :class:`SessionMetrics` into one :class:`FleetSnapshot`.

    ``weights`` normalizes the fairness shares (a tenant with weight 2 is
    *supposed* to receive twice the engine time, so its share is halved
    before the index is taken).  ``queue_depths`` / ``shed_events`` fold in
    the admission-control side, which sessions know nothing about.
    """
    names = list(per_tenant)
    input_events = sum(m.input_events for m in per_tenant.values())
    output_snapshots = sum(m.output_snapshots for m in per_tenant.values())
    busy = sum(m.busy_seconds for m in per_tenant.values())
    # one snapshot per tenant window, one sort of the merged samples: both
    # service-wide percentiles come out of a single np.percentile call
    merged: List[float] = []
    for m in per_tenant.values():
        merged.extend(m.latency.samples())
    if merged:
        arr = np.asarray(merged, dtype=np.float64)
        p50, p99 = (float(v) for v in np.percentile(arr, [50.0, 99.0]))
    else:
        p50 = p99 = 0.0
    shares = [
        per_tenant[n].busy_seconds / (weights[n] if weights and weights.get(n) else 1.0)
        for n in names
    ]
    return FleetSnapshot(
        tenants=len(names),
        active_tenants=len(active) if active is not None else len(names),
        input_events=input_events,
        output_snapshots=output_snapshots,
        busy_seconds=busy,
        events_per_second=input_events / busy if busy > 0 else 0.0,
        tick_latency_p50=p50,
        tick_latency_p99=p99,
        queue_depth=sum((queue_depths or {}).values()),
        shed_events=sum((shed_events or {}).values()),
        fairness=jain_fairness_index(shares),
    )
