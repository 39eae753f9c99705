"""Live metrics of continuous streaming sessions and fleet-level aggregates
of the multi-tenant query service."""

from .fleet import FleetSnapshot, aggregate_fleet, jain_fairness_index
from .streaming import LatencyDistribution, SessionMetrics

__all__ = [
    "LatencyDistribution",
    "SessionMetrics",
    "FleetSnapshot",
    "aggregate_fleet",
    "jain_fairness_index",
]
