"""Admission control for the multi-tenant query service.

A shared engine protects itself at two points:

* **tenant admission** — ``submit`` is refused (with
  :class:`~repro.errors.AdmissionError`) once ``max_tenants`` tenants are
  live, so one misbehaving client cannot exhaust the fleet with sessions;
* **ingest admission** — each tenant's pending events are bounded by its
  :class:`~repro.datagen.sources.BoundedIngestQueue` (capacity
  ``max_pending_events``), and the ``overload`` policy decides what happens
  to a batch that does not fit:

  - ``"shed"`` (default): accept the prefix that fits, drop the rest, and
    count the dropped events (visible in fleet stats as ``shed_events``).
    The service stays responsive; overloaded tenants lose data — the
    classic load-shedding trade of a streaming service.
  - ``"block"``: apply backpressure — the producer's ``ingest`` call blocks
    (up to ``block_timeout``) until the scheduler drains the queue.  Nothing
    is dropped; slow consumers slow their producers down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.runtime.stream import ColumnChunk
from ..datagen.sources import QueuedSource
from ..errors import AdmissionError, QueryBuildError

__all__ = ["AdmissionConfig", "AdmissionController"]

_OVERLOAD_POLICIES = ("shed", "block")


@dataclass(frozen=True)
class AdmissionConfig:
    """Static limits and the overload policy of one service."""

    max_tenants: int = 64
    max_pending_events: int = 65_536
    overload: str = "shed"
    #: total deadline for a blocking ingest; ``None`` blocks indefinitely
    block_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_tenants < 1:
            raise QueryBuildError("max_tenants must be >= 1")
        if self.max_pending_events < 1:
            raise QueryBuildError("max_pending_events must be >= 1")
        if self.overload not in _OVERLOAD_POLICIES:
            raise QueryBuildError(
                f"unknown overload policy {self.overload!r}; "
                f"choose from {_OVERLOAD_POLICIES}"
            )


class AdmissionController:
    """Enforces an :class:`AdmissionConfig` and counts what it refused."""

    def __init__(self, config: AdmissionConfig):
        self.config = config
        self.rejected_tenants = 0

    def admit_tenant(self, live_tenants: int) -> None:
        """Raise :class:`AdmissionError` when the tenant limit is reached."""
        if live_tenants >= self.config.max_tenants:
            self.rejected_tenants += 1
            raise AdmissionError(
                f"tenant limit reached ({self.config.max_tenants}); "
                "cancel or drain an existing tenant first"
            )

    def offer(
        self,
        source: QueuedSource,
        events: ColumnChunk,
        *,
        timeout: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Push an ingest batch through the overload policy.

        Returns ``(accepted, shed)``.  Under ``"shed"`` the push never
        blocks: whatever fits is enqueued and the overflow is dropped —
        the caller records the shed count per tenant.  Under ``"block"``
        the push blocks up to ``timeout``
        (defaulting to the configured ``block_timeout``); events that still
        do not fit when the deadline expires are reported as *unaccepted*,
        not shed — the producer owns them and may retry.
        """
        if self.config.overload == "shed":
            accepted = source.push(events, timeout=0.0)
            return accepted, len(events) - accepted
        if timeout is None:
            timeout = self.config.block_timeout
        accepted = source.push(events, timeout=timeout)
        return accepted, 0
