"""`QueryService`: many tenant queries multiplexed over one `TiltEngine`.

The continuous runtime of :mod:`repro.core.runtime.session` advances *one*
query from a caller-owned loop.  A production service instead hosts many
concurrent queries on shared hardware — the setting TiLT's
synchronization-free partition parallelism was built for: ticks of
independent tenants are embarrassingly parallel work items for one shared
worker pool, and the per-program compile cache makes admission of the
N-th session over a popular query free.

The moving parts:

* :class:`TenantSession` — one submitted query: its
  :class:`~repro.core.runtime.session.StreamingSession`, its input queues
  (push mode) or pull sources, its scheduling state and its uncollected
  output deltas;
* a :class:`~repro.serve.scheduler.TickScheduler` — decides which ready
  tenant advances next (round-robin or deficit fair-share, with
  latency-deadline escalation);
* an :class:`~repro.serve.admission.AdmissionController` — bounds tenant
  count and per-tenant queued events, shedding or blocking on overload;
* fleet metrics — per-tenant :class:`SessionMetrics` aggregated into a
  :class:`~repro.metrics.fleet.FleetSnapshot` (total ev/s, merged latency
  percentiles, queue depths, scheduler fairness index).

Because every tenant runs a real ``StreamingSession``, the service inherits
its correctness contract unchanged: each tenant's concatenated output is
byte-identical to running that query alone — under *any* scheduler policy
and any interleaving (asserted in ``tests/test_service.py``).

Threading model: producers may call ``submit`` / ``ingest`` / ``cancel`` /
``results`` / ``stats`` from any thread; ticks are executed by whoever
calls :meth:`QueryService.step` (or the background thread started with
:meth:`QueryService.start`) — one scheduling thread at a time.  Blocking
ingest (overload policy ``"block"``) never holds the service lock, so
backpressured producers cannot deadlock the scheduler.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.runtime.engine import QueryResult, TiltEngine
from ..core.runtime.session import StreamingSession, TickResult
from ..core.runtime.stream import ColumnChunk, Events
from ..datagen.sources import QueuedSource
from ..errors import ExecutionError, QueryBuildError
from ..metrics.fleet import FleetSnapshot, aggregate_fleet
from ..metrics.streaming import LatencyDistribution
from ..obs.export import to_chrome_trace
from ..obs.recorder import FlightRecorder
from ..obs.slo import SLOMonitor, SLOSpec, SLOStatus
from .admission import AdmissionConfig, AdmissionController
from .scheduler import SchedulerPolicy, TickScheduler, make_policy

if TYPE_CHECKING:  # http.server is imported only by a service that serves
    from ..obs.http import TelemetryServer

__all__ = ["TenantSession", "ServiceStats", "QueryService"]

#: tenant-isolation failures are reported here (as well as being retained on
#: the failed tenant) — a service embedder points a handler at this logger
_LOG = logging.getLogger("repro.serve")
#: the ``service`` label of a service's per-service gauges
_SERVICE_IDS = itertools.count()

#: tenant lifecycle states
ACTIVE = "active"
FINISHED = "finished"
CANCELLED = "cancelled"
FAILED = "failed"


class TenantSession:
    """One tenant of a :class:`QueryService`.

    Created by :meth:`QueryService.submit`; not instantiated directly.
    Carries the tenant's streaming session plus everything the service
    layers on top: push-mode input queues, scheduling state (admission
    ``index``, fair-share ``weight`` / ``vtime`` / ``cost_ewma``, optional
    staleness ``deadline_seconds``), pending output deltas, and wall-clock
    emit-gap tracking (the scheduling latency a tenant actually observes,
    as opposed to the compute latency of its ticks).
    """

    def __init__(
        self,
        name: str,
        index: int,
        session: StreamingSession,
        *,
        weight: float,
        deadline_seconds: Optional[float],
        sources: List[object],
        push_sources: Dict[str, QueuedSource],
        now: float,
    ):
        self.name = name
        self.index = index
        self.session = session
        self.weight = float(weight)
        self.deadline_seconds = deadline_seconds
        self.sources = sources
        self.push_sources = push_sources
        self.state = ACTIVE
        self.error: Optional[BaseException] = None
        #: formatted traceback of the failure that moved the tenant to
        #: FAILED — retained because the exception's own traceback chain is
        #: unreachable once the scheduling loop moves on
        self.traceback: Optional[str] = None
        #: scheduling state, maintained by the policy
        self.vtime = 0.0
        self.cost_ewma: Optional[float] = None
        #: static per-tick cost estimate (sum of the compiled kernels'
        #: analyzer cost estimates); lets the fair-share policy seed
        #: ``cost_ewma`` before the first tick is ever measured
        self.static_cost = 0.0
        self.shed_events = 0
        self.last_emit_wall = now
        #: wall time this tenant last received a tick (emitting or not);
        #: deadline escalation measures from max(last emit, last service)
        self.last_service_wall = now
        #: wall-clock gap between consecutive emitted ticks — the staleness
        #: a tenant observes under contention (what fair-share improves)
        self.emit_gaps = LatencyDistribution(capacity=512)
        self._pending: List[TickResult] = []
        #: lazily built kernel/source evidence for flight-recorder pins
        self._flight_context: Optional[Dict[str, object]] = None
        #: False once a tick made no progress and no new input has arrived
        #: since — the scheduler skips the tenant until it is poked.  The
        #: sequence number detects input arriving *during* a tick, so a
        #: concurrent mark cannot be overwritten by the tick's own idle
        #: verdict (lost-wakeup protection).
        self._dirty = True
        self._dirty_seq = 0

    # -- scheduling interface ------------------------------------------- #
    @property
    def ready(self) -> bool:
        """Whether a tick (or the closing flush) would make progress."""
        if self.state != ACTIVE:
            return False
        if self.session.exhausted:
            return True  # only the closing flush remains
        if self._dirty:
            return True
        return self.queue_depth > 0

    @property
    def queue_depth(self) -> int:
        """Events queued for this tenant and not yet ingested.

        Covers any source exposing a ``depth`` (the service-created push
        queues, but also a ``QueuedSource`` passed in as a pull source), so
        externally fed queues keep the tenant ready.
        """
        return sum(getattr(src, "depth", 0) for src in self.sources)

    @property
    def is_push(self) -> bool:
        return bool(self.push_sources)

    def mark_dirty(self) -> None:
        self._dirty = True
        self._dirty_seq += 1

    def close_inputs(self) -> None:
        """Close this tenant's push queues, waking any blocked producer.

        Called whenever the tenant leaves the ready set for good (cancel,
        failure, service shutdown): a producer blocked in a backpressured
        ``ingest`` would otherwise wait forever on a queue nobody will
        drain — instead it gets ``QueueClosedError``.
        """
        for src in self.push_sources.values():
            src.close()

    # -- introspection --------------------------------------------------- #
    def describe(self) -> Dict[str, object]:
        """JSON-friendly per-tenant stats row, including the session's
        resolved execution plan."""
        m = self.session.metrics
        tick_p50, tick_p99 = m.latency.quantiles([50.0, 99.0])
        gap_p50, gap_p99 = self.emit_gaps.quantiles([50.0, 99.0])
        return {
            "state": self.state,
            "weight": self.weight,
            "ticks_scheduled": float(m.ticks),
            "input_events": float(m.input_events),
            "events_per_second": m.throughput,
            "tick_latency_p50": tick_p50,
            "tick_latency_p99": tick_p99,
            "emit_gap_p50": gap_p50,
            "emit_gap_p99": gap_p99,
            "queue_depth": float(self.queue_depth),
            "shed_events": float(self.shed_events),
            "cost_ewma": float(self.cost_ewma or 0.0),
            "static_cost": float(self.static_cost),
            "watermark": self.session.watermark,
            "plan": self.session.plan,
            "error": repr(self.error) if self.error is not None else "",
            "traceback": self.traceback or "",
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TenantSession({self.name!r}, {self.state})"


@dataclass
class ServiceStats:
    """Point-in-time snapshot of a service: scheduler + admission + fleet."""

    policy: str
    ticks_dispatched: int
    escalations: int
    #: escalations taken on SLO breach state alone (subset of ``escalations``)
    slo_escalations: int
    submitted: int
    rejected_tenants: int
    fleet: FleetSnapshot
    tenants: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: flight-recorder snapshot (recent/pinned slow-tick evidence); ``None``
    #: when the service's engine runs with tracing disabled
    flight: Optional[Dict[str, object]] = None
    #: SLO evaluation (verdict, per-tenant burn rates, recent breaches);
    #: ``None`` when the service runs without an SLO spec
    slo: Optional[SLOStatus] = None

    def summary(self) -> Dict[str, object]:
        """Flat JSON-friendly rendering (fleet keys inlined)."""
        out: Dict[str, object] = {
            "policy": self.policy,
            "ticks_dispatched": self.ticks_dispatched,
            "escalations": self.escalations,
            "submitted": self.submitted,
            "rejected_tenants": self.rejected_tenants,
        }
        if self.slo is not None:
            out["slo_verdict"] = self.slo.verdict
            out["slo_escalations"] = self.slo_escalations
        out.update(self.fleet.summary())
        return out

    def format(self) -> str:
        """One-line human-readable rendering for live logs."""
        verdict = f" [{self.slo.verdict}]" if self.slo is not None else ""
        return (
            f"[{self.policy}]{verdict} {self.ticks_dispatched} ticks "
            f"({self.escalations} escalated) | " + self.fleet.format()
        )


class QueryService:
    """Host many tenant queries on one shared :class:`TiltEngine`.

    Parameters
    ----------
    engine:
        The engine to serve on.  When omitted, the service creates (and on
        ``close`` disposes of) its own ``TiltEngine(workers=workers)``.
    workers:
        Worker count for the internally created engine (ignored when
        ``engine`` is given).  Every other execution setting — backend,
        codegen tier, tracing — belongs to the engine: build a
        :class:`TiltEngine` and pass it in.
    policy:
        Scheduler policy: ``"fair"`` (default), ``"round_robin"``, or a
        :class:`~repro.serve.scheduler.SchedulerPolicy` instance.
    max_tenants / max_pending_events / overload / block_timeout:
        Admission control, see :class:`~repro.serve.admission.AdmissionConfig`.
    default_deadline:
        Staleness deadline (seconds) applied to tenants submitted without
        an explicit one; ``None`` disables escalation by default.
    slow_tick_threshold:
        Ticks whose root span exceeds this many seconds are pinned by the
        flight recorder (full span tree + kernel context surfaced through
        :meth:`stats`).  The string ``"adaptive"`` pins relative outliers
        (ticks past a multiple of the tenant's rolling p99) instead of a
        fixed cutoff.  Only meaningful when the engine traces
        (``TiltEngine(trace=True)``); ``None`` keeps
        the recent-tick rings without pinning.
    flight_capacity:
        Recent tick span trees the flight recorder retains per tenant.
    slo:
        Service-level objectives for the fleet: ``True`` for the default
        :class:`~repro.obs.slo.SLOSpec`, a mapping of its fields, or a
        spec instance.  Enables :meth:`stats`\\ ``.slo``, the breach-driven
        scheduler escalation path, and the ``/healthz``/``/slo`` routes of
        the telemetry endpoint.  ``None`` (default) disables SLO tracking.
    slo_refresh_interval:
        How often (seconds) the scheduling loop re-evaluates SLO breach
        state when picking urgent tenants; evaluation walks every
        objective window, so it is rate-limited off the hot path.
    telemetry_port:
        When not ``None``, start a :class:`~repro.obs.http.TelemetryServer`
        on this port (0 picks an ephemeral one — read it back from
        ``service.telemetry.port``) serving ``/metrics``, ``/healthz``,
        ``/slo``, ``/tenants`` and ``/trace`` for this service.
    telemetry_host:
        Bind address for the telemetry endpoint (loopback by default).
    """

    def __init__(
        self,
        engine: Optional[TiltEngine] = None,
        *,
        workers: int = 4,
        policy: Union[str, SchedulerPolicy] = "fair",
        max_tenants: int = 64,
        max_pending_events: int = 65_536,
        overload: str = "shed",
        block_timeout: Optional[float] = None,
        default_deadline: Optional[float] = None,
        clock=time.monotonic,
        slow_tick_threshold: "Optional[Union[float, str]]" = None,
        flight_capacity: int = 16,
        slo=None,
        slo_refresh_interval: float = 0.25,
        telemetry_port: Optional[int] = None,
        telemetry_host: str = "127.0.0.1",
    ):
        self._engine = engine if engine is not None else TiltEngine(workers=workers)
        self._owns_engine = engine is None
        self._tracer = self._engine.tracer
        self._recorder: Optional[FlightRecorder] = (
            FlightRecorder(
                capacity_per_tenant=flight_capacity,
                slow_tick_threshold=slow_tick_threshold,
            )
            if self._tracer.enabled
            else None
        )
        registry = self._engine.registry
        self._m_shed = registry.counter(
            "repro_shed_events_total", "Events dropped by admission overload shedding"
        )
        self._m_rejected = registry.counter(
            "repro_rejected_tenants_total", "Tenant submissions refused by admission"
        )
        self._m_failures = registry.counter(
            "repro_tenant_failures_total", "Tenants moved to FAILED by the isolation boundary"
        )
        self._g_active = registry.gauge(
            "repro_active_tenants", "Tenants currently in the ACTIVE state"
        )
        # summed over the services on the engine: each adds the change in
        # its own depth, and takes its share back at close()
        self._g_queue = registry.gauge(
            "repro_queue_depth", "Events queued awaiting ingestion, over every service"
        )
        self._queue_reported = 0.0
        self._service_label = str(next(_SERVICE_IDS))
        self._g_fairness = registry.gauge(
            "repro_fairness_index",
            "Jain fairness index over weighted tenant busy time",
            service=self._service_label,
        )
        # counted by step() at the select that takes the escalation
        self._c_escalations = registry.counter(
            "repro_scheduler_escalations_total",
            "Deadline/SLO escalations taken by the scheduler",
        )
        self._c_slo_escalations = registry.counter(
            "repro_slo_escalations_total",
            "Escalations taken on SLO breach state alone (no overdue deadline)",
        )
        self._h_emit_gap = registry.histogram(
            "repro_emit_gap_seconds",
            "Wall-clock gap between consecutive emitted ticks per tenant",
        )
        if isinstance(policy, str):
            policy = make_policy(policy)
        self._scheduler = TickScheduler(policy)
        self._admission = AdmissionController(
            AdmissionConfig(
                max_tenants=max_tenants,
                max_pending_events=max_pending_events,
                overload=overload,
                block_timeout=block_timeout,
            )
        )
        self._default_deadline = default_deadline
        self._clock = clock
        self._slo: Optional[SLOMonitor] = (
            SLOMonitor(SLOSpec.resolve(slo), clock=clock, registry=registry)
            if slo is not None and slo is not False
            else None
        )
        if slo_refresh_interval < 0:
            raise QueryBuildError("slo_refresh_interval must be >= 0")
        self._slo_refresh = float(slo_refresh_interval)
        self._urgent: frozenset = frozenset()
        self._urgent_at: Optional[float] = None
        self._tenants: Dict[str, TenantSession] = {}
        self._reserved: set = set()  # names admitted but still compiling
        self._counter = 0
        self._submitted = 0
        self._closed = False
        self._lock = threading.RLock()
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        # the telemetry endpoint is wired from plain closures so repro.obs
        # never imports the serving layer; started last so a bind failure
        # cannot leave a half-constructed service holding a socket
        self._telemetry: Optional[TelemetryServer] = None
        if telemetry_port is not None:
            from ..obs.http import TelemetryServer

            monitor = self._slo

            def scrape() -> str:
                with self._lock:
                    tenants = list(self._tenants.items())
                self._fleet(tenants)
                return registry.to_prometheus()

            self._telemetry = TelemetryServer(
                metrics=scrape,
                health=monitor.healthz if monitor is not None else None,
                slo=(
                    (lambda: monitor.evaluate().to_dict())
                    if monitor is not None
                    else None
                ),
                tenants=self._tenants_doc,
                trace=self._trace_doc if self._tracer.enabled else None,
                analyze=self._analysis_doc,
                host=telemetry_host,
                port=telemetry_port,
            ).start()

    # ------------------------------------------------------------------ #
    # tenant lifecycle
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> TiltEngine:
        return self._engine

    @property
    def recorder(self) -> Optional[FlightRecorder]:
        """The flight recorder (``None`` when the engine is not tracing)."""
        return self._recorder

    @property
    def policy_name(self) -> str:
        return self._scheduler.policy.name

    @property
    def slo_monitor(self) -> Optional[SLOMonitor]:
        """The SLO monitor (``None`` when the service has no SLO spec)."""
        return self._slo

    @property
    def telemetry(self) -> Optional[TelemetryServer]:
        """The HTTP telemetry endpoint (``None`` unless ``telemetry_port``)."""
        return self._telemetry

    def _tenants_doc(self) -> Dict[str, object]:
        """Per-tenant stats rows for the ``/tenants`` route."""
        with self._lock:
            tenants = list(self._tenants.items())
        return {name: tenant.describe() for name, tenant in tenants}

    def _trace_doc(self, tenant: Optional[str]) -> Dict[str, object]:
        """Chrome trace document for the ``/trace`` route."""
        if self._recorder is not None:
            return self._recorder.to_chrome_trace(tenant)
        return to_chrome_trace([])

    def _analysis_doc(self, tenant: Optional[str]) -> Dict[str, object]:
        """Static-analysis reports for the ``/analyze`` route.

        Without ``?tenant=`` returns every tenant's report summary; with it,
        that tenant's full finding list (or an ``error`` entry for an
        unknown tenant, or one submitted as a pre-compiled query that no
        longer carries its report).
        """
        with self._lock:
            tenants = list(self._tenants.items())
        if tenant is not None:
            match = dict(tenants).get(tenant)
            if match is None:
                return {"error": f"unknown tenant {tenant!r}"}
            report = match.session.compiled.report
            if report is None:
                return {"error": f"tenant {tenant!r} has no analysis report"}
            return report.to_dict()
        doc: Dict[str, object] = {}
        for name, t in tenants:
            report = t.session.compiled.report
            doc[name] = report.summary() if report is not None else None
        return doc

    def tenants(self) -> List[str]:
        """Names of all known tenants (any state), in admission order."""
        with self._lock:
            return list(self._tenants)

    def active_tenants(self) -> List[str]:
        with self._lock:
            return [n for n, t in self._tenants.items() if t.state == ACTIVE]

    def submit(
        self,
        query,
        *,
        name: Optional[str] = None,
        sources: Optional[Sequence[object]] = None,
        weight: float = 1.0,
        deadline: Optional[float] = None,
        retain_output: bool = True,
        max_events_per_tick: Optional[int] = None,
    ) -> str:
        """Admit a tenant query; returns its tenant name.

        ``query`` is a :class:`TiltProgram`, a pre-compiled
        :class:`CompiledQuery`, or a frontend query DAG (anything with
        ``to_program``) — compilation goes through the engine's shared
        cache, so re-submitting a popular program object is free.

        With ``sources`` the tenant is *pull-fed* (the scheduler polls the
        given :class:`EventSource` objects, e.g. replay or generator
        sources).  Without, the tenant is *push-fed*: the service creates
        one bounded ingest queue per top-level input stream and events
        arrive via :meth:`ingest`.

        ``weight`` buys a proportionally larger share under the fair-share
        policy; ``deadline`` (seconds of wall-clock output staleness)
        escalates the tenant past the policy when overdue.

        The tenant's session resolves its own tick path; ``describe()`` /
        ``/tenants`` report the resolved plan.
        """
        if hasattr(query, "to_program"):
            query = query.to_program()
        if weight <= 0:
            raise QueryBuildError("tenant weight must be > 0")
        with self._lock:
            if self._closed:
                raise ExecutionError("service is closed")
            # reserved names count as live so concurrent submits cannot
            # overshoot the tenant limit while one of them is compiling
            try:
                self._admission.admit_tenant(
                    len(self.active_tenants()) + len(self._reserved)
                )
            except Exception:
                self._m_rejected.inc()
                raise
            self._counter += 1
            index = self._counter
            tenant_name = name if name is not None else f"tenant-{index}"
            if tenant_name in self._tenants or tenant_name in self._reserved:
                raise QueryBuildError(f"tenant {tenant_name!r} already exists")
            self._reserved.add(tenant_name)
        try:
            push_sources: Dict[str, QueuedSource] = {}
            if sources is None:
                program = query.program if hasattr(query, "program") else query
                top_level = []
                for input_name in program.inputs:
                    stream = input_name.split(".", 1)[0]
                    if stream not in top_level:
                        top_level.append(stream)
                push_sources = {
                    stream: QueuedSource(
                        stream, capacity=self._admission.config.max_pending_events
                    )
                    for stream in top_level
                }
                sources = list(push_sources.values())
            # compilation (through the engine's own lock and cache) happens
            # outside the service lock: a slow compile must not stall
            # scheduling, ingest or stats for the rest of the fleet
            session = self._engine.open_session(
                query,
                list(sources),
                retain_output=retain_output,
                max_events_per_tick=max_events_per_tick,
                trace_attrs={"tenant": tenant_name},
            )
        except BaseException:
            with self._lock:
                self._reserved.discard(tenant_name)
            raise
        with self._lock:
            self._reserved.discard(tenant_name)
            if self._closed:
                session.abort()
                raise ExecutionError("service is closed")
            tenant = TenantSession(
                tenant_name,
                index,
                session,
                weight=weight,
                deadline_seconds=deadline if deadline is not None else self._default_deadline,
                sources=list(sources),
                push_sources=push_sources,
                now=self._clock(),
            )
            # analyzer cost estimates (window depth × op count) seed the
            # fair-share policy's cost EWMA: admit() converts them to
            # seconds via the fleet's observed seconds-per-cost-unit
            tenant.static_cost = float(
                sum(k.spec.static_cost for k in session.compiled.kernels)
            )
            self._tenants[tenant_name] = tenant
            self._scheduler.admit(tenant)
            self._g_active.inc()
            self._submitted += 1
            if self._slo is not None:
                self._slo.watch(tenant_name)
        self._wake.set()
        return tenant_name

    def _tenant(self, name: str) -> TenantSession:
        try:
            return self._tenants[name]
        except KeyError:
            raise QueryBuildError(f"unknown tenant {name!r}") from None

    # ------------------------------------------------------------------ #
    # push-side ingest
    # ------------------------------------------------------------------ #
    def _push_source(self, name: str, stream: Optional[str]) -> QueuedSource:
        with self._lock:
            tenant = self._tenant(name)
            if not tenant.is_push:
                raise QueryBuildError(
                    f"tenant {name!r} is pull-fed; the service polls its sources"
                )
            if stream is None:
                if len(tenant.push_sources) != 1:
                    raise QueryBuildError(
                        f"tenant {name!r} has inputs {sorted(tenant.push_sources)}; "
                        "pass stream=<name>"
                    )
                return next(iter(tenant.push_sources.values()))
            try:
                return tenant.push_sources[stream]
            except KeyError:
                raise QueryBuildError(
                    f"tenant {name!r} has no input stream {stream!r} "
                    f"(inputs: {sorted(tenant.push_sources)})"
                ) from None

    def ingest(
        self,
        name: str,
        events: Events,
        *,
        stream: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> int:
        """Push events to a push-fed tenant; returns the number accepted.

        ``events`` is a :class:`~repro.core.runtime.stream.ColumnChunk`
        (arrays, enqueued as they are) or a sequence of ``Event`` objects,
        converted to columns once, here, in the producer's thread.

        Overload behaviour follows the service's admission policy: under
        ``"shed"`` the overflow is dropped and counted; under ``"block"``
        this call blocks (without holding any service lock) until the
        scheduler drains the tenant's queue or the timeout expires.
        """
        events = ColumnChunk.coerce(events)
        source = self._push_source(name, stream)
        # blocking push must happen outside the lock: the scheduler needs
        # the lock to select the tick that will drain this very queue
        accepted, shed = self._admission.offer(source, events, timeout=timeout)
        if shed:
            self._m_shed.inc(shed)
        if self._slo is not None:
            self._slo.record_ingest(name, accepted=accepted, shed=shed)
        with self._lock:
            tenant = self._tenant(name)
            tenant.shed_events += shed
            if accepted:
                tenant.mark_dirty()
        if accepted:
            self._wake.set()
        return accepted

    def advance_input(self, name: str, t: float, *, stream: Optional[str] = None) -> None:
        """Advance a push-fed input's completeness watermark past a lull
        (promise that no future event will start before ``t``)."""
        source = self._push_source(name, stream)
        source.advance_to(t)
        with self._lock:
            self._tenant(name).mark_dirty()
        self._wake.set()

    def close_input(self, name: str, *, stream: Optional[str] = None) -> None:
        """Declare a push-fed tenant's input(s) complete.

        Once every input is closed and drained the scheduler runs the
        tenant's final flush and marks it finished.  With ``stream=None``
        all of the tenant's inputs are closed.
        """
        with self._lock:
            tenant = self._tenant(name)
            if not tenant.is_push:
                raise QueryBuildError(f"tenant {name!r} is pull-fed")
            targets = (
                list(tenant.push_sources.values())
                if stream is None
                else [self._push_source(name, stream)]
            )
        for source in targets:
            source.close()
        with self._lock:
            tenant.mark_dirty()
        self._wake.set()

    def poke(self, name: str) -> None:
        """Mark an idled tenant ready again.

        A tenant whose tick made no progress is parked until new input is
        observable (service-side ingest, or a queue-backed source gaining
        depth).  A *custom* pull source with no ``depth`` signal cannot be
        observed — its producer calls ``poke`` after making data available.
        """
        with self._lock:
            self._tenant(name).mark_dirty()
        self._wake.set()

    # ------------------------------------------------------------------ #
    # scheduling loop
    # ------------------------------------------------------------------ #
    def _retire(self, tenant: TenantSession, state: str) -> None:
        """Move an ACTIVE tenant to ``state`` for good (caller holds the lock):
        end its session unflushed, release blocked producers, drop it from
        the scheduler and the active gauge.  A *failed* tenant stays
        watched, so its error-objective breach persists until forgotten."""
        tenant.state = state
        tenant.session.abort()
        tenant.close_inputs()
        self._scheduler.remove(tenant)
        self._g_active.dec()
        if self._slo is not None and state != FAILED:
            self._slo.forget(tenant.name)

    def _refresh_urgent(self, now: float) -> frozenset:
        """The SLO-urgent tenant set, re-evaluated at most every
        ``slo_refresh_interval`` seconds (evaluation walks every objective
        window of every tenant — too heavy for every single select)."""
        if self._urgent_at is None or now - self._urgent_at >= self._slo_refresh:
            self._urgent = self._slo.urgent_tenants(now)
            self._urgent_at = now
        return self._urgent

    def step(self) -> Optional[TickResult]:
        """Run one scheduling decision: pick a ready tenant, advance it.

        Returns the tick's :class:`TickResult`, or ``None`` when no tenant
        is ready (the service is idle).  Call from a single scheduling
        thread — or use :meth:`start` for a managed background one.
        """
        tracer = self._tracer
        while True:
            step_span = None
            with self._lock:
                if self._closed:
                    raise ExecutionError("service is closed")
                ready = [t for t in self._tenants.values() if t.ready]
                if not ready:
                    return None
                # the step span is opened/closed by hand: it must start
                # under the lock (so scheduler.select nests beneath it) but
                # outlive the lock to cover the tick itself
                step_span = tracer.span("service.step")
                step_span.__enter__()
                try:
                    now = self._clock()
                    urgent = (
                        self._refresh_urgent(now) if self._slo is not None else ()
                    )
                    scheduler = self._scheduler
                    escalations = scheduler.escalations
                    slo_escalations = scheduler.slo_escalations
                    with tracer.span("scheduler.select", ready=len(ready)) as sel:
                        tenant = scheduler.select(ready, now, urgent=urgent)
                        sel.set(tenant=tenant.name)
                    if scheduler.escalations != escalations:
                        self._c_escalations.inc()
                    if scheduler.slo_escalations != slo_escalations:
                        self._c_slo_escalations.inc()
                    dirty_seq = tenant._dirty_seq
                except BaseException:
                    step_span.__exit__(None, None, None)
                    raise
            try:
                result = self._advance(tenant, dirty_seq)
                step_span.set(tenant=tenant.name, advanced=result is not None)
            finally:
                step_span.__exit__(None, None, None)
            if self._recorder is not None:
                self._record_flight(tenant)
            if result is not None:
                return result
            # the selected tenant failed (or was cancelled mid-flight) and
            # left the ready set — idle only means *no one* is ready

    def _record_flight(self, tenant: TenantSession) -> None:
        """Drain the tracer and fold the tick's spans into the recorder.

        Safe because one scheduling thread runs ticks: everything drained
        here belongs to the step that just ran (plus, at worst, compile
        spans from a concurrent submit — the recorder roots the tick tree
        at the ``session.tick`` span, so those ride along harmlessly).
        """
        records = self._tracer.drain()
        if not records:
            return
        # kernel/source context is computed once per tenant (digesting a
        # spec pickles it) and shared by every pin of that tenant
        context = tenant._flight_context
        if context is None:
            context = tenant._flight_context = self._flight_context(tenant)
        pinned = self._recorder.record_tick(tenant.name, records, context=context)
        if pinned is not None:
            _LOG.warning(
                "slow tick pinned: tenant=%s tick=%s duration=%.1f ms",
                pinned.tenant,
                pinned.tick_index,
                pinned.duration * 1e3,
            )

    @staticmethod
    def _flight_context(tenant: TenantSession) -> Dict[str, object]:
        """Kernel/source evidence attached to this tenant's pinned ticks.

        ``plan`` is the session's resolved plan: tick path, dispatch backend
        and per-kernel requested/active tier with any fallback reason.
        """
        compiled = tenant.session.compiled
        kernels: Dict[str, str] = {}
        for k in compiled.kernels:
            try:
                kernels[k.name] = k.spec.digest()[:12]
            except Exception:  # unpicklable custom aggregates have no digest
                kernels[k.name] = "unpicklable"
        return {
            "output": compiled.output,
            "plan": tenant.session.plan,
            "kernels": kernels,
            "generated_source": compiled.sources(),
            # static-analysis rollup (finding counts by code) so a pinned
            # slow tick carries the query's bounds proof / cost evidence
            "analysis": (
                compiled.report.summary() if compiled.report is not None else None
            ),
        }

    def _advance(self, tenant: TenantSession, dirty_seq: int) -> Optional[TickResult]:
        session = tenant.session
        try:
            if session.exhausted:
                result = session.close(drain=True)
                finished = True
            else:
                result = session.tick()
                finished = False
        except Exception as exc:  # noqa: BLE001 - tenant isolation boundary
            formatted = traceback_module.format_exc()
            with self._lock:
                if tenant.state == CANCELLED:
                    return None  # cancelled between select and tick
                # tenant isolation: one tenant's failing query (bad data,
                # out-of-order push, a broken custom source) must not take
                # down the scheduling loop or starve the other tenants —
                # mark it failed, keep its emitted output collectable,
                # release its producers, move on.  The failure is *not*
                # silent: the formatted traceback is retained on the tenant
                # (surfaced by describe()/stats()) and reported through the
                # ``repro.serve`` logger.
                tenant.error = exc
                tenant.traceback = formatted
                self._retire(tenant, FAILED)
                self._m_failures.inc()
            if self._slo is not None:
                self._slo.record_failure(tenant.name, error=repr(exc))
            _LOG.error(
                "tenant %r failed during tick %d and was isolated: %r",
                tenant.name,
                session.metrics.ticks,
                exc,
                exc_info=exc,
                extra={
                    "tenant": tenant.name,
                    "tick": session.metrics.ticks,
                    "tenant_error": repr(exc),
                },
            )
            return None
        now = self._clock()
        with self._lock:
            tenant.last_service_wall = now
            self._scheduler.record(tenant, result.elapsed_seconds)
            gap = now - tenant.last_emit_wall if result.emitted else None
            # a tenant cancelled mid-tick is already retired and unwatched
            active = tenant.state == ACTIVE
            if active and self._slo is not None:
                self._slo.record_tick(
                    tenant.name,
                    seconds=result.elapsed_seconds,
                    emitted=result.emitted,
                    emit_gap=gap,
                    now=now,
                )
            if finished:
                if active:
                    self._retire(tenant, FINISHED)
            elif not result.events_ingested and not result.emitted:
                if session.exhausted:
                    tenant.mark_dirty()  # flush on the next turn
                elif tenant._dirty_seq == dirty_seq:
                    # idle until new input arrives; skipped when input was
                    # marked mid-tick (the verdict would be stale)
                    tenant._dirty = False
            if result.emitted:
                tenant.emit_gaps.record(gap)
                self._h_emit_gap.observe(gap)
                tenant.last_emit_wall = now
                tenant._pending.append(result)
        return result

    def run_until_idle(self, max_ticks: Optional[int] = None) -> int:
        """Step until no tenant is ready; returns the number of ticks run.

        A tenant over an unbounded pull source is always ready — bound the
        loop with ``max_ticks`` (or :meth:`cancel` the tenant) in that case.
        """
        ticks = 0
        while max_ticks is None or ticks < max_ticks:
            if self.step() is None:
                break
            ticks += 1
        return ticks

    def start(self, *, idle_wait: float = 0.005) -> None:
        """Run the scheduling loop on a background thread until ``stop``."""
        with self._lock:
            if self._closed:
                raise ExecutionError("service is closed")
            if self._thread is not None:
                raise ExecutionError("service is already running")
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._serve_loop, args=(idle_wait,), daemon=True
            )
            self._thread.start()

    def _serve_loop(self, idle_wait: float) -> None:
        while not self._stop.is_set():
            if self.step() is None:
                self._wake.wait(idle_wait)
                self._wake.clear()

    def stop(self) -> None:
        """Halt the background scheduling loop (tenants stay live)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        self._wake.set()
        thread.join()
        self._thread = None

    # ------------------------------------------------------------------ #
    # results and cancellation
    # ------------------------------------------------------------------ #
    def results(self, name: str) -> List[TickResult]:
        """Drain the tenant's emitted-but-uncollected output deltas."""
        with self._lock:
            tenant = self._tenant(name)
            pending, tenant._pending = tenant._pending, []
            return pending

    def result(self, name: str) -> QueryResult:
        """The tenant's cumulative output so far (needs ``retain_output``)."""
        with self._lock:
            tenant = self._tenant(name)
        return tenant.session.result()

    def cancel(self, name: str) -> bool:
        """Abort a tenant: no further ticks, no final flush.

        Already-emitted deltas remain collectable via :meth:`results` /
        :meth:`result`.  Returns False when the tenant had already finished
        or was already cancelled.
        """
        with self._lock:
            tenant = self._tenant(name)
            if tenant.state != ACTIVE:
                return False
            self._retire(tenant, CANCELLED)
        self._wake.set()
        return True

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _fleet(self, tenants: List[Tuple[str, TenantSession]]) -> FleetSnapshot:
        """Aggregate ``(name, tenant)`` pairs and refresh the queue-depth and
        fairness gauges from the result: no writer keeps those two current,
        so :meth:`stats` and every telemetry scrape go through here.  The
        queue depth is this service's share of an engine-wide sum, the
        fairness index a series of its own (label ``service``).

        The heavy part — copying and merging every tenant's latency sample
        window — runs outside the service lock (the per-metric locks make
        the reads safe), so monitoring never stalls the scheduling loop.
        """
        fleet = aggregate_fleet(
            {n: t.session.metrics for n, t in tenants},
            active=[n for n, t in tenants if t.state == ACTIVE],
            weights={n: t.weight for n, t in tenants},
            queue_depths={n: t.queue_depth for n, t in tenants},
            shed_events={n: t.shed_events for n, t in tenants},
        )
        with self._lock:
            if not self._closed:
                self._g_queue.inc(fleet.queue_depth - self._queue_reported)
                self._queue_reported = fleet.queue_depth
        self._g_fairness.set(fleet.fairness)
        return fleet

    def stats(self) -> ServiceStats:
        """Fleet snapshot: scheduler, admission, and aggregated metrics."""
        with self._lock:
            tenants = list(self._tenants.items())
            policy = self._scheduler.policy.name
            ticks_dispatched = self._scheduler.ticks_dispatched
            escalations = self._scheduler.escalations
            slo_escalations = self._scheduler.slo_escalations
            submitted = self._submitted
            rejected = self._admission.rejected_tenants
        fleet = self._fleet(tenants)
        return ServiceStats(
            policy=policy,
            ticks_dispatched=ticks_dispatched,
            escalations=escalations,
            slo_escalations=slo_escalations,
            submitted=submitted,
            rejected_tenants=rejected,
            fleet=fleet,
            tenants={n: t.describe() for n, t in tenants},
            flight=self._recorder.summary() if self._recorder is not None else None,
            slo=self._slo.evaluate() if self._slo is not None else None,
        )

    # ------------------------------------------------------------------ #
    # teardown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop scheduling, abort live tenants, release an owned engine.

        An engine passed in by the caller is left open (they own it);
        an internally created one is closed.
        """
        self.stop()
        if self._telemetry is not None:
            self._telemetry.close()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for tenant in self._tenants.values():
                if tenant.state == ACTIVE:
                    self._retire(tenant, CANCELLED)
            self._g_queue.dec(self._queue_reported)
            self._queue_reported = 0.0
            self._engine.registry.remove("repro_fairness_index", service=self._service_label)
        if self._owns_engine:
            self._engine.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            n = len(self._tenants)
            active = len([t for t in self._tenants.values() if t.state == ACTIVE])
        state = "closed" if self._closed else f"{active}/{n} tenants active"
        return f"QueryService(policy={self.policy_name!r}, {state})"
