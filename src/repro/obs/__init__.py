"""``repro.obs`` — cross-cutting observability: tracing, metrics, exporters.

The execution stack (engine → session → scheduler → executor → kernel) is
instrumented against the interfaces in this package:

* :mod:`repro.obs.trace` — low-overhead span tracing with per-thread
  buffers, a strict no-op disabled path (:data:`NULL_TRACER`) and
  cross-process record adoption; enable with ``TiltEngine(trace=True)``;
* :mod:`repro.obs.registry` — the unified :class:`MetricsRegistry`
  (counters / gauges / histograms) every layer publishes into, with
  Prometheus text (:meth:`MetricsRegistry.to_prometheus`) and JSON
  (:meth:`MetricsRegistry.to_json`) exporters;
* :mod:`repro.obs.export` — Chrome trace-event JSON for spans
  (:func:`to_chrome_trace`) and span-tree assembly
  (:func:`build_span_trees`);
* :mod:`repro.obs.recorder` — the :class:`FlightRecorder`: a bounded ring
  of recent tick span trees per tenant with a slow-tick pinning trigger
  (fixed wall-clock or adaptive rolling-p99), surfaced through
  ``QueryService.stats()``;
* :mod:`repro.obs.slo` — declarative per-tenant :class:`SLOSpec` service
  objectives evaluated with multi-window burn-rate logic by an
  :class:`SLOMonitor` (verdicts ``healthy``/``degraded``/``overloaded``);
* :mod:`repro.obs.http` — :class:`TelemetryServer`, a zero-dependency
  stdlib HTTP endpoint serving ``/metrics`` (Prometheus), ``/healthz``
  (SLO verdict), ``/slo``, ``/tenants`` and ``/trace`` from a background
  thread;
* :mod:`repro.obs.logging` — structured JSON log records
  (:class:`JsonFormatter`) correlated with active span ids
  (:class:`SpanCorrelationFilter`).

This package sits below every other layer (stdlib + nothing else), so the
core runtime, codegen, serving and metrics modules can all import it
without cycles.

Quickstart::

    from repro import TiltEngine
    from repro.obs import chrome_trace_json

    engine = TiltEngine(workers=2, trace=True)
    engine.run(program, streams)
    print(engine.registry.to_prometheus())
    open("trace.json", "w").write(chrome_trace_json(engine.tracer.drain()))
"""

from .export import SpanTree, build_span_trees, chrome_trace_json, to_chrome_trace
from .http import TelemetryServer
from .logging import JsonFormatter, SpanCorrelationFilter, configure_json_logging
from .recorder import FlightRecorder, PinnedTick
from .registry import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from .slo import (
    DEGRADED,
    HEALTHY,
    OVERLOADED,
    SLOBreach,
    SLOMonitor,
    SLOSpec,
    SLOStatus,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    make_tracer,
)

__all__ = [
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "make_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "SpanTree",
    "build_span_trees",
    "to_chrome_trace",
    "chrome_trace_json",
    "FlightRecorder",
    "PinnedTick",
    "SLOSpec",
    "SLOMonitor",
    "SLOStatus",
    "SLOBreach",
    "HEALTHY",
    "DEGRADED",
    "OVERLOADED",
    "TelemetryServer",
    "JsonFormatter",
    "SpanCorrelationFilter",
    "configure_json_logging",
]
