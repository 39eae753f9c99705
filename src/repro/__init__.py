"""repro — a Python reproduction of TiLT (ASPLOS 2023).

TiLT is a time-centric intermediate representation, optimizer and parallel
runtime for stream queries.  This package provides:

* ``repro.core`` — the TiLT IR, the event-centric frontend, boundary
  resolution, the optimizer (operator fusion across pipeline breakers), the
  code-generating and interpreted backends, and the partition-parallel
  engine;
* ``repro.windowing`` — the Init/Acc/Result/Deacc aggregate template and
  the range indexes windows are evaluated with;
* ``repro.spe`` — the event-centric baseline engine, modelled after Trill;
* ``repro.datagen`` — synthetic data generators standing in for the paper's
  datasets;
* ``repro.apps`` — the Yahoo Streaming Benchmark and the eight real-world
  applications of the paper's evaluation;
* ``repro.metrics`` — live session and fleet metrics;
* ``repro.serve`` — the multi-tenant streaming query service: tick
  scheduling (round-robin / deficit fair-share), admission control and
  fleet-level observability over one shared engine;
* ``repro.obs`` — the cross-cutting observability layer: span tracing
  (``TiltEngine(trace=True)``), the unified
  :class:`~repro.obs.MetricsRegistry` with Prometheus/JSON exporters,
  Chrome trace-event export and the per-tenant flight recorder.

Quickstart::

    from repro import TiltEngine, source, PAYLOAD as E, LEFT, RIGHT
    from repro.windowing import MEAN
    from repro.datagen import stock_price_stream

    stock = source("stock")
    trend = (stock.window(10, 1).aggregate(MEAN)
                  .join(stock.window(20, 1).aggregate(MEAN), LEFT - RIGHT)
                  .where(E > 0))
    engine = TiltEngine(workers=4)
    result = engine.run(trend.to_program(), {"stock": stock_price_stream(10_000)})
    print(result.throughput, "events/sec")
"""

from .core import (
    LEFT,
    PAYLOAD,
    RIGHT,
    ColumnChunk,
    CompiledQuery,
    Event,
    EventStream,
    IRBuilder,
    Interpreter,
    QueryResult,
    SSBuf,
    StreamingSession,
    TickResult,
    TiltEngine,
    TiltProgram,
    compile_program,
    optimize,
    resolve_boundaries,
    source,
    when,
)
from .analysis import ProgramReport, analyze_program
from .errors import TiltError
from .obs import MetricsRegistry, Tracer

__version__ = "1.0.0"


def __getattr__(name: str):
    # PEP 562: the serving layer is loaded on first use, so a process that
    # never serves never imports it
    if name in ("QueryService", "ServiceStats"):
        from . import serve

        value = globals()[name] = getattr(serve, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "__version__",
    "TiltError",
    "CompiledQuery",
    "Interpreter",
    "compile_program",
    "source",
    "PAYLOAD",
    "LEFT",
    "RIGHT",
    "IRBuilder",
    "TiltProgram",
    "when",
    "resolve_boundaries",
    "optimize",
    "ColumnChunk",
    "Event",
    "EventStream",
    "SSBuf",
    "QueryResult",
    "TiltEngine",
    "StreamingSession",
    "TickResult",
    "QueryService",
    "ServiceStats",
    "MetricsRegistry",
    "Tracer",
    "ProgramReport",
    "analyze_program",
]
