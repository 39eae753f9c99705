"""The metric registry: every name the benchmark prints, with its unit,
direction, regression bound and — for per-layer metrics — the end-to-end
metric and workload it is expected to move and the workload where the
prediction is *no change*.

``BENCHMARK.json`` at the repository root is :func:`manifest` rendered to
disk (the smoke test asserts they agree); the contract's schema has no room
for the interaction columns, so they live here and in ``README.md``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

#: workload name -> why it exists (one line, <= 200 characters)
WORKLOADS: Dict[str, str] = {
    "oneshot_apps": (
        "8 Table-2 apps through TiltEngine.run on pre-built snapshot buffers: kernels, windowing "
        "and output concat/compact do all the work; control for ingest/session/service changes"
    ),
    "session_ysb": (
        "YSB (0.25 s windows) through one StreamingSession, 5000 structured events per tick: "
        "ingest-bound, kernel and compact near nothing; where columnar ingest must show"
    ),
    "session_deep_window": (
        "trend query with 10k/40k windows through one session, 1000 events per tick: small "
        "writes, ~41k retained snapshots, dense output; plan/slice, kernels and compact dominate"
    ),
    "service_fleet": (
        "QueryService with 8 tenants (trading, rsi, normalize, ysb; each pull-fed and push-fed): "
        "admission, ingest queues and scheduler on top of mixed dense/sparse-output sessions"
    ),
}

#: seconds one driver run measures (``--seconds`` default, BENCHMARK.json)
RUN_SECONDS = 10


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    doc: str


END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "events_per_s", "events/s", "higher", 0.25,
        "input events of the measured public calls / their noise-filtered wall seconds "
        "(oneshot_apps: geometric mean over the 8 apps)",
    ),
    EndToEnd(
        "tick_p50_ms", "ms", "lower", 0.25,
        "median noise-filtered wall time of one productive tick()/step() "
        "(oneshot_apps: of one TiltEngine.run call)",
    ),
    EndToEnd(
        "tick_p99_ms", "ms", "lower", 0.25,
        "99th percentile of the same pool",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "cold time to first result: median of fresh-interpreter probes of import repro + "
        "query build + compile + construction + first non-empty result",
    ),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: "outside" (timed by tiltbench around the layer's public function),
    #: "tracer" (self time of the engine's own spans in the traced pass),
    #: "count" (exact, must repeat run to run) or "computed"
    how: str
    #: what it should move, on which workload
    moves: str
    #: where the prediction is no change
    no_change: str


def _layer(name, unit, better, how, moves, no_change="—") -> PerLayer:
    return PerLayer(name, unit, better, how, moves, no_change)


_APPS = ("trading", "rsi", "normalize", "impute", "resample", "pantom", "vibration", "frauddet")

PER_LAYER: List[PerLayer] = [
    _layer("datagen.poll_frac", "frac", "lower", "outside",
           "nothing: the feed's share of measured tick time; above 0.02 the benchmark measures itself"),
    # compile pipeline, per workload query
    _layer("frontend.build_ms", "ms", "lower", "outside", "setup_s, all workloads"),
    _layer("optimizer.run_ms", "ms", "lower", "outside", "setup_s, all workloads"),
    _layer("optimizer.exprs_in", "count", "lower", "count", "nothing (input size of the optimizer)"),
    _layer("optimizer.exprs_out", "count", "lower", "count",
           "kernel count -> events_per_s on oneshot_apps", "session_ysb"),
    _layer("lineage.resolve_ms", "ms", "lower", "outside", "setup_s, all workloads"),
    _layer("analysis.analyze_ms", "ms", "lower", "outside", "setup_s, all workloads"),
    _layer("codegen.compile_ms.numpy", "ms", "lower", "outside", "setup_s, all workloads"),
    _layer("codegen.compile_ms.native_cold", "ms", "lower", "outside",
           "setup_s once a workload runs the native tier"),
    _layer("codegen.compile_ms.native_warm", "ms", "lower", "outside",
           "setup_s once a workload runs the native tier"),
    _layer("codegen.native_fallbacks", "count", "lower", "count",
           "codegen.kernel_events_per_s.native"),
    # kernels, on fixed probe buffers of the 8 apps
    _layer("codegen.kernel_events_per_s.numpy", "events/s", "higher", "outside",
           "events_per_s on oneshot_apps, at most by 1 - engine.run_overhead_frac", "session_ysb"),
    _layer("codegen.kernel_events_per_s.native", "events/s", "higher", "outside",
           "nothing end to end until a workload selects the native tier"),
    *[
        _layer(f"codegen.kernel_ms.{app}", "ms", "lower", "outside",
               "events_per_s on oneshot_apps (this app's term of the geometric mean)", "session_ysb")
        for app in _APPS
    ],
    _layer("codegen.kernel_bytes_per_event", "bytes/event", "lower", "computed",
           "explains a kernel delta (bandwidth- vs overhead-bound); gates nothing"),
    _layer("codegen.kernel_gb_per_s", "GB/s", "higher", "computed",
           "explains a kernel delta against host.memcpy_gb_per_s; gates nothing"),
    _layer("host.memcpy_gb_per_s", "GB/s", "higher", "outside", "nothing: the host's roofline"),
    _layer("host.hardware_score", "score", "higher", "outside", "nothing: the host's speed"),
    _layer("ssbuf.compact_us_per_snapshot", "us/snapshot", "lower", "outside",
           "events_per_s on oneshot_apps; tick_p50_ms on session_deep_window and service_fleet",
           "session_ysb"),
    _layer("ssbuf.from_stream_events_per_s", "events/s", "higher", "outside",
           "engine.run_from_events_events_per_s", "every end-to-end workload (buffers are pre-built)"),
    _layer("engine.run_overhead_frac", "frac", "lower", "outside",
           "events_per_s on oneshot_apps", "session_ysb"),
    _layer("engine.run_from_events_events_per_s", "events/s", "higher", "outside",
           "one-shot runs given EventStreams; no end-to-end workload"),
    _layer("partition.plan_ms", "ms", "lower", "outside",
           "tick_p50_ms on session_deep_window", "session_ysb"),
    _layer("executor.thread2_speedup", "x", "higher", "outside", "reported, never gated (shared cores)"),
    _layer("executor.process2_speedup", "x", "higher", "outside", "reported, never gated (shared cores)"),
    # where a measured call's time goes: tracer self time / measured call time
    _layer("session.ingest_frac", "frac", "lower", "tracer",
           "events_per_s and tick_p50_ms on session_ysb (a 2x ingest is worth at most "
           "1/(1 - ingest_frac/2))", "oneshot_apps"),
    _layer("session.emit_self_frac", "frac", "lower", "tracer",
           "tick_p50_ms on session_deep_window (materialize + concat/compact)", "oneshot_apps"),
    _layer("session.plan_frac", "frac", "lower", "tracer",
           "tick_p50_ms on session_deep_window (0.56 of a tick)",
           "none is free of it: 0.10 on oneshot_apps, 0.15 on session_ysb"),
    _layer("session.kernel_frac", "frac", "lower", "tracer",
           "events_per_s on oneshot_apps; tick_p50_ms on session_deep_window",
           "session_ysb (0.16 of a tick: at most that)"),
    _layer("session.dispatch_frac", "frac", "lower", "tracer", "tick_p50_ms, all session workloads"),
    _layer("session.prune_frac", "frac", "lower", "tracer", "tick_p50_ms on session_deep_window"),
    _layer("session.other_frac", "frac", "lower", "tracer",
           "session.tick / engine.run self time (bookkeeping; on oneshot_apps the output "
           "concat/compact)"),
    _layer("session.ingest_us_per_event", "us/event", "lower", "tracer",
           "events_per_s on session_ysb", "oneshot_apps"),
    _layer("session.retained_snapshots", "count", "lower", "count", "state size at pass end"),
    _layer("session.state_snapshots", "count", "lower", "count", "incremental state size at pass end"),
    _layer("session.output_snapshots", "count", "higher", "count", "output size of one pass"),
    _layer("session.empty_ticks", "count", "lower", "count", "must be 0: every measured tick emits"),
    _layer("session.tick_ms.recompute", "ms", "lower", "outside",
           "tick_p50_ms on session_deep_window (the path it runs today)"),
    _layer("session.tick_ms.incremental", "ms", "lower", "outside",
           "what flipping or fixing the incremental path is worth on session_deep_window"),
    # serving layer
    _layer("serve.ingest_us_per_event", "us/event", "lower", "outside",
           "events_per_s on service_fleet", "every other workload"),
    _layer("serve.step_overhead_frac", "frac", "lower", "outside",
           "events_per_s and tick_p50_ms on service_fleet", "every other workload"),
    _layer("serve.select_frac", "frac", "lower", "tracer",
           "tick_p50_ms on service_fleet", "every other workload"),
    _layer("serve.idle_step_frac", "frac", "lower", "count", "wasted step() calls on service_fleet"),
    _layer("serve.fairness", "index", "higher", "computed", "nothing end to end (Jain index)"),
    _layer("serve.shed_events", "count", "lower", "count", "failed operations on service_fleet"),
    _layer("serve.queue_depth_max", "count", "lower", "count", "tick_p99_ms on service_fleet"),
    _layer("serve.stats_ms", "ms", "lower", "outside", "nothing measured (monitoring cost)"),
    # observability and the process
    _layer("obs.trace_overhead_frac", "frac", "lower", "computed",
           "nothing: end-to-end numbers come from untraced passes"),
    _layer("obs.spans_per_tick", "count", "lower", "count", "obs.trace_overhead_frac"),
    _layer("spe.trill_events_per_s", "events/s", "higher", "outside", "engine.speedup_vs_trill"),
    _layer("engine.speedup_vs_trill", "x", "higher", "computed",
           "the paper's headline ratio; gates nothing"),
    _layer("process.rss_growth_mb", "MB", "lower", "outside", "explains tick_p99_ms movement"),
    _layer("process.gc_gen2_collections", "count", "lower", "count", "explains tick_p99_ms movement"),
    _layer("failed_frac", "frac", "lower", "count",
           "failed / attempted operations of the traced passes; must be 0"),
]


def manifest() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "tiltbench/run.py"],
        "paths": ["tiltbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
