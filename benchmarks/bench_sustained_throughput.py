"""Sustained streaming throughput: steady-state events/sec of a
StreamingSession vs. micro-batch (tick) size and worker count.

The one-shot benchmarks measure a single run over a preloaded dataset.  A
production stream processor instead runs forever, so the number that matters
is the *steady-state* ingest rate: events per second of tick time once the
session is warmed up (kernels compiled, carry-over state populated).  The
tick size plays the role the batch size plays in the Figure 9 latency-bounded
sweep — smaller ticks bound result staleness but expose per-tick overheads —
and the worker count exercises the same synchronization-free partition
parallelism as Figure 8, applied within each tick.

``--lookback-sweep`` adds the incremental-vs-recompute window-depth sweep,
``--trace-overhead`` measures the cost of span tracing (steady-state ev/s
with tracing off vs. on, plus the derived per-call-site cost of the
disabled no-op path), and ``--telemetry-overhead`` measures the cost of
watching a fleet: a single-tenant ``QueryService`` bare vs. SLO-monitored
with its telemetry endpoint being scraped throughout.

Run directly::

    PYTHONPATH=src python benchmarks/bench_sustained_throughput.py

or under pytest (one quick configuration)::

    pytest benchmarks/bench_sustained_throughput.py -s
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List

import numpy as np

from repro.apps import YSB, get_application
from repro.core.codegen.compiled import compile_program
from repro.core.codegen.native import native_available
from repro.core.ir import IRBuilder
from repro.core.runtime.engine import TiltEngine
from repro.core.runtime.stream import EventStream
from repro.datagen import GeneratorSource, ysb_stream
from repro.windowing import MEAN

WORKER_SWEEP = [1, 2, 4]
TICK_EVENT_SWEEP = [1_000, 5_000, 20_000]
CHUNK_EVENTS = 20_000
WARMUP_TICKS = 3
MEASURED_TICKS = 12

# --- codegen tier sweep ----------------------------------------------------
# kernel-bound windowed-aggregate workloads: repeated execution of a warm
# compiled query over a preloaded window — the partition path process-pool
# workers run, where kernel time (not per-tick session bookkeeping)
# dominates and the native tier's single-pass lowering shows its real
# advantage.  Warm-up (JIT compile + first run) happens outside the timed
# region; throughput is best-of-reps to filter scheduler noise.
KERNEL_BOUND_APPS = ["trading", "normalize", "rsi"]
KERNEL_BOUND_EVENTS = 200_000
KERNEL_BOUND_REPS = 5


def available_tiers() -> List[str]:
    """Codegen tiers this host can measure; native is skipped (not silently
    measured as numpy) when the cffi + C-compiler toolchain is absent."""
    return ["numpy"] + (["native"] if native_available() else [])

# --- trace overhead --------------------------------------------------------
# one mid-sweep configuration measured with tracing off and on; interleaved
# repetitions (best-of) filter out scheduler noise so the reported overhead
# reflects the instrumentation, not the machine.
TRACE_OVERHEAD_WORKERS = 2
TRACE_OVERHEAD_TICK_EVENTS = 5_000
TRACE_OVERHEAD_REPS = 3

# --- incremental lookback sweep -------------------------------------------
# window depth in *events*; the event period converts it to seconds.  Depths
# start where the O(depth) recompute term overtakes the fixed per-tick cost
# (ingest, grid, emission — a few ms) that both modes share.
LOOKBACK_SWEEP = [10_000, 40_000, 160_000, 640_000]
LOOKBACK_PERIOD = 0.01
LOOKBACK_TICK_EVENTS = 1_000
LOOKBACK_WARMUP_POLL = 50_000
LOOKBACK_MEASURED_TICKS = 15


def ysb_sources(events_per_tick: int) -> List[GeneratorSource]:
    """An unbounded YSB ad-event source delivering one micro-batch per tick."""
    return [
        GeneratorSource(
            lambda i: ysb_stream(CHUNK_EVENTS, seed=i),
            name="ads",
            events_per_poll=events_per_tick,
        )
    ]


def measure_steady_state(
    workers: int,
    events_per_tick: int,
    *,
    warmup_ticks: int = WARMUP_TICKS,
    measured_ticks: int = MEASURED_TICKS,
    trace: bool = None,
    codegen_tier: str = "numpy",
) -> Dict[str, float]:
    """Steady-state ingest rate of one session configuration.

    Warmup ticks populate the carry-over state and amortize one-time costs
    (including native-tier JIT compilation), then throughput is read from
    the rolling window over the measured ticks.  ``trace`` is forwarded to
    :class:`TiltEngine` (``None`` resolves from ``REPRO_TRACE``, so the
    default sweep measures whatever the environment asks for).
    """
    engine = TiltEngine(workers=workers, trace=trace, codegen_tier=codegen_tier)
    try:
        session = engine.open_session(
            YSB.program(), ysb_sources(events_per_tick), retain_output=False
        )
        for _ in range(warmup_ticks):
            session.tick()
        baseline_events = session.metrics.input_events
        baseline_busy = session.metrics.busy_seconds
        for _ in range(measured_ticks):
            session.tick()
        events = session.metrics.input_events - baseline_events
        busy = session.metrics.busy_seconds - baseline_busy
        spans = len(engine.tracer.snapshot()) if engine.tracer.enabled else 0
        return {
            "workers": float(workers),
            "tier": codegen_tier,
            "events_per_tick": float(events_per_tick),
            "events_per_second": events / busy if busy > 0 else float("inf"),
            "tick_p50_ms": session.metrics.latency.p50 * 1e3,
            "tick_p99_ms": session.metrics.latency.p99 * 1e3,
            "retained_snapshots": float(session.retained_snapshots()),
            "spans_recorded": float(spans),
        }
    finally:
        engine.close()


def run_sweep(
    worker_sweep=WORKER_SWEEP, tick_sweep=TICK_EVENT_SWEEP, tiers=("numpy",)
) -> List[Dict[str, float]]:
    rows = []
    print(
        f"{'workers':>8} {'tier':>7} {'tick events':>12} {'M events/s':>12} "
        f"{'tick p50 (ms)':>14} {'tick p99 (ms)':>14} {'retained':>9}"
    )
    for tier in tiers:
        for workers in worker_sweep:
            for events_per_tick in tick_sweep:
                row = measure_steady_state(workers, events_per_tick, codegen_tier=tier)
                rows.append(row)
                print(
                    f"{workers:>8d} {tier:>7} {events_per_tick:>12,d} "
                    f"{row['events_per_second'] / 1e6:>12.3f} "
                    f"{row['tick_p50_ms']:>14.2f} {row['tick_p99_ms']:>14.2f} "
                    f"{int(row['retained_snapshots']):>9d}"
                )
    return rows


def measure_kernel_throughput(
    app_name: str,
    codegen_tier: str,
    *,
    n_events: int = KERNEL_BOUND_EVENTS,
    reps: int = KERNEL_BOUND_REPS,
) -> Dict[str, float]:
    """Sustained ev/s of a warm compiled query over a preloaded window.

    This is the partition execution path (``CompiledQuery.run`` over
    snapshot buffers already in memory) — what each pool worker runs per
    partition, with session/tick bookkeeping excluded.  Compilation and a
    first full run happen outside the timed region, so the native tier's
    JIT cost never leaks into the measurement; best-of-``reps`` filters
    scheduler noise.
    """
    import benchutil

    app = get_application(app_name)
    inputs = benchutil.tilt_native_inputs(app.streams(n_events, seed=7))
    events = sum(len(buf) for buf in inputs.values())
    t_end = max(float(buf.times[-1]) for buf in inputs.values()) + 1.0
    compiled = compile_program(app.program(), codegen_tier=codegen_tier)
    compiled.run(inputs, 0.0, t_end)  # warm-up: JIT compile + allocator
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        compiled.run(inputs, 0.0, t_end)
        best = min(best, time.perf_counter() - start)
    return {
        "app": app_name,
        "tier": codegen_tier,
        "events": float(events),
        "events_per_second": events / best,
        "run_ms": best * 1e3,
    }


def run_kernel_bound_sweep(
    apps=KERNEL_BOUND_APPS,
    tiers=None,
    *,
    n_events: int = KERNEL_BOUND_EVENTS,
    reps: int = KERNEL_BOUND_REPS,
) -> List[Dict[str, float]]:
    """Kernel-bound windowed-aggregate workloads, one row per (app, tier)."""
    tiers = available_tiers() if tiers is None else list(tiers)
    rows = []
    print(f"{'app':>10} {'tier':>7} {'M events/s':>12} {'run (ms)':>10} {'speedup':>8}")
    for app_name in apps:
        per_tier = {}
        for tier in tiers:
            row = measure_kernel_throughput(app_name, tier, n_events=n_events, reps=reps)
            per_tier[tier] = row
            rows.append(row)
            speedup = (
                f"{row['events_per_second'] / per_tier['numpy']['events_per_second']:>7.2f}x"
                if tier != "numpy" and "numpy" in per_tier
                else f"{'—':>8}"
            )
            print(
                f"{app_name:>10} {tier:>7} {row['events_per_second'] / 1e6:>12.3f} "
                f"{row['run_ms']:>10.2f} {speedup}"
            )
    return rows


def run_trace_overhead(
    workers: int = TRACE_OVERHEAD_WORKERS,
    events_per_tick: int = TRACE_OVERHEAD_TICK_EVENTS,
    reps: int = TRACE_OVERHEAD_REPS,
) -> List[Dict[str, float]]:
    """Span-tracing cost: steady-state ev/s with tracing disabled vs enabled.

    ``trace=False`` exercises the strict no-op path every instrumented call
    site takes in production (shared null tracer, no records); ``trace=True``
    additionally allocates and buffers a span record per instrumented region.
    Modes are interleaved and the best of ``reps`` repetitions kept per mode,
    so the percentage reported is the instrumentation overhead rather than
    run-to-run drift.

    Disabled-mode overhead cannot be measured as a run-to-run delta (both
    runs would take the same no-op path), so it is derived instead: the null
    span context manager is micro-timed, multiplied by the spans-per-tick
    count observed in the traced run, and expressed against the untraced
    median tick — the cost the instrumented call sites add when tracing is
    off.
    """
    best: Dict[bool, Dict[str, float]] = {}
    for _ in range(reps):
        for traced in (False, True):
            row = measure_steady_state(workers, events_per_tick, trace=traced)
            if traced not in best or row["events_per_second"] > best[traced]["events_per_second"]:
                best[traced] = row
    off, on = best[False], best[True]
    measured_ticks = WARMUP_TICKS + MEASURED_TICKS
    spans_per_tick = on["spans_recorded"] / measured_ticks
    null_cost = _null_span_cost()
    disabled_pct = (spans_per_tick * null_cost) / (off["tick_p50_ms"] / 1e3) * 100.0
    enabled_pct = (
        (off["events_per_second"] - on["events_per_second"])
        / off["events_per_second"] * 100.0
    )
    print(f"{'tracing':>8} {'M events/s':>12} {'tick p50 (ms)':>14} {'overhead':>9}")
    print(
        f"{'off':>8} {off['events_per_second'] / 1e6:>12.3f} "
        f"{off['tick_p50_ms']:>14.2f} {disabled_pct:>8.3f}%"
    )
    print(
        f"{'on':>8} {on['events_per_second'] / 1e6:>12.3f} "
        f"{on['tick_p50_ms']:>14.2f} {enabled_pct:>8.2f}%"
    )
    print(
        f"  (disabled overhead = {spans_per_tick:.0f} no-op spans/tick × "
        f"{null_cost * 1e9:.0f} ns against the untraced tick)"
    )
    base = {"workers": float(workers), "events_per_tick": float(events_per_tick)}
    return [
        {**base, **off, "traced": 0.0, "overhead_pct": disabled_pct,
         "null_span_ns": null_cost * 1e9, "spans_per_tick": spans_per_tick},
        {**base, **on, "traced": 1.0, "overhead_pct": enabled_pct},
    ]


def measure_service_steady_state(
    workers: int,
    events_per_tick: int,
    *,
    observed: bool,
    warmup_ticks: int = WARMUP_TICKS,
    measured_ticks: int = MEASURED_TICKS,
) -> Dict[str, float]:
    """Steady-state ev/s of a single-tenant QueryService, watched or not.

    ``observed=True`` runs the full fleet-health stack — SLO monitor plus a
    live telemetry endpoint being scraped (``/metrics`` and ``/healthz``)
    from another thread throughout the measurement; ``observed=False`` is
    the same service bare.  Time is wall-clock around the step loop, so
    scheduler + SLO bookkeeping count toward the measured cost.
    """
    import threading
    import urllib.request

    from repro.serve import QueryService

    svc = QueryService(
        workers=workers,
        slo=True if observed else None,
        telemetry_port=0 if observed else None,
    )
    stop = threading.Event()
    scraper = None
    try:
        svc.submit(
            YSB.program(),
            name="bench",
            sources=ysb_sources(events_per_tick),
            retain_output=False,
        )
        if observed:
            base = svc.telemetry.url

            def scrape() -> None:
                # ~20 scrapes/s — far hotter than a real Prometheus
                # interval, but paced so the measurement reflects serving
                # cost rather than a spin-loop fighting for the GIL
                while not stop.is_set():
                    for route in ("/metrics", "/healthz"):
                        try:
                            urllib.request.urlopen(base + route, timeout=1).read()
                        except Exception:
                            pass
                    stop.wait(0.05)

            scraper = threading.Thread(target=scrape, daemon=True)
            scraper.start()
        for _ in range(warmup_ticks):
            svc.step()
        before = svc.stats().tenants["bench"]["input_events"]
        samples = []
        start = time.perf_counter()
        for _ in range(measured_ticks):
            t0 = time.perf_counter()
            svc.step()
            samples.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        events = svc.stats().tenants["bench"]["input_events"] - before
        return {
            "workers": float(workers),
            "events_per_tick": float(events_per_tick),
            "events_per_second": events / wall if wall > 0 else float("inf"),
            "tick_p50_ms": float(np.median(samples)) * 1e3,
        }
    finally:
        stop.set()
        if scraper is not None:
            scraper.join()
        svc.close()


def run_telemetry_overhead(
    workers: int = TRACE_OVERHEAD_WORKERS,
    events_per_tick: int = TRACE_OVERHEAD_TICK_EVENTS,
    reps: int = TRACE_OVERHEAD_REPS,
) -> List[Dict[str, float]]:
    """Fleet-health cost: service ev/s bare vs. SLO + scraped endpoint.

    Like :func:`run_trace_overhead`, modes are interleaved and the best of
    ``reps`` kept per mode, and the headline number is *derived* rather
    than a run-to-run delta: the per-tick SLO observation path (one
    ``record_tick`` into the burn windows) is micro-timed and expressed
    against the unobserved median tick — run-to-run drift on a busy CI
    machine easily exceeds the real cost, a microbenchmark does not.
    """
    best: Dict[bool, Dict[str, float]] = {}
    for _ in range(reps):
        for observed in (False, True):
            row = measure_service_steady_state(
                workers, events_per_tick, observed=observed
            )
            if (
                observed not in best
                or row["events_per_second"] > best[observed]["events_per_second"]
            ):
                best[observed] = row
    off, on = best[False], best[True]
    slo_cost = _slo_observation_cost()
    derived_pct = slo_cost / (off["tick_p50_ms"] / 1e3) * 100.0
    measured_pct = (
        (off["events_per_second"] - on["events_per_second"])
        / off["events_per_second"] * 100.0
    )
    print(f"{'observed':>9} {'M events/s':>12} {'tick p50 (ms)':>14} {'overhead':>9}")
    print(
        f"{'no':>9} {off['events_per_second'] / 1e6:>12.3f} "
        f"{off['tick_p50_ms']:>14.2f} {'—':>9}"
    )
    print(
        f"{'yes':>9} {on['events_per_second'] / 1e6:>12.3f} "
        f"{on['tick_p50_ms']:>14.2f} {measured_pct:>8.2f}%"
    )
    print(
        f"  (derived per-tick SLO observation cost {slo_cost * 1e6:.1f} µs "
        f"= {derived_pct:.3f}% of the unobserved tick)"
    )
    base = {"workers": float(workers), "events_per_tick": float(events_per_tick)}
    return [
        {**base, **off, "observed": 0.0, "overhead_pct": derived_pct,
         "slo_observation_us": slo_cost * 1e6},
        {**base, **on, "observed": 1.0, "overhead_pct": measured_pct},
    ]


def _slo_observation_cost(iterations: int = 20_000) -> float:
    """Seconds per SLO tick observation: what the serving layer adds to each
    tick when ``slo=`` is enabled (the subscriber's ``record_tick`` into the
    fast/slow burn windows, gap computation included)."""
    from repro.obs.slo import SLOMonitor

    monitor = SLOMonitor()
    monitor.watch("bench")
    start = time.perf_counter()
    for i in range(iterations):
        monitor.record_tick("bench", seconds=0.001, emitted=True, emit_gap=0.002)
    return (time.perf_counter() - start) / iterations


def _null_span_cost(iterations: int = 200_000) -> float:
    """Seconds per disabled-tracer span: the full no-op path an instrumented
    call site pays when tracing is off (attr kwargs included, matching the
    hot sites in ``session.tick``/``engine.run``)."""
    from repro.obs.trace import NULL_TRACER

    start = time.perf_counter()
    for i in range(iterations):
        with NULL_TRACER.span("bench.null", tick=i, backend="thread"):
            pass
    return (time.perf_counter() - start) / iterations


def _lookback_program(depth_events: int):
    b = IRBuilder()
    x = b.stream("x")
    window = x.window(-depth_events * LOOKBACK_PERIOD, 0.0)
    b.define("out", window.reduce(MEAN), precision=LOOKBACK_PERIOD)
    return b.build(output="out")


def _lookback_source(events_per_tick: int) -> GeneratorSource:
    def chunk(i: int) -> EventStream:
        rng = np.random.default_rng(1_000 + i)
        return EventStream.from_samples(
            rng.uniform(0.5, 2.0, CHUNK_EVENTS), period=LOOKBACK_PERIOD, name="x"
        )

    return GeneratorSource(chunk, name="x", events_per_poll=events_per_tick)


def measure_lookback(
    depth_events: int,
    incremental: bool,
    *,
    events_per_tick: int = LOOKBACK_TICK_EVENTS,
    measured_ticks: int = LOOKBACK_MEASURED_TICKS,
) -> Dict[str, float]:
    """Median tick latency at one window depth, incremental or recompute.

    Warmup ingests in large polls until the carry-over covers the full
    lookback (so full recompute pays its real O(depth) cost without the
    warmup itself taking O(depth²)), then each measured tick pulls the
    steady-state micro-batch and is individually wall-clocked; the median
    filters allocator/GC noise.
    """
    engine = TiltEngine(workers=1)
    try:
        session = engine.open_session(
            _lookback_program(depth_events),
            [_lookback_source(LOOKBACK_WARMUP_POLL)],
            retain_output=False,
            incremental=incremental,  # the oracle switch: force either tick path
        )
        ingested = 0
        while ingested < depth_events + LOOKBACK_WARMUP_POLL:
            session.tick()
            ingested += LOOKBACK_WARMUP_POLL
        samples = []
        for _ in range(measured_ticks):
            start = time.perf_counter()
            session.tick(max_events=events_per_tick)
            samples.append(time.perf_counter() - start)
        return {
            "depth_events": float(depth_events),
            "incremental": float(incremental),
            "tick_p50_ms": float(np.median(samples)) * 1e3,
            "events_per_second": events_per_tick / float(np.median(samples)),
            "retained_snapshots": float(session.retained_snapshots()),
        }
    finally:
        engine.close()


def run_lookback_sweep(depth_sweep=LOOKBACK_SWEEP) -> List[Dict[str, float]]:
    """Tick cost vs. window depth: full recompute degrades with the lookback
    while incremental execution stays flat at O(events per tick)."""
    rows = []
    print(
        f"{'depth (events)':>14} {'recompute p50 (ms)':>19} "
        f"{'incremental p50 (ms)':>21} {'speedup':>8}"
    )
    for depth in depth_sweep:
        full = measure_lookback(depth, incremental=False)
        inc = measure_lookback(depth, incremental=True)
        rows.extend([full, inc])
        print(
            f"{depth:>14,d} {full['tick_p50_ms']:>19.3f} "
            f"{inc['tick_p50_ms']:>21.3f} "
            f"{full['tick_p50_ms'] / inc['tick_p50_ms']:>7.1f}x"
        )
    return rows


def test_sustained_throughput_smoke():
    """Quick CI-sized configuration: two worker counts, one tick size."""
    rows = [measure_steady_state(w, 5_000, warmup_ticks=1, measured_ticks=3) for w in (1, 2)]
    for row in rows:
        assert row["events_per_second"] > 0
        print(
            f"\n[sustained/ysb] workers={int(row['workers'])} "
            f"tick={int(row['events_per_tick'])}: "
            f"{row['events_per_second'] / 1e6:.3f} M events/s "
            f"(p99 tick {row['tick_p99_ms']:.1f} ms)"
        )


def test_kernel_bound_tier_smoke():
    """CI-sized kernel-bound point: both tiers run and produce output; the
    native-vs-numpy speedup itself is asserted on the committed baseline
    (full-size runs), not here where the dataset is too small to be stable."""
    rows = run_kernel_bound_sweep(apps=["trading"], n_events=40_000, reps=2)
    assert all(row["events_per_second"] > 0 for row in rows)
    tiers = {row["tier"] for row in rows}
    assert "numpy" in tiers
    if native_available():
        assert "native" in tiers


def test_incremental_lookback_smoke():
    """CI-sized lookback point: incremental must not be slower than full
    recompute once the window is a few ticks deep."""
    full = measure_lookback(600, incremental=False, events_per_tick=200, measured_ticks=4)
    inc = measure_lookback(600, incremental=True, events_per_tick=200, measured_ticks=4)
    assert inc["tick_p50_ms"] > 0 and full["tick_p50_ms"] > 0
    print(
        f"\n[sustained/lookback] depth=600: recompute {full['tick_p50_ms']:.2f} ms, "
        f"incremental {inc['tick_p50_ms']:.2f} ms per tick"
    )


def test_trace_overhead_smoke():
    """CI-sized check: instrumentation must be near-free when tracing is off
    (the derived no-op call-site cost stays under the 2% budget)."""
    rows = run_trace_overhead(workers=1, events_per_tick=2_000, reps=1)
    off = rows[0]
    assert off["overhead_pct"] < 2.0, f"disabled-mode tracing overhead {off['overhead_pct']:.3f}%"
    assert rows[1]["spans_recorded"] > 0


def test_telemetry_overhead_smoke():
    """CI-sized check: watching a fleet (SLO monitor + scraped endpoint)
    must cost under the 2% budget — asserted on the derived per-tick SLO
    observation cost, which is immune to run-to-run drift."""
    rows = run_telemetry_overhead(workers=1, events_per_tick=2_000, reps=1)
    derived = rows[0]
    assert derived["overhead_pct"] < 2.0, (
        f"per-tick SLO observation cost {derived['overhead_pct']:.3f}% "
        f"({derived['slo_observation_us']:.1f} µs) exceeds the 2% budget"
    )
    assert rows[1]["events_per_second"] > 0


def main() -> None:
    import benchutil

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, nargs="*", default=WORKER_SWEEP)
    parser.add_argument("--tick-events", type=int, nargs="*", default=TICK_EVENT_SWEEP)
    parser.add_argument(
        "--tiers", nargs="*", default=None,
        help="codegen tiers to sweep (default: numpy plus native when the "
        "toolchain is available)",
    )
    parser.add_argument(
        "--kernel-bound",
        action="store_true",
        help="also measure the kernel-bound windowed-aggregate workloads "
        "(warm compiled-query throughput per codegen tier)",
    )
    parser.add_argument(
        "--lookback-sweep",
        action="store_true",
        help="also sweep window depth: incremental vs. full-recompute tick cost",
    )
    parser.add_argument(
        "--depths", type=int, nargs="*", default=LOOKBACK_SWEEP,
        help="window depths (in events) for --lookback-sweep",
    )
    parser.add_argument(
        "--trace-overhead",
        action="store_true",
        help="also measure steady-state ev/s with span tracing off vs. on "
        "(plus the derived no-op call-site cost of the disabled path)",
    )
    parser.add_argument(
        "--telemetry-overhead",
        action="store_true",
        help="also measure service ev/s bare vs. SLO-monitored + scraped "
        "telemetry endpoint (plus the derived per-tick SLO cost)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: small sweep, fewer measured ticks (what the "
        "bench-regression gate compares against the committed baseline)",
    )
    benchutil.add_json_option(parser)
    args = parser.parse_args()
    if args.quick:
        args.workers = [1, 2]
        args.tick_events = [5_000]
        args.kernel_bound = True
    tiers = available_tiers() if args.tiers is None else args.tiers
    rows = run_sweep(args.workers, args.tick_events, tiers)
    kernel_rows = run_kernel_bound_sweep(tiers=tiers) if args.kernel_bound else []
    lookback_rows = run_lookback_sweep(args.depths) if args.lookback_sweep else []
    trace_rows = run_trace_overhead() if args.trace_overhead else []
    telemetry_rows = run_telemetry_overhead() if args.telemetry_overhead else []
    if args.json:
        for row in rows:
            benchutil.record_result(
                "sustained/ysb",
                params={
                    "workers": int(row["workers"]),
                    "events_per_tick": int(row["events_per_tick"]),
                    "tier": row["tier"],
                },
                events_per_sec=row["events_per_second"],
                latency_percentiles={
                    "p50": row["tick_p50_ms"] / 1e3,
                    "p99": row["tick_p99_ms"] / 1e3,
                },
            )
        for row in kernel_rows:
            benchutil.record_result(
                "sustained/kernel-bound",
                params={"app": row["app"], "tier": row["tier"]},
                events=int(row["events"]),
                events_per_sec=row["events_per_second"],
                extra={"run_ms": row["run_ms"]},
            )
        for row in lookback_rows:
            benchutil.record_result(
                "sustained/lookback",
                params={
                    "depth_events": int(row["depth_events"]),
                    "mode": "incremental" if row["incremental"] else "recompute",
                },
                events_per_sec=row["events_per_second"],
                latency_percentiles={"p50": row["tick_p50_ms"] / 1e3},
            )
        for row in trace_rows:
            extra = {"overhead_pct": row["overhead_pct"]}
            if "spans_per_tick" in row:
                extra["spans_per_tick"] = row["spans_per_tick"]
                extra["null_span_ns"] = row["null_span_ns"]
            benchutil.record_result(
                "sustained/trace-overhead",
                params={
                    "workers": int(row["workers"]),
                    "events_per_tick": int(row["events_per_tick"]),
                    "trace": "on" if row["traced"] else "off",
                },
                events_per_sec=row["events_per_second"],
                latency_percentiles={"p50": row["tick_p50_ms"] / 1e3},
                extra=extra,
            )
        for row in telemetry_rows:
            extra = {"overhead_pct": row["overhead_pct"]}
            if "slo_observation_us" in row:
                extra["slo_observation_us"] = row["slo_observation_us"]
            benchutil.record_result(
                "sustained/telemetry-overhead",
                params={
                    "workers": int(row["workers"]),
                    "events_per_tick": int(row["events_per_tick"]),
                    "observed": "yes" if row["observed"] else "no",
                },
                events_per_sec=row["events_per_second"],
                latency_percentiles={"p50": row["tick_p50_ms"] / 1e3},
                extra=extra,
            )
        benchutil.write_json(args.json)


if __name__ == "__main__":
    main()
