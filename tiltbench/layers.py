"""Per-layer probes timed from outside, around each layer's public function.

Every probe is fault-isolated: a probe that raises reports ``None`` and the
reason instead of failing the run.  The kernel, buffer, engine, executor and
baseline probes run on fixed probe inputs (the 8 apps at
:data:`PROBE_EVENTS` events, the deep-window query at
:data:`DEEP_PROBE` size) whatever workload the run is for, so their numbers
are comparable across workloads and runs; the compile-pipeline probes run on
the queries of the workload at hand.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Callable, Dict, Optional, Sequence

from repro import TiltEngine, compile_program, resolve_boundaries
from repro.analysis import analyze_program
from repro.analysis.program import clear_cache as clear_analysis_cache
from repro.apps import REAL_WORLD_APPLICATIONS
from repro.core.codegen import native
from repro.core.optimizer.passes import default_pass_manager
from repro.core.runtime import partition_inputs
from repro.spe.trill import TrillEngine

from . import hygiene
from .bench import estimate, geomean
from .spans import Recorder
from .workloads import OneshotApps, SessionDeepWindow, Workload, snapshot_inputs

PROBE_EVENTS = 20_000
TRILL_EVENTS = 5_000
DEEP_PROBE = {"events": 60_000, "tick_events": 1_000, "discard": 45,
              "short_window": 10_000, "long_window": 40_000}
SMOKE_SCALE = 20  # smoke mode divides the probe sizes by this


class Probes:
    """Collected probe values; a failing probe yields ``None`` + reason."""

    def __init__(self) -> None:
        self.values: Dict[str, Optional[float]] = {}
        self.reasons: Dict[str, str] = {}

    def run(self, names: Sequence[str], fn: Callable[[], Dict[str, float]]) -> None:
        try:
            got = fn()
            self.values.update({n: float(got[n]) for n in names})
        except Exception as exc:  # noqa: BLE001 - probes must not fail the run
            for n in names:
                self.values[n] = None
                self.reasons[n] = f"{type(exc).__name__}: {exc}"


def best_of(repeats: int, fn: Callable, *args):
    """``(last result, least wall seconds)`` of ``repeats`` calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return result, best


# ---------------------------------------------------------------------- #
# the compile pipeline, on the workload's own queries
# ---------------------------------------------------------------------- #
def pipeline_probes(probes: Probes, workload: Workload) -> None:
    """frontend -> optimizer -> lineage -> analysis -> codegen, summed over
    the workload's queries."""

    def pipeline():
        ms = dict.fromkeys(("frontend", "optimizer", "lineage", "analysis"), 0.0)
        exprs_in = exprs_out = 0
        for build in workload.queries().values():
            t0 = time.perf_counter()
            program = build().to_program()
            t1 = time.perf_counter()
            optimized = default_pass_manager().run(program)
            t2 = time.perf_counter()
            boundary = resolve_boundaries(optimized)
            t3 = time.perf_counter()
            clear_analysis_cache()  # reports are cached by digest: time the first call
            t4 = time.perf_counter()
            analyze_program(optimized, boundary=boundary)
            t5 = time.perf_counter()
            ms["frontend"] += t1 - t0
            ms["optimizer"] += t2 - t1
            ms["lineage"] += t3 - t2
            ms["analysis"] += t5 - t4
            exprs_in += len(program.exprs)
            exprs_out += len(optimized.exprs)
        return {
            "frontend.build_ms": ms["frontend"] * 1e3,
            "optimizer.run_ms": ms["optimizer"] * 1e3,
            "optimizer.exprs_in": exprs_in,
            "optimizer.exprs_out": exprs_out,
            "lineage.resolve_ms": ms["lineage"] * 1e3,
            "analysis.analyze_ms": ms["analysis"] * 1e3,
        }

    def codegen():
        programs = [build().to_program() for build in workload.queries().values()]
        seconds = {}
        # cold means cold: an empty disk cache and no kernel of an earlier
        # probe or workload left in the in-process cache
        shared = os.environ["REPRO_NATIVE_CACHE"]
        os.environ["REPRO_NATIVE_CACHE"] = tempfile.mkdtemp(prefix="cold-", dir=shared)
        native.clear_caches()
        try:
            for label, tier in (
                ("numpy", "numpy"), ("native_cold", "native"), ("native_warm", "native")
            ):
                t0 = time.perf_counter()
                compiled = [compile_program(p, codegen_tier=tier) for p in programs]
                seconds[label] = time.perf_counter() - t0
        finally:
            os.environ["REPRO_NATIVE_CACHE"] = shared
        out = {f"codegen.compile_ms.{label}": s * 1e3 for label, s in seconds.items()}
        out["codegen.native_fallbacks"] = sum(
            k.active_tier != "native" for query in compiled for k in query.kernels
        )
        return out

    probes.run(
        ("frontend.build_ms", "optimizer.run_ms", "optimizer.exprs_in", "optimizer.exprs_out",
         "lineage.resolve_ms", "analysis.analyze_ms"),
        pipeline,
    )
    probes.run(
        ("codegen.compile_ms.numpy", "codegen.compile_ms.native_cold",
         "codegen.compile_ms.native_warm", "codegen.native_fallbacks"),
        codegen,
    )


# ---------------------------------------------------------------------- #
# fixed-input probes
# ---------------------------------------------------------------------- #
def host_probes(probes: Probes, smoke: bool) -> None:
    megabytes = 4 if smoke else 64
    probes.run(("host.hardware_score",), lambda: {"host.hardware_score": hygiene.hardware_score()})
    probes.run(
        ("host.memcpy_gb_per_s",),
        lambda: {"host.memcpy_gb_per_s": hygiene.memcpy_gb_per_s(megabytes)},
    )


def _time_range(inputs):
    return (
        min(buf.start_time for buf in inputs.values()),
        max(buf.end_time for buf in inputs.values()),
    )


def app_probes(probes: Probes, seed: int, smoke: bool) -> None:
    """Kernels, snapshot buffers, the engine's own overhead, the executors
    and the Trill baseline, on the 8 apps."""
    scale = SMOKE_SCALE if smoke else 1
    apps = OneshotApps(seed, {"events": PROBE_EVENTS // scale})
    apps.build()
    engine = apps.engine()
    names = list(apps.programs)
    compiled = {n: engine.compile(apps.programs[n]) for n in names}
    kernel_s: Dict[str, float] = {}
    run_s: Dict[str, float] = {}
    raw_outputs = {}

    def kernels():
        moved = 0
        for n in names:
            inputs = apps.inputs[n]
            out, kernel_s[n] = best_of(3, compiled[n].run, inputs, *_time_range(inputs))
            raw_outputs[n] = out
            moved += sum(b.times.nbytes + b.values.nbytes + b.valid.nbytes for b in inputs.values())
            moved += out.times.nbytes + out.values.nbytes + out.valid.nbytes
        events = sum(apps.events.values())
        out = {f"codegen.kernel_ms.{n}": kernel_s[n] * 1e3 for n in names}
        out["codegen.kernel_events_per_s.numpy"] = geomean(apps.events[n] / kernel_s[n] for n in names)
        out["codegen.kernel_bytes_per_event"] = moved / events
        out["codegen.kernel_gb_per_s"] = moved / sum(kernel_s.values()) / 1e9
        return out

    def native_kernels():
        rates = []
        for n in names:
            query = compile_program(apps.programs[n], codegen_tier="native")
            inputs = apps.inputs[n]
            _, seconds = best_of(3, query.run, inputs, *_time_range(inputs))
            rates.append(apps.events[n] / seconds)
        return {"codegen.kernel_events_per_s.native": geomean(rates)}

    def buffers():
        compact = sum(best_of(2, raw_outputs[n].compact)[1] for n in names)
        convert = sum(best_of(1, snapshot_inputs, apps.streams[n])[1] for n in names)
        return {
            "ssbuf.compact_us_per_snapshot": compact / sum(len(raw_outputs[n]) for n in names) * 1e6,
            "ssbuf.from_stream_events_per_s": sum(apps.events.values()) / convert,
        }

    def engine_overhead():
        for n in names:
            _, run_s[n] = best_of(3, engine.run, compiled[n], apps.inputs[n])
        from_events = [
            apps.events[n] / best_of(1, engine.run, compiled[n], apps.streams[n])[1] for n in names
        ]
        return {
            "engine.run_overhead_frac": 1.0 - sum(kernel_s.values()) / sum(run_s.values()),
            "engine.run_from_events_events_per_s": geomean(from_events),
        }

    def executor(kind):
        def speedup():
            if (os.cpu_count() or 1) < 2:
                raise RuntimeError("needs 2 CPUs")
            with hygiene.all_cpus():
                pool = TiltEngine(workers=2, executor_kind=kind)
                try:
                    rates = []
                    for n in names:
                        query = pool.compile(apps.programs[n])
                        rates.append(apps.events[n] / best_of(3, pool.run, query, apps.inputs[n])[1])
                finally:
                    pool.close()
            serial = geomean(apps.events[n] / run_s[n] for n in names)
            return {f"executor.{kind}2_speedup": geomean(rates) / serial}

        return speedup

    def trill():
        small = OneshotApps(seed, {"events": TRILL_EVENTS // scale})
        small.build()
        baseline = TrillEngine()
        trill_rates, tilt_rates = [], []
        for app in REAL_WORLD_APPLICATIONS:
            streams, events = small.streams[app.name], small.events[app.name]
            trill_rates.append(events / best_of(1, baseline.run, app.query(), streams)[1])
            query = engine.compile(small.programs[app.name])
            tilt_rates.append(events / best_of(2, engine.run, query, streams)[1])
        return {
            "spe.trill_events_per_s": geomean(trill_rates),
            "engine.speedup_vs_trill": geomean(tilt_rates) / geomean(trill_rates),
        }

    try:
        probes.run(
            [f"codegen.kernel_ms.{n}" for n in names]
            + ["codegen.kernel_events_per_s.numpy", "codegen.kernel_bytes_per_event",
               "codegen.kernel_gb_per_s"],
            kernels,
        )
        probes.run(("codegen.kernel_events_per_s.native",), native_kernels)
        probes.run(("ssbuf.compact_us_per_snapshot", "ssbuf.from_stream_events_per_s"), buffers)
        probes.run(("engine.run_overhead_frac", "engine.run_from_events_events_per_s"), engine_overhead)
        probes.run(("executor.thread2_speedup",), executor("thread"))
        probes.run(("executor.process2_speedup",), executor("process"))
        probes.run(("spe.trill_events_per_s", "engine.speedup_vs_trill"), trill)
    finally:
        apps.close()


def deep_window_probes(probes: Probes, seed: int, smoke: bool) -> None:
    """The partitioner and the two session execution paths, on the
    deep-window query."""
    size = dict(DEEP_PROBE)
    if smoke:
        size = {"events": 1_500, "tick_events": 100, "discard": 5,
                "short_window": 100, "long_window": 400}
    deep = SessionDeepWindow(seed, size)
    deep.build()

    def plan():
        compiled = deep.engine().compile(deep.program)
        inputs = snapshot_inputs(deep.streams)
        _, end = _time_range(inputs)
        align = max(te.tdom.precision for te in compiled.program.exprs)
        args = (inputs, compiled.boundary, end - size["tick_events"], end)
        _, seconds = best_of(
            5, lambda: partition_inputs(*args, num_partitions=1, align=align)
        )
        return {"partition.plan_ms": seconds * 1e3}

    def tick_ms(label, incremental):
        def run():
            deep.session_options = {"incremental": incremental}
            try:
                passes = [deep.run_pass(Recorder()) for _ in range(2)]
            finally:
                deep.session_options = {}
            return {f"session.tick_ms.{label}": estimate(deep, passes)["tick_p50_ms"]["value"]}

        return run

    try:
        probes.run(("partition.plan_ms",), plan)
        probes.run(("session.tick_ms.recompute",), tick_ms("recompute", False))
        probes.run(("session.tick_ms.incremental",), tick_ms("incremental", True))
    finally:
        deep.close()
