"""Running a workload: passes, noise filtering, verification, set-up probes.

Load model: closed loop, one driver thread, no helper threads, ``workers=1``.
Every pass of a workload does identical, fixed work, and each timed public
call carries a key that names that work (tick index, app, tenant + tick), so
the same key in two passes is the same computation.  The host this runs on is
a shared VM whose neighbours steal the CPU for milliseconds at a time; that
only ever *adds* time to a call.  The cost of a call is therefore taken as
its minimum over all passes, and every end-to-end figure is computed from
those noise-filtered costs.  The raw per-pass quartiles are reported beside
each figure so the noise that was filtered stays visible.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import subprocess
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional

import numpy as np

from . import hygiene
from .metrics import END_TO_END
from .spans import KeepingTracer, Recorder, self_times
from .workloads import PassResult, Workload, make_workload

#: a run always measures at least this many passes, whatever ``--seconds``
#: says (the smoke size: one)
MIN_PASSES = {"full": 3, "smoke": 1}
MAX_PASSES = 64
#: fresh-interpreter probes behind one ``setup_s`` figure
SETUP_PROBES = {"full": 5, "smoke": 1}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartiles(values) -> Dict[str, float]:
    q1, median, q3 = (float(v) for v in np.percentile(np.asarray(values, dtype=float), [25, 50, 75]))
    return {"raw_q1": q1, "raw_median": median, "raw_q3": q3}


# ---------------------------------------------------------------------- #
# estimators
# ---------------------------------------------------------------------- #
def noise_floor(passes: List[PassResult]) -> Dict[object, float]:
    """Key -> the least wall time any pass took for that work."""
    floor: Dict[object, float] = {}
    for p in passes:
        for op in p.ops:
            if op.seconds < floor.get(op.key, math.inf):
                floor[op.key] = op.seconds
    return floor


def _rate(geometric: bool, ops, seconds_of: Callable) -> float:
    """Events per second of one pass: total over total, or — where the
    workload asks for it — the geometric mean over its calls."""
    if geometric:
        return geomean(op.events / seconds_of(op) for op in ops)
    return sum(op.events for op in ops) / sum(seconds_of(op) for op in ops)


def estimate(workload: Workload, passes: List[PassResult]) -> Dict[str, Dict[str, object]]:
    """``events_per_s``, ``tick_p50_ms`` and ``tick_p99_ms`` of a set of
    passes, noise-filtered, each with the raw per-pass quartiles beside it."""
    floor = noise_floor(passes)
    filtered = lambda op: floor[op.key]  # noqa: E731
    raw = lambda op: op.seconds  # noqa: E731
    geometric = workload.geometric_rate
    pool = [floor[op.key] * 1e3 for p in passes for op in p.ops if op.productive]
    raw_ticks = [[op.seconds * 1e3 for op in p.ops if op.productive] for p in passes]
    p50, p99 = (float(v) for v in np.percentile(pool, [50, 99]))
    return {
        "events_per_s": {
            "value": float(np.median([_rate(geometric, p.ops, filtered) for p in passes])),
            **quartiles([_rate(geometric, p.ops, raw) for p in passes]),
            "n": len(passes),
        },
        "tick_p50_ms": {
            "value": p50,
            **quartiles([np.percentile(t, 50) for t in raw_ticks]),
            "n": len(pool),
        },
        "tick_p99_ms": {
            "value": p99,
            **quartiles([np.percentile(t, 99) for t in raw_ticks]),
            "n": len(pool),
        },
    }


# ---------------------------------------------------------------------- #
# passes
# ---------------------------------------------------------------------- #
def run_passes(
    workload: Workload, recorders: List[Recorder], seconds: float, min_passes: int
) -> List[List[PassResult]]:
    """Run passes for ``seconds`` of wall time, alternating between the given
    recorders (one: plain measurement; two: untraced and traced interleaved,
    so drift hits both alike).  Returns one list of passes per recorder; only
    the last pass of each keeps its output buffers."""
    results: List[List[PassResult]] = [[] for _ in recorders]
    started = time.perf_counter()
    rounds = 0
    while rounds < min_passes or (
        time.perf_counter() - started < seconds and rounds < MAX_PASSES
    ):
        for rec, passes in zip(recorders, results):
            rec.pass_id = rounds
            if passes:
                passes[-1].outputs = None
            passes.append(workload.run_pass(rec))
        rounds += 1
    return results


# ---------------------------------------------------------------------- #
# verification
# ---------------------------------------------------------------------- #
def same_buffer(a, b) -> bool:
    """Equality of two snapshot buffers as ``SSBuf.__eq__`` defines it —
    timestamps and validity exact, values to ``allclose`` (prefix sums are
    re-centred per partition, so a tick-concat and a one-shot run agree to
    ~1e-12, not bit for bit) — except that NaN equals NaN."""
    if len(a) != len(b) or a.start_time != b.start_time:
        return False
    if not np.array_equal(a.times, b.times) or not np.array_equal(a.valid, b.valid):
        return False
    return bool(np.allclose(a.values[a.valid], b.values[b.valid], equal_nan=True))


class Checks:
    """Attempted / failed operations and the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def add_passes(self, passes: List[PassResult]) -> None:
        for p in passes:
            self.attempted += len(p.ops)
            self.failures.extend(p.failures)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def compare(self, got: Dict[str, object], want: Dict[str, object], what: str) -> None:
        for name, expected in want.items():
            self.check(
                name in got and same_buffer(got[name], expected),
                f"{what}: output {name!r} differs",
            )

    @property
    def failed(self) -> int:
        return len(self.failures)


def verify(name: str, seed: int, size: str, workload: Workload, passes: List[PassResult], checks: Checks):
    """The output checks of one workload (see README, *Verification*)."""
    # full size: every pass produced the same output ...
    checksums = {p.checksum for p in passes}
    checks.check(len(checksums) == 1, f"{name}: output checksum differs between passes")
    # ... and the first and last pass equal one compiled one-shot run
    expected = workload.oneshot()
    if expected is not None:
        for which in (0, -1):
            if passes[which].outputs is not None:
                checks.compare(passes[which].outputs(), expected, f"{name} pass {which}")
    # reduced size: tick-concat / tenant results equal the interpreted oracle
    small = make_workload(name, seed, "smoke" if size == "smoke" else "verify")
    try:
        reduced = small.run_pass(Recorder())
        checks.add_passes([reduced])
        checks.compare(reduced.outputs(), small.reference(), f"{name} vs interpreter")
    finally:
        small.close()


# ---------------------------------------------------------------------- #
# set-up probes
# ---------------------------------------------------------------------- #
def setup_seconds(name: str, seed: int, probes: int) -> Dict[str, object]:
    """Cold time to first result: ``probes`` fresh interpreters, each with an
    empty native-kernel cache; the median is the figure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hygiene.ROOT / "src"), str(hygiene.ROOT)])
    samples = []
    for index in range(probes):
        cache = hygiene.SCRATCH / f"probe-{os.getpid()}-{index}"
        env["REPRO_NATIVE_CACHE"] = str(cache)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "tiltbench.setup_probe", name, "--seed", str(seed)],
                env=env, cwd=hygiene.ROOT, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe exited {out.returncode}: {out.stderr[-2000:]}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return {"value": float(np.median(samples)), **quartiles(samples), "n": len(samples)}


# ---------------------------------------------------------------------- #
# one workload, end to end
# ---------------------------------------------------------------------- #
def _measure(name: str, seed: int, size: str, checks: Checks, body: Callable[[Workload], None]):
    """Run ``body`` on the workload, built and with its inputs frozen out of
    the GC's sight.  Whatever raises is a reported failure of this workload —
    the other workloads and the report still run."""
    workload = None
    try:
        # millions of Event objects: generational GC during generation only
        # rescans them over and over
        gc.disable()
        try:
            workload = make_workload(name, seed, size)
        finally:
            gc.enable()
        with hygiene.frozen_heap():
            body(workload)
    except Exception:  # noqa: BLE001 - a failing workload is a result, not a crash
        checks.attempted += 1
        checks.failures.append(traceback.format_exc())
    finally:
        if workload is not None:
            workload.close()


def _outcome(checks: Checks, **fields) -> Dict[str, object]:
    return {
        **fields,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "failures": checks.failures,
    }


def end_to_end(name: str, seed: int, seconds: float, size: str = "full") -> Dict[str, object]:
    """Untraced measurement of one workload: the four end-to-end metrics,
    verification, attempted/failed operations."""
    checks = Checks()
    metrics: Dict[str, Dict[str, object]] = {}
    info: Dict[str, object] = {}

    def body(workload: Workload) -> None:
        metrics["setup_s"] = setup_seconds(name, seed, SETUP_PROBES[size])
        checks.attempted += SETUP_PROBES[size]
        rec = Recorder()
        warm = workload.run_pass(rec)  # hot runs: one discarded warm-up pass
        (passes,) = run_passes(workload, [rec], seconds, MIN_PASSES[size])
        metrics.update(estimate(workload, passes))
        checks.add_passes(passes)
        verify(name, seed, size, workload, [warm] + passes, checks)
        info.update(
            passes=len(passes),
            measured_calls_per_pass=len(passes[0].ops),
            events_per_pass=sum(op.events for op in passes[0].ops),
        )

    _measure(name, seed, size, checks, body)
    for metric in END_TO_END:
        metrics.setdefault(metric.name, {"value": None})["unit"] = metric.unit
    return _outcome(checks, metrics=metrics, info=info)


# ---------------------------------------------------------------------- #
# one workload, traced
# ---------------------------------------------------------------------- #
#: per-layer metric -> the engine span names whose self time it sums
SPAN_GROUPS = {
    "session.ingest_frac": ("tick.ingest", "run.ingest"),
    "session.emit_self_frac": ("tick.emit",),
    "session.plan_frac": ("emit.plan", "run.plan"),
    "session.kernel_frac": ("kernel.partition", "emit.incremental"),
    "session.dispatch_frac": ("executor.dispatch",),
    "session.prune_frac": ("emit.prune",),
    "session.other_frac": ("session.tick", "engine.run"),
    "serve.select_frac": ("scheduler.select",),
}


def traced(name: str, seed: int, seconds: float, size: str = "full") -> Dict[str, object]:
    """Traced measurement of one workload: untraced and traced passes
    interleaved, the span log, and the workload-scoped per-layer metrics."""
    checks = Checks()
    values: Dict[str, Optional[float]] = {}
    spans: List[dict] = []
    info: Dict[str, object] = {}

    def body(workload: Workload) -> None:
        plain, tracing = Recorder(), Recorder(KeepingTracer())
        workload.run_pass(plain)
        workload.run_pass(tracing)
        tracing.spans.clear()
        rss, gen2 = hygiene.rss_mb(), hygiene.gen2_collections()
        untraced_passes, traced_passes = run_passes(
            workload, [plain, tracing], seconds, MIN_PASSES[size]
        )
        values["process.rss_growth_mb"] = hygiene.rss_mb() - rss
        values["process.gc_gen2_collections"] = hygiene.gen2_collections() - gen2
        checks.add_passes(untraced_passes + traced_passes)
        checks.check(
            len({p.checksum for p in untraced_passes + traced_passes}) == 1,
            f"{name}: output checksum differs between passes (tracing must not alter output)",
        )
        values.update(_scoped_layers(workload, untraced_passes, traced_passes, tracing.spans))
        spans.extend(tracing.to_json())
        info.update(untraced_passes=len(untraced_passes), traced_passes=len(traced_passes),
                    spans=len(spans))

    _measure(name, seed, size, checks, body)
    values["failed_frac"] = checks.failed / max(checks.attempted, 1)
    return _outcome(checks, values=values, info=info, spans=spans)


def _scoped_layers(workload, untraced_passes, traced_passes, spans) -> Dict[str, float]:
    """Per-layer metrics that describe *this workload's* measured calls."""
    out: Dict[str, float] = {}
    measured = sum(op.seconds for p in traced_passes for op in p.ops)
    events = sum(op.events for p in traced_passes for op in p.ops)
    ticks = sum(1 for p in traced_passes for op in p.ops if op.productive)
    own = self_times(spans)
    for metric, names in SPAN_GROUPS.items():
        out[metric] = sum(own.get(n, 0.0) for n in names) / measured
    ingest = sum(own.get(n, 0.0) for n in SPAN_GROUPS["session.ingest_frac"])
    out["session.ingest_us_per_event"] = ingest / events * 1e6
    engine_spans = sum(1 for s in spans if not s[0].startswith("bench."))
    out["obs.spans_per_tick"] = engine_spans / ticks
    plain = estimate(workload, untraced_passes)["events_per_s"]["value"]
    with_trace = estimate(workload, traced_passes)["events_per_s"]["value"]
    out["obs.trace_overhead_frac"] = 1.0 - with_trace / plain

    every = untraced_passes + traced_passes
    busy = sum(op.seconds for p in every for op in p.ops if op.kind != "ingest")
    out["datagen.poll_frac"] = sum(p.counts.get("poll_seconds", 0.0) for p in every) / busy
    last = untraced_passes[-1].counts
    for count in ("retained_snapshots", "state_snapshots", "empty_ticks"):
        out[f"session.{count}"] = float(last.get(count, 0))
    # compacted, so the count does not depend on where ticks cut the output
    out["session.output_snapshots"] = float(
        sum(len(buf) for buf in untraced_passes[-1].outputs().values())
    )

    # the serving layer: zero time and zero counts where no service runs
    def total(key):
        return sum(p.counts.get(key, 0.0) for p in untraced_passes)

    steps, step_wall, ingested = total("steps"), total("step_wall"), total("ingest_events")
    out["serve.ingest_us_per_event"] = total("ingest_seconds") / ingested * 1e6 if ingested else 0.0
    out["serve.step_overhead_frac"] = 1.0 - total("tick_busy") / step_wall if step_wall else 0.0
    out["serve.idle_step_frac"] = total("idle_steps") / steps if steps else 0.0
    out["serve.fairness"] = float(last.get("fairness", 0.0))
    out["serve.shed_events"] = float(total("shed_events"))
    out["serve.queue_depth_max"] = float(max(p.counts.get("queue_depth_max", 0) for p in untraced_passes))
    out["serve.stats_ms"] = float(last.get("stats_seconds", 0.0)) * 1e3
    return out
