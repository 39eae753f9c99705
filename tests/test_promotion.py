"""Promotion: a query starts on its NumPy kernels and is promoted to its C
kernels once it has paid for them.

The tier *equivalence* lives in the ``native`` plan of ``ENGINE_PLANS``;
this module pins the machinery that moves a running query from one tier to
the other — output identical before, during and after the swap on every
backend; nothing added to the compile or first-result path; a failing, slow
or absent compiler never reaching a caller of ``run``; a session's ticks
moving to the C entry with no byte of output changed, mid-session and
across a rewind, on a grid the entry builds byte for byte as ``grid.py``
does — and the two things the disk cache must get right now that
it is on the default path: ``lowering_blockers`` independent of call order,
and no code loaded from an artifact or a directory that cannot be trusted.
"""

import contextlib
import hashlib
import json
import os
import random
import signal
import stat
import subprocess
import sys
import tempfile
import time
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import (
    ALL_APPLICATIONS,
    get_application,
    normalization_query,
    trend_trading_query,
    ysb_query,
)
from repro.core.codegen import native
from repro.core.codegen.compiled import NATIVE_TIER, NUMPY_TIER, compile_program
from repro.core.codegen.grid import evaluation_times_for_accesses
from repro.core.codegen.runtime_support import KernelRuntime, ReduceSite
from repro.core.frontend.query import source
from repro.core.ir.builder import IRBuilder
from repro.core.runtime.engine import TiltEngine
from repro.core.runtime.ssbuf import SSBuf
from repro.datagen.sources import sources_for_streams
from repro.errors import ExecutionError
from repro.serve import QueryService
from repro.windowing import FIRST, MAX, MEAN, SUM
from repro.windowing.prefix import PrefixRangeIndex

from fixtures.opaque import OPAQUE_PANTOM

requires_native = pytest.mark.skipif(
    not native.native_available(),
    reason="native codegen toolchain (cffi + C compiler) unavailable",
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fingerprint(buf) -> str:
    h = hashlib.sha256(repr((len(buf), buf.start_time)).encode())
    for array in (buf.times, buf.values, buf.valid):
        h.update(array.tobytes())
    return h.hexdigest()


def make_hot(compiled, seconds: float = 1e3) -> None:
    """Credit each of the query's kernels with ``seconds`` of NumPy time —
    by default more than any build costs, so the next ``run`` finds the
    break-even rule satisfied."""
    for kernel in compiled.kernels:
        kernel.charge(seconds)


def wait_decided(compiled, while_waiting=lambda: None, timeout=60.0) -> None:
    deadline = time.monotonic() + timeout
    while any(k.undecided for k in compiled.kernels):
        assert time.monotonic() < deadline, compiled.kernel_plan()
        while_waiting()
        time.sleep(0.002)


def unique_program(window: int):
    """A query no other test builds (the in-process kernel cache is keyed by
    digest, and these tests need the compiler to really be asked)."""
    return source("x").window(window, 1).aggregate(MEAN).to_program()


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty disk cache and empty in-process caches."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    native.clear_caches()
    yield tmp_path / "cache"
    native.clear_caches()


@pytest.fixture
def fake_cc(tmp_path, monkeypatch):
    """``fake_cc(body)``: point ``REPRO_NATIVE_CC`` at a shell script."""

    def install(body: str) -> None:
        script = tmp_path / "fake-cc"
        script.write_text("#!/bin/sh\n" + body + "\n")
        script.chmod(0o755)
        monkeypatch.setenv("REPRO_NATIVE_CC", str(script))
        native._reset_toolchain_cache()

    yield install
    monkeypatch.delenv("REPRO_NATIVE_CC", raising=False)
    native._reset_toolchain_cache()


@pytest.fixture
def compile_cold(monkeypatch):
    """Whatever the disk cache holds, compile as if it held nothing: queries
    start on NumPy and are promoted when the test says so."""
    monkeypatch.setattr(native, "cached", lambda spec, rec: False)


# ---------------------------------------------------------------------- #
# (a) output across the promotion point, on every backend
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def backends(tmp_path_factory):
    """One engine per backend over a disk cache of their own that starts
    empty — so the pool's workers, forked here with this environment, have
    nothing to load until the parent has built it.  The process engine goes
    first: what it builds, the other two fetch."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NATIVE_CACHE", str(tmp_path_factory.mktemp("promotion-cache")))
        native.clear_caches()
        engines = {
            "process2": TiltEngine(workers=2, executor_kind="process", partitions_per_worker=3),
            "thread3": TiltEngine(workers=3, executor_kind="thread", partitions_per_worker=3),
            "serial": TiltEngine(workers=1),
        }
        yield engines
        for engine in engines.values():
            engine.close()
        native.clear_caches()


def active_tiers(plan):
    return [row["active_tier"] for row in plan]


@requires_native
@pytest.mark.parametrize("name", sorted(ALL_APPLICATIONS))
def test_output_identical_before_during_and_after_promotion(
    name, backends, compile_cold, worker_kernel_plans
):
    app = ALL_APPLICATIONS[name]
    program, streams = app.program(), app.streams(500, seed=17)
    with TiltEngine(workers=1, codegen_tier="numpy") as oracle:
        want = fingerprint(oracle.run(program, streams).output)
    for label, engine in backends.items():
        compiled = engine.compile(program)
        in_workers = engine.dispatch_plan(compiled)["backend"] == "process"
        assert {k.state for k in compiled.kernels} == {NUMPY_TIER}
        run = lambda: fingerprint(engine.run(compiled, streams).output)  # noqa: E731
        seen = [run(), run()]
        if in_workers:
            for plan in worker_kernel_plans(engine, compiled):
                assert set(active_tiers(plan)) == {NUMPY_TIER}
        make_hot(compiled)
        wait_decided(compiled, while_waiting=lambda: seen.append(run()))
        seen += [run(), run()]
        if label == "serial":  # the other grids reassociate (see test_backends)
            assert seen[0] == want
        assert len(set(seen)) == 1, (label, compiled.kernel_plan())
        for kernel in compiled.kernels:
            if not native.lowering_blockers(kernel.spec):
                assert kernel.active_tier == NATIVE_TIER, (label, kernel.native_fallback_reason)
            else:
                assert kernel.state == "refused" and kernel.native_fallback_reason
        if in_workers:
            # the promotion made the query new payload bytes: the workers,
            # which never compile, unpickled it and loaded what the parent built
            for plan in worker_kernel_plans(engine, compiled):
                assert active_tiers(plan) == active_tiers(compiled.kernel_plan()), label


@requires_native
def test_process_engine_promotes_by_itself_from_a_cold_cache(cold_cache, worker_kernel_plans):
    """The pool's workers run the kernels, so the parent's copy of the query
    is charged what each dispatch took; once that pays for the build the
    parent builds, and the next dispatch ships the promoted query's new
    payload, which the workers unpickle and load from the disk cache."""
    program = unique_program(47)
    stream = {"x": get_application("trading").streams(4_000, seed=2)["stock"]}
    with TiltEngine(workers=2, executor_kind="process") as engine:
        compiled = engine.compile(program)
        first = engine.run(compiled, stream).output
        before = compiled.pickle_payload()
        (row,) = compiled.kernel_plan()
        assert row["state"] == NUMPY_TIER and row["numpy_seconds"] > 0.0
        wait_decided(compiled, while_waiting=lambda: engine.run(compiled, stream))
        assert compiled.kernels[0].active_tier == NATIVE_TIER
        assert compiled.pickle_payload() != before
        assert fingerprint(engine.run(compiled, stream).output) == fingerprint(first)
        for plan in worker_kernel_plans(engine, compiled):
            assert active_tiers(plan) == [NATIVE_TIER]
    assert native.stats()["compiles_total"] >= 1


# ---------------------------------------------------------------------- #
# (b) + lowering_blockers order: one fresh interpreter
# ---------------------------------------------------------------------- #
_FRESH_INTERPRETER = """
import json, os, sys, threading
from repro import TiltEngine
from repro.apps import ALL_APPLICATIONS
from repro.core.codegen import native

report = {}
engine = TiltEngine(workers=1)
compiled = {}
for name, app in sorted(ALL_APPLICATIONS.items()):
    compiled[name] = engine.compile(app.program())
    assert len(engine.run(compiled[name], app.streams(300, seed=1)).output)
report["requested"] = sorted({k.tier for q in compiled.values() for k in q.kernels})
report["states"] = sorted({k.state for q in compiled.values() for k in q.kernels})
report["cffi_imported"] = "cffi" in sys.modules
report["threads"] = threading.active_count()
try:
    os.waitpid(-1, os.WNOHANG)
    report["children"] = True
except ChildProcessError:
    report["children"] = False

# nothing has probed the toolchain yet: the common order now
specs = [k.spec for n in ("frauddet", "normalize") for k in compiled[n].kernels]
report["blockers_before_probe"] = [native.lowering_blockers(s) for s in specs]
report["available"] = native.native_available()
report["blockers_after_probe"] = [native.lowering_blockers(s) for s in specs]
engine.close()
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def fresh_interpreter(tmp_path_factory):
    """Compile and run every app once on a default engine in a new process
    with an empty disk cache and a compiler that records being called."""
    tmp = tmp_path_factory.mktemp("fresh")
    called = tmp / "cc-was-called"
    script = tmp / "recording-cc"
    script.write_text(f'#!/bin/sh\ntouch "{called}"\nexec cc "$@"\n')
    script.chmod(0o755)
    env = dict(
        os.environ,
        PYTHONPATH=SRC,
        REPRO_NATIVE_CACHE=str(tmp / "cache"),
        REPRO_NATIVE_CC=str(script),
    )
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_INTERPRETER],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    report["cc_called"] = called.exists()
    report["cache_created"] = (tmp / "cache").exists()
    return report


def test_compile_and_first_result_add_nothing(fresh_interpreter):
    """The ``setup_s`` guarantee: the default engine's compile and first
    result import no cffi, start no thread, spawn no process and touch no
    cache directory — every kernel is simply on its NumPy twin."""
    report = fresh_interpreter
    assert report["requested"] == [NATIVE_TIER] and report["states"] == [NUMPY_TIER]
    assert not report["cffi_imported"]
    assert report["threads"] == 1
    assert not report["children"] and not report["cc_called"]
    assert not report["cache_created"]


def test_lowering_blockers_do_not_depend_on_call_order(fresh_interpreter):
    """``frauddet``'s ``past_threshold`` and ``normalize``'s ``window_std``
    (extended-precision rows) used to report a ``long double`` mismatch
    until something had probed the toolchain."""
    report = fresh_interpreter
    assert report["blockers_before_probe"] == report["blockers_after_probe"]
    assert not any(report["blockers_before_probe"])


_COLD_PATH = """
import json, os, sys, threading
import repro
from repro.apps import REAL_WORLD_APPLICATIONS, get_application, trend_trading_query
from repro.datagen.sources import sources_for_streams

engine = repro.TiltEngine(workers=1)
program = trend_trading_query(short_window=10_000, long_window=40_000).to_program()
streams = get_application("trading").streams(20_000, seed=0)
session = engine.open_session(program, sources_for_streams(streams, events_per_poll=1_000))
while not session.tick().output_snapshots:
    assert not session.exhausted
for app in REAL_WORLD_APPLICATIONS:
    assert len(engine.run(app.program(), app.streams(2_500, seed=0)).output)
report = {
    "states": sorted({row["state"] for row in session.plan["kernels"]}),
    "cffi_imported": "cffi" in sys.modules,
    "threads": sorted(t.name for t in threading.enumerate()),
}
try:
    os.waitpid(-1, os.WNOHANG)
    report["children"] = True
except ChildProcessError:
    report["children"] = False
print(json.dumps(report))
"""


def test_cold_path_runs_nothing_native_before_break_even(tmp_path):
    """What ``setup_s`` times, in a fresh interpreter over an empty disk
    cache: ``import repro``, the deep-window session ticked to its first
    result, then each of the 8 applications run once at 2 500 events.  Ticks
    are charged to the NumPy twins now, so this pins that none of it gets a
    query hot: no cffi import, no builder thread, no child process."""
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_NATIVE_CACHE=str(tmp_path / "cache"))
    out = subprocess.run(
        [sys.executable, "-c", _COLD_PATH], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["states"] == [NUMPY_TIER]
    assert not report["cffi_imported"]
    assert report["threads"] == ["MainThread"]  # no repro-native-builder
    assert not report["children"]
    assert not (tmp_path / "cache").exists()


_FIRST_RESULTS = """
import json
from repro.core.codegen import native
from tiltbench.workloads import make_workload

report = {}
for name in ("oneshot_apps", "session_ysb", "session_deep_window", "service_fleet"):
    native.clear_caches()  # heat is per interpreter: each probe starts cold
    make_workload(name, 0, "setup").first_result()
    report[name] = native.stats()["compiles_total"]
print(json.dumps(report))
"""


def test_no_workload_first_result_builds_a_kernel(tmp_path):
    """What ``setup_s`` times for each benchmark workload, over an empty
    disk cache: the first result is served by NumPy twins alone, so no
    ``cc`` runs inside the timed probe."""
    root = os.path.dirname(SRC)
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join((SRC, root)), REPRO_NATIVE_CACHE=str(tmp_path / "cache")
    )
    out = subprocess.run(
        [sys.executable, "-c", _FIRST_RESULTS], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report == dict.fromkeys(report, 0) and len(report) == 4


@requires_native
@pytest.mark.parametrize("name", sorted(ALL_APPLICATIONS))
def test_every_app_kernel_promotes(name, compile_cold):
    """Zero refused kernels: every kernel of every application lowers to C,
    the Table-2 custom aggregates (``pantom``'s derivative, ``vibration``'s
    kurtosis) and ``where``'s ``%`` included."""
    compiled = compile_program(ALL_APPLICATIONS[name].program(), codegen_tier=NATIVE_TIER)
    compiled.promote()
    plan = compiled.kernel_plan()
    assert plan and [(row["state"], row["fallback_reason"]) for row in plan] == [
        (NATIVE_TIER, None)
    ] * len(plan), plan


# ---------------------------------------------------------------------- #
# (c) a compiler that fails, sleeps, or must not be called
# ---------------------------------------------------------------------- #
@requires_native
class TestHostileCompiler:
    def test_failing_compiler_is_a_counted_reason_never_an_exception(self, cold_cache, fake_cc):
        fake_cc("echo 'boom: no such target' >&2; exit 3")
        program = unique_program(31)
        stream = {"x": get_application("trading").streams(400, seed=2)["stock"]}
        with TiltEngine(workers=1, codegen_tier="numpy") as oracle:
            want = oracle.run(program, stream).output
        with TiltEngine(workers=1) as engine:
            compiled = engine.compile(program)
            make_hot(compiled)
            assert engine.run(compiled, stream).output == want  # hands off
            wait_decided(compiled)
            (row,) = compiled.kernel_plan()
            assert (row["state"], row["active_tier"]) == ("refused", NUMPY_TIER)
            assert "cc exited 3" in row["fallback_reason"] and "boom" in row["fallback_reason"]
            for _ in range(3):
                assert engine.run(compiled, stream).output == want
            compiled.promote()  # decided: nothing is rebuilt or recounted
            assert engine._m_native_fallbacks.value == 1
            assert engine._m_native_promotions.value == 0
            assert engine._m_native_queue.value == 0

    def test_slow_compiler_blocks_neither_run_nor_close(self, cold_cache, fake_cc):
        fake_cc("sleep 1")
        stream = {"x": get_application("trading").streams(400, seed=2)["stock"]}
        engine = TiltEngine(workers=1)
        first, second = (engine.compile(unique_program(w)) for w in (33, 35))
        for compiled in (first, second):
            make_hot(compiled)
            engine.run(compiled, stream)
        deadline = time.monotonic() + 10.0
        while first.kernels[0].state != "building":  # the builder has picked it up
            assert time.monotonic() < deadline, first.kernel_plan()
            time.sleep(0.002)
        assert second.kernels[0].state == "queued"
        assert engine._m_native_queue.value >= 1
        started = time.monotonic()
        for _ in range(5):
            engine.run(first, stream)
        engine.close()
        assert time.monotonic() - started < 0.5, "run or close waited for the compiler"
        assert second.kernels[0].state == NUMPY_TIER  # its queued build was dropped
        assert engine._m_native_queue.value == 0
        wait_decided(first, timeout=10.0)  # the build in flight still finishes
        assert first.kernels[0].state == "refused"  # (the script produced nothing)
        assert second.kernels[0].state == NUMPY_TIER

    def test_pool_workers_never_call_the_compiler(self, cold_cache, fake_cc, tmp_path):
        log = tmp_path / "cc.log"
        fake_cc(f'echo called >> "{log}"\nexec cc "$@"')
        program = unique_program(37)
        stream = {"x": get_application("trading").streams(600, seed=2)["stock"]}
        calls = lambda: len(log.read_text().splitlines()) if log.exists() else 0  # noqa: E731
        kw = dict(workers=2, executor_kind="process", partitions_per_worker=2)
        with TiltEngine(**kw) as engine:
            compiled = engine.compile(program)
            cold = engine.run(compiled, stream).output  # workers rebuild the kernel
            assert calls() == 0
            compiled.promote()  # this process compiles ...
            assert calls() == 1 and compiled.kernels[0].active_tier == NATIVE_TIER
        with TiltEngine(**kw) as engine:  # ... and fresh workers load its artifact
            assert fingerprint(engine.run(program, stream).output) == fingerprint(cold)
        assert calls() == 1


# ---------------------------------------------------------------------- #
# (d) sessions
# ---------------------------------------------------------------------- #
#: the session queries a promotion must be invisible in: a single fused
#: kernel over deep windows (``session_deep_window``), an element-mapped
#: count (``session_ysb``), an output kernel reducing two intermediates
#: (``rsi``), one reading two intermediates point-wise (``normalize``), a
#: windowed stddev over a program input (an extended-precision kept site),
#: a session long enough that its kept site is pruned and rebased many
#: times after the C entry has extended it (``long``), and the two Table-2
#: custom aggregates: ``pantom``'s first/last/count derivative (three
#: kernels) and ``vibration``'s derived kurtosis row (a five-component kept
#: site)
SESSION_QUERIES = {
    "trend": (
        lambda: trend_trading_query(short_window=100, long_window=400).to_program(),
        lambda: get_application("trading").streams(3_000, seed=6),
        100,
    ),
    "ysb": (
        lambda: ysb_query(window=0.25).to_program(),
        lambda: get_application("ysb").streams(12_000, seed=6),
        1_000,
    ),
    "rsi": (
        lambda: get_application("rsi").program(),
        lambda: get_application("rsi").streams(2_000, seed=6),
        100,
    ),
    "normalize": (
        lambda: normalization_query(window=2.0).to_program(),
        lambda: get_application("normalize").streams(4_000, seed=6),
        250,
    ),
    "stddev": (
        lambda: source("stock").window(30, 1).stddev().to_program(),
        lambda: get_application("trading").streams(3_000, seed=6),
        100,
    ),
    "long": (
        lambda: trend_trading_query(short_window=20, long_window=80).to_program(),
        lambda: get_application("trading").streams(20_000, seed=6),
        400,
    ),
    "pantom": (
        lambda: get_application("pantom").program(),
        lambda: get_application("pantom").streams(3_000, seed=6),
        250,
    ),
    "vibration": (
        lambda: get_application("vibration").program(),
        lambda: get_application("vibration").streams(12_000, seed=6),
        1_500,
    ),
}


def crc(buf) -> int:
    """What tiltbench checksums of every delta: times, validity and the
    valid values."""
    out = 0
    for array in (buf.times, buf.valid, buf.values[buf.valid]):
        out = zlib.crc32(array.tobytes(), out)
    return out


def tick_through(session, at_tick=lambda index: None) -> list:
    """Tick to exhaustion and close; ``at_tick(index)`` runs before each
    tick.  Returns ``(snapshots, crc, fingerprint)`` of every delta."""
    deltas = []
    while not session.exhausted:
        at_tick(len(deltas))
        deltas.append(session.tick().delta)
    deltas.append(session.close().delta)
    return [(len(d), crc(d), fingerprint(d)) for d in deltas]


@pytest.fixture
def count_native_calls(monkeypatch):
    """``calls``: how often the C entry point has served a call so far."""
    calls = {native.TICK_ENTRY: 0}
    tick = native.NativeKernel.tick

    def counting(self, *args, **kwargs):
        calls[native.TICK_ENTRY] += 1
        return tick(self, *args, **kwargs)

    monkeypatch.setattr(native.NativeKernel, "tick", counting)
    return calls


@requires_native
class TestSessions:
    def test_tick_path_is_the_same_before_and_after_promotion(self, compile_cold):
        """The tick path does not read the active tier: a session opened
        before its query is promoted and one opened after both tick
        in-process, and both report live what serves their ticks."""
        app = get_application("rsi")
        program, streams = app.program(), app.streams(900, seed=4)
        with TiltEngine(workers=1) as engine:
            batch = engine.run(program, streams).output
            compiled = engine.compile_cached(program)
            early = engine.open_session(program, sources_for_streams(streams, events_per_poll=100))
            for _ in range(3):
                early.tick()
            assert {row["state"] for row in early.plan["kernels"]} == {NUMPY_TIER}
            assert early.plan["reason"] == "compiled output kernel"
            compiled.promote()
            late = engine.open_session(program, sources_for_streams(streams, events_per_poll=100))
            for session in (early, late):
                plan = session.plan
                assert plan["tick_path"] == "in-process"
                assert plan["reason"] == "promoted output kernel: ticks on tilt_tick"
                assert {row["active_tier"] for row in plan["kernels"]} == {NATIVE_TIER}
                session.run_to_exhaustion()
                assert session.result().output == batch

    def test_hot_fused_session_is_promoted_and_ticks_on_c(
        self, cold_cache, compile_cold, monkeypatch, count_native_calls
    ):
        """``session_deep_window``'s shape: one fused output kernel, run
        under the session's runtime override on every tick.  Its ticks are
        charged to the NumPy twin, so the session gets hot by itself, the
        builder thread promotes it, and from then on its plan names the C
        entry and every tick is one call of it."""
        monkeypatch.setattr(native, "expected_build_seconds", lambda: 1e-3)
        make_program, make_streams, per_tick = SESSION_QUERIES["trend"]
        program, streams = make_program(), make_streams()
        with TiltEngine(workers=1) as engine:
            batch = engine.run(program, streams).output
            session = engine.open_session(program, sources_for_streams(streams, events_per_poll=per_tick))
            (kernel,) = session.compiled.kernels
            session.tick()
            assert kernel.numpy_seconds > 0.0
            for _ in range(20):  # (each tick costs well over 50 µs)
                if kernel.state != NUMPY_TIER:
                    break
                session.tick()
            assert kernel.state in ("queued", "building", NATIVE_TIER)
            wait_decided(session.compiled)
            assert kernel.state == NATIVE_TIER, kernel.native_fallback_reason
            plan = session.plan
            assert plan["tick_path"] == "in-process"
            assert plan["reason"] == "promoted output kernel: ticks on tilt_tick"
            (row,) = plan["kernels"]
            assert (row["active_tier"], row["build_seconds"] > 0.0) == (NATIVE_TIER, True)
            spent, served = kernel.numpy_seconds, count_native_calls[native.TICK_ENTRY]
            session.run_to_exhaustion()
            assert kernel.numpy_seconds == spent  # nothing more ran on NumPy
            assert count_native_calls[native.TICK_ENTRY] > served
            assert session.result().output == batch
        assert native.stats()["compiles_total"] >= 1

    def test_session_on_a_query_promoted_one_shot_ticks_on_c_from_its_first_tick(
        self, cold_cache, compile_cold, count_native_calls
    ):
        """A kernel has one artifact whatever serves it: a query promoted by
        one-shot use builds one unit per kernel, and a session opened on it
        afterwards ticks on that same C entry from its first tick, with
        nothing built, queued or charged to NumPy."""
        make_program, make_streams, per_tick = SESSION_QUERIES["trend"]
        program, streams = make_program(), make_streams()
        with TiltEngine(workers=1) as engine:
            batch = engine.run(program, streams).output
            compiled = engine.compile_cached(program)
            compiled.promote()
            (kernel,) = compiled.kernels
            assert kernel.active_tier == NATIVE_TIER, kernel.native_fallback_reason
            assert len(list(cold_cache.glob(f"tilt-{kernel.record.digest[:32]}-*.so"))) == 1
            built, spent = compiles(), kernel.numpy_seconds
            session = engine.open_session(program, sources_for_streams(streams, events_per_poll=per_tick))
            assert session.plan["reason"] == "promoted output kernel: ticks on tilt_tick"
            session.tick()
            assert count_native_calls[native.TICK_ENTRY] == 1
            session.run_to_exhaustion()
            assert (compiles(), kernel.numpy_seconds) == (built, spent)
            assert session.result().output == batch

    @pytest.mark.parametrize("name", sorted(SESSION_QUERIES))
    def test_promotion_at_a_random_tick_is_invisible(self, name, compile_cold, count_native_calls):
        """The kept reduce sites are the only session state: NumPy extends
        them up to the promotion and the C entry from then on, writing the bytes
        NumPy would have written, so promoting the query at any tick changes
        no byte of any delta: the tick-concat equals an all-NumPy session's
        delta by delta, and the one-shot run."""
        make_program, make_streams, per_tick = SESSION_QUERIES[name]
        program, streams = make_program(), make_streams()
        with TiltEngine(workers=1, codegen_tier=NUMPY_TIER) as engine:
            want = tick_through(
                engine.open_session(program, sources_for_streams(streams, events_per_poll=per_tick))
            )
        at = random.Random(name).randrange(1, len(want) - 2)
        with TiltEngine(workers=1) as engine:
            batch = engine.run(program, streams).output
            session = engine.open_session(program, sources_for_streams(streams, events_per_poll=per_tick))
            compiled = session.compiled

            def promote_at(index):
                if index == at:
                    assert count_native_calls == {native.TICK_ENTRY: 0}
                    compiled.promote()

            got = tick_through(session, promote_at)
            assert got == want, (name, at)
            assert session.result().output == batch
            assert {row["active_tier"] for row in session.plan["kernels"]} == {NATIVE_TIER}
            # every kernel on the C entry, once per tick: the output kernel
            # and each intermediate it rebuilds
            calls, kernels = count_native_calls[native.TICK_ENTRY], len(compiled.kernels)
            emitted_after = sum(1 for snapshots, _, _ in want[at:] if snapshots)
            assert calls % kernels == 0 and calls // kernels >= emitted_after > 0

    def test_promoted_tick_leaves_kept_sites_and_the_grid_to_c(
        self, compile_cold, monkeypatch, count_native_calls
    ):
        """Once promoted, neither a tick nor a one-shot run builds the grid
        in NumPy or runs a NumPy ingest — an extended-precision site's first
        chunk included, whose centre NumPy computes and C is handed — nor
        prunes a kept site in NumPy: the C entry drops and rebases it, the
        deltas unchanged.  Every call is one call of the one C entry."""
        calls = {"eval_times": 0, "ingest": 0, "prune": 0, "dropped": 0}

        def counting(patch, cls, name):
            method = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return method(self, *args, **kwargs)

            patch.setattr(cls, name, wrapper)

        drop = PrefixRangeIndex.drop

        def dropping(index, k):
            calls["dropped"] += 1
            drop(index, k)

        for name in ("long", "stddev"):
            make_program, make_streams, per_tick = SESSION_QUERIES[name]
            program, streams = make_program(), make_streams()
            with TiltEngine(workers=1, codegen_tier=NUMPY_TIER) as engine:
                batch = engine.run(program, streams).output
                want = tick_through(
                    engine.open_session(program, sources_for_streams(streams, events_per_poll=per_tick))
                )
            with TiltEngine(workers=1) as engine, monkeypatch.context() as patch:
                session = engine.open_session(program, sources_for_streams(streams, events_per_poll=per_tick))
                compiled = session.compiled
                compiled.promote()
                calls.update(eval_times=0, ingest=0, prune=0, dropped=0)
                counting(patch, KernelRuntime, "eval_times")
                counting(patch, ReduceSite, "ingest")
                counting(patch, PrefixRangeIndex, "prune")
                patch.setattr(PrefixRangeIndex, "drop", dropping)
                served = count_native_calls[native.TICK_ENTRY]
                assert engine.run(compiled, streams).output == batch
                assert count_native_calls[native.TICK_ENTRY] - served == len(compiled.kernels)
                first = session.tick().delta
                plan = session.plan
                tiers = {row["kernel"]: row["active_tier"] for row in plan["kernels"]}
                rows = [row for row in plan["sites"] if row["state"] == "persisted"]
                assert rows and {tiers[row["kernel"]] for row in rows} == {NATIVE_TIER}
                got = [(len(first), crc(first), fingerprint(first))] + tick_through(session)
                assert got == want, name
            assert (calls["eval_times"], calls["ingest"], calls["prune"]) == (0, 0, 0), name
            if name == "long":
                assert calls["dropped"] > 5

    @pytest.mark.parametrize("agg", [MEAN, MAX, FIRST], ids=lambda agg: agg.name)
    def test_tick_entry_over_an_input_that_has_not_started(self, agg):
        """An input with no snapshot yet (a join's late side) still yields a
        grid point, so the C entry is called over an empty buffer and a
        site that has ingested nothing: every window is φ, as on NumPy."""
        program = source("x").window(3, 1).aggregate(agg).to_program()
        (kernel,) = compile_program(program, codegen_tier=NATIVE_TIER).kernels
        assert kernel.active_tier == NATIVE_TIER, kernel.native_fallback_reason
        (twin,) = compile_program(program).kernels
        env = {"x": SSBuf.empty(0.0)}
        got = kernel.run(env, 0.0, 4.0, runtime=KernelRuntime(kernel, ["x"]))
        want = twin.run(env, 0.0, 4.0, runtime=KernelRuntime(twin, ["x"]))
        assert len(got) and not got.valid.any()
        assert fingerprint(got) == fingerprint(want)

    def test_rewind_after_promotion(self, compile_cold):
        """A checkpoint taken on NumPy, a promotion, a rewind: the sites are
        cleared and refilled from the retained carry-over — by the C entry,
        which replays exactly what the NumPy twin replays."""
        make_program, make_streams, per_tick = SESSION_QUERIES["trend"]
        program, streams = make_program(), make_streams()

        def replay(engine, promote):
            session = engine.open_session(program, sources_for_streams(streams, events_per_poll=per_tick))
            for _ in range(8):
                session.tick()
            token = session.checkpoint()
            first = [crc(session.tick().delta) for _ in range(6)]
            if promote:
                session.compiled.promote()
                assert session.plan["reason"] == "promoted output kernel: ticks on tilt_tick"
            session.rewind(token)
            again = [crc(session.tick().delta) for _ in range(6)]
            session.release(token)
            rest = tick_through(session)
            return first, again, rest, session.result().output

        with TiltEngine(workers=1, codegen_tier=NUMPY_TIER) as engine:
            want = replay(engine, promote=False)
        with TiltEngine(workers=1) as engine:
            batch = engine.run(program, streams).output
            got = replay(engine, promote=True)
        # (a replay re-bases the prefix sums on the retained carry-over, so
        # it equals the first pass to SSBuf tolerance only — but the two
        # tiers replay the same bytes)
        assert got[:3] == want[:3]
        assert got[3] == want[3] == batch


# ---------------------------------------------------------------------- #
# (d) sessions: the C entry's evaluation grid
# ---------------------------------------------------------------------- #
#: a two-input kernel with window edges and point accesses on both sides of
#: zero; its grid precisions: dyadic, non-dyadic, none
GRID_PRECISIONS = (0.25, 0.1, 0.0)
#: candidate times: values within a grid step of zero (so an index snaps to
#: -0.0 on one side and +0.0 on the other) and on the grid itself
NEAR_ZERO = [-1.0, -0.25, -0.1, -1e-10, -0.0, 0.0, 1e-10, 0.1, 0.25, 0.75, 1.0]


def grid_program(precision):
    b = IRBuilder()
    x, y = b.stream("x"), b.stream("y")
    out = x.window(-1.0, 0.0).reduce(SUM) + y.at(0.75) + y.at(-0.5)
    b.define("out", out, precision=precision)
    return b.build(output="out")


@pytest.fixture(scope="module")
def grid_kernels():
    """``precision -> (C kernel, NumPy twin)``."""
    kernels = {}
    for precision in GRID_PRECISIONS:
        program = grid_program(precision)
        (kernel,) = compile_program(program, codegen_tier=NATIVE_TIER).kernels
        assert kernel.active_tier == NATIVE_TIER, kernel.native_fallback_reason
        kernels[precision] = kernel, compile_program(program).kernels[0]
    return kernels


@st.composite
def grid_buffers(draw, scale):
    """A buffer over ``[-scale, scale]`` (empty sometimes), its start time
    before, at or far before its first snapshot."""
    times = draw(
        st.lists(
            st.floats(-scale, scale, allow_nan=False) | st.sampled_from(NEAR_ZERO), max_size=30
        )
    )
    times = np.unique(np.array(times, dtype=np.float64))
    lead = draw(st.sampled_from([0.0, 1e-10, 0.3, 2 * scale]))
    start = float(times[0]) - lead if len(times) else draw(st.floats(-scale, scale))
    values = np.arange(len(times), dtype=np.float64)
    return SSBuf(times, values, np.ones(len(times), dtype=bool), start_time=start)


@st.composite
def grid_cases(draw):
    scale = draw(st.sampled_from([2.0, 1000.0]))  # dense (bitmap) vs sparse (merge) indices
    bounds = st.floats(-scale, scale, allow_nan=False) | st.sampled_from(NEAR_ZERO)
    t_start, t_end = sorted(draw(st.lists(bounds, min_size=2, max_size=2, unique=True)))
    env = {"x": draw(grid_buffers(scale)), "y": draw(grid_buffers(scale))}
    return draw(st.sampled_from(GRID_PRECISIONS)), env, t_start, t_end


#: one snapshot at -0.1 whose own key is -0.0: five candidates, so grid.py
#: reads the grid off a bitmap (+0.0) up to 8 * 5 + 64 cells and merges it
#: (-0.0) past that; a t_end of 25.5 makes exactly 104 cells at p = 0.25
SWITCH = {"x": SSBuf([-0.1], [1.0], start_time=-0.1), "y": SSBuf.empty()}


def dense_cells(count: int = 5000) -> SSBuf:
    """``count`` snapshots in about 8 cells of 0.25: the galloping a
    ``session_ysb`` tick takes."""
    times = np.linspace(0.01, 1.99, count)
    return SSBuf(times, np.arange(count, dtype=np.float64) % 7, start_time=0.0)


@requires_native
class TestTickGrid:
    @settings(max_examples=300, deadline=None)
    @given(case=grid_cases())
    @example(  # +0.0 (-1.0 past a -1 offset) and -0.0 (-0.0 at offset 0) tie
        case=(0.0, {"x": SSBuf([-1.0, -0.0], [1.0, 2.0]), "y": SSBuf.empty()}, -0.5, 0.5)
    )
    @example(case=(0.25, {"x": dense_cells(), "y": SSBuf.empty()}, 0.0, 2.0))
    @example(case=(0.25, {"x": dense_cells(), "y": dense_cells()}, 0.0, 2.0))
    @example(case=(0.25, SWITCH, -0.2, 25.5))  # the bitmap's last cell count
    @example(case=(0.25, SWITCH, -0.2, 25.75))  # one cell past it: merged
    @example(  # a start time at t_start + 0 (excluded) and at t_end - 1 (included)
        case=(0.25, {"x": SSBuf([1.5], [1.0], start_time=0.5), "y": SSBuf.empty()}, 0.5, 1.5)
    )
    @example(  # the same with no precision
        case=(0.0, {"x": SSBuf([1.5], [1.0], start_time=0.5), "y": SSBuf.empty()}, 0.5, 1.5)
    )
    @example(  # t_end between grid points
        case=(0.25, {"x": SSBuf([0.3, 0.9], [1.0, 2.0]), "y": SSBuf([0.2], [3.0])}, 0.0, 1.3)
    )
    def test_tick_grid_is_grid_py_byte_for_byte(self, grid_kernels, case):
        """The grid the C entry builds is ``grid.py``'s to the byte — a
        zero's sign included — whichever of its paths (bitmap or merge,
        with or without precision) ``grid.py`` takes; and a call whose
        output lanes are too few for it grows them and calls again without
        extending the kept sites twice, to the same bytes as a call whose
        lanes were sized from the bound."""
        precision, env, t_start, t_end = case
        kernel, twin = grid_kernels[precision]
        want = evaluation_times_for_accesses(
            kernel.spec.accesses, env, kernel.spec.tdom, t_start, t_end
        )
        got = kernel.run(env, t_start, t_end, runtime=KernelRuntime(kernel, ["x", "y"]))
        assert got.times.tobytes() == want.tobytes()
        ref = twin.run(env, t_start, t_end, runtime=KernelRuntime(twin, ["x", "y"]))
        undersized = KernelRuntime(kernel, ["x", "y"])
        bound = native._Bound(kernel._native, undersized)
        bound._size_lanes(1)
        bound.presize = False  # as over a session's columns: grown only when outgrown
        again = kernel.run(env, t_start, t_end, runtime=undersized)
        assert undersized.bound.cap >= len(want)
        for got_array, again_array, want_array in zip(
            (got.values, got.valid), (again.values, again.valid), (ref.values, ref.valid)
        ):
            assert got_array.tobytes() == again_array.tobytes() == want_array.tobytes()
        assert again.times.tobytes() == want.tobytes()

    def test_the_switch_examples_straddle_grid_pys_bitmap(self, grid_kernels):
        """The two ``SWITCH`` examples above are the bitmap's last cell count
        and one past it: the zero grid point is +0.0 on one side and -0.0 on
        the other, and the C entry writes each."""
        kernel, _ = grid_kernels[0.25]
        signs = []
        for t_end in (25.5, 25.75):
            got = kernel.run(SWITCH, -0.2, t_end, runtime=KernelRuntime(kernel, ["x", "y"]))
            (zero,) = got.times[got.times == 0.0]
            signs.append(np.signbit(zero))
        assert signs == [False, True]

    @pytest.mark.parametrize("precision", [0.0, 0.25])
    def test_lanes_outgrown_mid_loop_with_a_kept_and_an_rmq_site(self, precision):
        """Lanes that run out halfway through the grid — without a
        precision, halfway through the merge the loop evaluates in them —
        and the entry counts the rest and is called again: the kept prefix
        site extended once, the rmq site rebuilt, to the bytes of a call with
        lanes sized from the bound, and of the NumPy twin."""
        b = IRBuilder()
        x = b.stream("x")
        b.define("out", x.window(-1.0, 0.0).reduce(SUM) + x.window(-2.0, 0.0).reduce(MAX), precision=precision)
        program = b.build(output="out")
        (kernel,) = compile_program(program, codegen_tier=NATIVE_TIER).kernels
        assert kernel.active_tier == NATIVE_TIER, kernel.native_fallback_reason
        (twin,) = compile_program(program).kernels
        times = np.cumsum(np.random.default_rng(5).uniform(0.05, 0.6, 400))
        env = {"x": SSBuf(times, np.sin(times))}
        t_end = float(times[-1])
        outs, sizes = [], []
        for cap in (None, 7):
            rt = KernelRuntime(kernel, ["x"])
            assert len(rt.kept) == 1  # the SUM; the MAX is an rmq site, rebuilt every call
            if cap is not None:
                bound = native._Bound(kernel._native, rt)
                bound._size_lanes(cap)
                bound.presize = False  # as over a session's columns
            outs.append(kernel.run(env, 0.0, t_end, runtime=rt))
            (key,) = rt.kept
            sizes.append(len(rt.sites[key].index))
        assert rt.bound.cap > 7  # grown, and the call repeated
        assert sizes[0] == sizes[1] == len(times)  # extended once
        want = twin.run(env, 0.0, t_end)
        for got in outs:
            for a, w in ((got.times, want.times), (got.values, want.values), (got.valid, want.valid)):
                assert a.tobytes() == w.tobytes()

    def test_undersized_lanes_grow_and_the_call_repeats_writing_nothing_past_them(
        self, grid_kernels, monkeypatch
    ):
        """Output lanes fewer than the grid's points: the entry returns the
        count having written nothing into them, the lanes grow to it and
        the second call fills them — the same bytes as lanes sized from the
        bound at once."""
        kernel, twin = grid_kernels[0.25]
        env = {"x": SSBuf(np.arange(1.0, 41.0), np.arange(40.0)), "y": SSBuf.empty()}
        points = len(evaluation_times_for_accesses(kernel.spec.accesses, env, kernel.spec.tdom, 0.0, 40.0))
        cap, fill = points // 2, 0xA5
        handed = []
        size_lanes = native._Bound._size_lanes

        def padded(self, lanes):  # the lanes asked for, then a guard zone
            size_lanes(self, lanes + 64)
            self.cap = self.st.cap = lanes
            for array in self.lanes:
                array.view(np.uint8)[:] = fill
            handed.append(self.lanes)

        monkeypatch.setattr(native._Bound, "_size_lanes", padded)
        rt = KernelRuntime(kernel)
        bound = native._Bound(kernel._native, rt)
        bound._size_lanes(cap)
        bound.presize = False  # as over a session's columns: grown only when outgrown
        got = kernel.run(env, 0.0, 40.0, runtime=rt)
        first, second = handed
        for array in first:  # the call that found them too few wrote nothing
            assert (array.view(np.uint8) == fill).all()
        assert len(second[0]) - 64 == max(points, 2 * cap)
        for array in second:
            assert (array[points:].view(np.uint8) == fill).all()
        want = twin.run(env, 0.0, 40.0)
        for got_array, want_array in zip((got.times, got.values, got.valid), (want.times, want.values, want.valid)):
            assert got_array.tobytes() == want_array.tobytes()


# ---------------------------------------------------------------------- #
# (e) heat is kept per kernel digest, process-wide
# ---------------------------------------------------------------------- #
#: what the break-even rule takes one build to cost in these tests
BREAK_EVEN = 10.0


def compiles() -> int:
    return native.stats()["compiles_total"]


@requires_native
class TestPooledHeat:
    @pytest.fixture(autouse=True)
    def fixed_break_even(self, cold_cache, monkeypatch):
        monkeypatch.setattr(native, "expected_build_seconds", lambda: BREAK_EVEN)

    def test_two_engines_below_break_even_pay_together_for_one_build(self):
        """Each engine's copy of ``rsi`` has earned 0.6 of a build: neither
        is hot alone, the second makes the digest hot, its query builds the
        three kernels once, and the first engine's copy then promotes from
        the records — no second ``cc`` — with the output unchanged."""
        app = get_application("rsi")
        streams = app.streams(900, seed=4)
        with TiltEngine(workers=1, codegen_tier=NUMPY_TIER) as oracle:
            want = fingerprint(oracle.run(app.program(), streams).output)
        first_engine, second_engine = TiltEngine(workers=1), TiltEngine(workers=1)
        with first_engine, second_engine:
            first = first_engine.compile(app.program())
            make_hot(first, 0.6 * BREAK_EVEN)
            assert fingerprint(first_engine.run(first, streams).output) == want
            assert {k.state for k in first.kernels} == {NUMPY_TIER}  # not hot alone
            before = compiles()
            second = second_engine.compile(app.program())  # another program object
            assert [k.record for k in second.kernels] == [k.record for k in first.kernels]
            make_hot(second, 0.6 * BREAK_EVEN)
            assert fingerprint(second_engine.run(second, streams).output) == want  # hands off
            wait_decided(second)
            assert compiles() - before == len(second.kernels)  # one unit each
            assert fingerprint(first_engine.run(first, streams).output) == want  # hands off
            wait_decided(first)
            assert compiles() - before == len(second.kernels)  # memory hits
            for compiled, engine in ((first, first_engine), (second, second_engine)):
                assert {k.active_tier for k in compiled.kernels} == {NATIVE_TIER}
                assert fingerprint(engine.run(compiled, streams).output) == want
            rows = zip(first.kernel_plan(), second.kernel_plan())
            for mine, theirs in rows:
                assert mine["digest"] == theirs["digest"] is not None
                assert mine["numpy_seconds"] == theirs["numpy_seconds"] > BREAK_EVEN

    def test_tenants_submitting_equal_programs_share_one_build(self):
        """Two tenants of one service, each with its own program object of
        the same query: two compiled queries, one pooled heat, one build —
        each kernel's one unit once."""
        make_program, make_streams, per_tick = SESSION_QUERIES["trend"]
        streams = make_streams()
        with TiltEngine(workers=1, codegen_tier=NUMPY_TIER) as oracle:
            want = oracle.run(make_program(), streams).output
        with TiltEngine(workers=1) as engine, QueryService(engine) as service:
            for name in ("a", "b"):
                feed = sources_for_streams(streams, events_per_poll=per_tick)
                service.submit(make_program(), name=name, sources=feed)
            a, b = (service._tenant(name).session.compiled for name in ("a", "b"))
            assert a is not b
            assert [k.record for k in a.kernels] == [k.record for k in b.kernels]
            before = compiles()
            make_hot(a, 0.6 * BREAK_EVEN)
            service.step()
            assert {k.state for k in a.kernels + b.kernels} == {NUMPY_TIER}
            make_hot(b, 0.6 * BREAK_EVEN)
            deadline = time.monotonic() + 60.0
            while any(k.undecided for k in a.kernels + b.kernels):
                assert time.monotonic() < deadline, (a.kernel_plan(), b.kernel_plan())
                service.step()
            assert compiles() - before == len(a.kernels)
            rows = [service.stats().tenants[name]["plan"] for name in ("a", "b")]
            assert rows[0]["kernels"][0]["digest"] == rows[1]["kernels"][0]["digest"]
            service.run_until_idle()
            for name in ("a", "b"):
                plan = service.stats().tenants[name]["plan"]
                assert plan["reason"] == "promoted output kernel: ticks on tilt_tick"
                assert service.result(name).output == want
        assert compiles() - before == len(a.kernels)

    def test_a_built_query_is_adopted_at_compile(self, monkeypatch):
        """Once the records hold every kernel of a query, an equal query a
        new engine compiles comes back promoted — memory hits taken on the
        compiling thread, no ``cc`` and nothing queued for the builder — so
        a new service's sessions tick on C from their first tick."""
        app = get_application("rsi")
        streams = app.streams(900, seed=4)
        with TiltEngine(workers=1, codegen_tier=NUMPY_TIER) as oracle:
            want = fingerprint(oracle.run(app.program(), streams).output)
        with TiltEngine(workers=1) as engine:
            engine.compile(app.program()).promote()
        queued = []
        monkeypatch.setattr(native, "submit_build", lambda owner, query: queued.append(query))
        before, hits = compiles(), native.stats()["mem_hits_total"]
        with TiltEngine(workers=1) as engine:
            compiled = engine.compile(app.program())
            assert {k.state for k in compiled.kernels} == {NATIVE_TIER}
            assert native.stats()["mem_hits_total"] - hits == len(compiled.kernels)
            assert fingerprint(engine.run(compiled, streams).output) == want
        assert (compiles(), queued) == (before, [])

    def test_record_table_stays_within_its_bound(self):
        """More distinct kernels than the table holds: the least recently
        compiled digests are forgotten, the newest kept."""
        limit = native._KERNEL_CACHE_LIMIT
        with TiltEngine(workers=1) as engine:
            queries = []
            for window in range(3, limit + 12):
                queries.append(engine.compile(unique_program(window)))
                assert len(native._RECORDS) <= limit
        digests = [q.kernels[0].record.digest for q in queries]
        assert len(set(digests)) == len(digests) > limit
        assert digests[-1] in native._RECORDS and digests[0] not in native._RECORDS

    def test_refused_digest_is_refused_again_without_the_compiler(self, fake_cc, tmp_path):
        log = tmp_path / "cc.log"
        fake_cc(f'echo called >> "{log}"\necho "boom" >&2; exit 3')
        stream = {"x": get_application("trading").streams(400, seed=2)["stock"]}
        reasons = []
        for attempt in range(2):  # a second engine, and a second program object
            with TiltEngine(workers=1) as engine:
                compiled = engine.compile(unique_program(53))
                if not attempt:  # the second copy is hot from the record
                    make_hot(compiled, BREAK_EVEN)
                engine.run(compiled, stream)
                wait_decided(compiled)
                (row,) = compiled.kernel_plan()
                assert (row["state"], row["active_tier"]) == ("refused", NUMPY_TIER)
                assert engine._m_native_fallbacks.value == 1
                reasons.append(row["fallback_reason"])
        assert "boom" in reasons[0] and reasons[0] == reasons[1]
        assert log.read_text().splitlines() == ["called"]


_EXIT_MID_BUILD = """
import os, sys, threading, time
from repro import TiltEngine
from repro.core.codegen import native
from repro.core.frontend.query import source
from repro.core.ir.builder import IRBuilder
from repro.windowing import MEAN


class LateLock:
    # the builder thread takes the spawn lock half a second late: were a
    # compiler started before it is registered, the interpreter would exit
    # inside that gap every time
    def __init__(self, lock):
        self.lock = lock

    def __enter__(self):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.5)
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


native._SPAWN_LOCK = LateLock(native._SPAWN_LOCK)
pids = sys.argv[1]
engine = TiltEngine(workers=1)
compiled = engine.compile(source("x").window(57, 1).aggregate(MEAN).to_program())
compiled.hand_off()  # to the builder thread, as a hot run would
deadline = time.monotonic() + 30
while not (os.path.exists(pids) and len(open(pids).read().split()) == 2):
    assert time.monotonic() < deadline
    time.sleep(0.01)
print(os.getpid())
"""


def alive(pid: int) -> bool:
    """Running (a zombie left for init to reap counts as gone)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@requires_native
def test_no_compiler_outlives_the_interpreter(tmp_path):
    """The interpreter exits while the builder thread's ``cc`` — here a
    script that forks a child of its own, as ``cc`` forks ``cc1`` — is
    running: both are killed at exit instead of being left to init, and no
    temp file of the build stays in the cache directory.  The builder takes
    the spawn lock late, so a compiler started before it is registered
    would be missed by the exit hook every time, not only under load."""
    pids = tmp_path / "cc.pids"
    script = tmp_path / "slow-cc"
    script.write_text(f'#!/bin/sh\nsleep 60 &\necho $$ $! > "{pids}"\nwait\n')
    script.chmod(0o755)
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_NATIVE_CACHE=str(cache), REPRO_NATIVE_CC=str(script))
    out = subprocess.run(
        [sys.executable, "-c", _EXIT_MID_BUILD, str(pids)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    compiler = [int(pid) for pid in pids.read_text().split()]
    try:
        assert out.returncode == 0, out.stderr
        deadline = time.monotonic() + 5.0
        while any(alive(pid) for pid in compiler):
            assert time.monotonic() < deadline, f"compiler {compiler} outlived the interpreter"
            time.sleep(0.01)
        tag = f".{out.stdout.split()[-1]}."
        assert not [p.name for p in cache.iterdir() if tag in p.name]
    finally:
        for pid in compiler:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)


# ---------------------------------------------------------------------- #
# observability of a build
# ---------------------------------------------------------------------- #
@requires_native
def test_each_build_is_one_span_and_one_counter_increment(compile_cold):
    app = OPAQUE_PANTOM  # lowerable kernels and a custom Python fold
    with TiltEngine(workers=1, trace=True) as engine:
        compiled = engine.compile(app.program())
        compiled.promote()
        compiled.promote()
        spans = [r for r in engine.tracer.drain() if r.name == "native.build"]
        assert sorted(s.attrs["kernel"] for s in spans) == sorted(k.name for k in compiled.kernels)
        states = [s.attrs["state"] for s in spans]
        assert engine._m_native_promotions.value == states.count(NATIVE_TIER) >= 1
        assert engine._m_native_fallbacks.value == states.count("refused") >= 1
        for span, row in zip(spans, compiled.kernel_plan()):
            assert span.attrs["reason"] == row["fallback_reason"]
        built = sum(row["build_seconds"] for row in compiled.kernel_plan())
        assert engine._m_native_compile_seconds.value == pytest.approx(built)


# ---------------------------------------------------------------------- #
# the disk cache is only trusted as far as it can be checked
# ---------------------------------------------------------------------- #
@requires_native
class TestCacheTrust:
    @pytest.mark.parametrize("damage", ["truncated", "no sidecar"])
    def test_damaged_artifact_is_rejected_and_rebuilt(self, cold_cache, damage):
        """A truncated ``.so`` used to be ``dlopen``ed — SIGBUS, every run."""
        program = unique_program(39)
        compile_program(program, codegen_tier=NATIVE_TIER)
        (so,) = cold_cache.glob("tilt-*.so")
        if damage == "truncated":
            # a new inode: the intact file stays mapped in this process
            stub = so.with_suffix(".stub")
            stub.write_bytes(so.read_bytes()[:1000])
            os.replace(stub, so)
        else:
            os.unlink(str(so) + ".sum")
        native.clear_caches()
        before = native.stats()
        (kernel,) = compile_program(program, codegen_tier=NATIVE_TIER).kernels
        after = native.stats()
        assert kernel.active_tier == NATIVE_TIER, kernel.native_fallback_reason
        assert after["cache_rejects_total"] == before["cache_rejects_total"] + 1
        assert after["compiles_total"] == before["compiles_total"] + 1
        assert native._artifact_valid(str(so))

    def test_pool_worker_path_rejects_instead_of_compiling(self, cold_cache):
        program = unique_program(41)
        (kernel,) = compile_program(program, codegen_tier=NATIVE_TIER).kernels
        (so,) = cold_cache.glob("tilt-*.so")
        os.unlink(str(so) + ".sum")
        native.clear_caches()
        before = native.stats()
        assert native.load_cached(kernel.spec) == (None, None)
        after = native.stats()
        assert after["cache_rejects_total"] == before["cache_rejects_total"] + 1
        assert after["compiles_total"] == before["compiles_total"]
        assert after["fallbacks_total"] == before["fallbacks_total"]

    def test_another_emissions_artifact_is_no_hit(self, cold_cache, monkeypatch):
        """An artifact of the digest under another C text's hash (an older
        emission) is not cached: ``engine.compile`` leaves the query to the
        break-even rule, and a pool worker neither loads nor rejects it."""
        program = unique_program(45)
        compile_program(program, codegen_tier=NATIVE_TIER)
        (so,) = cold_cache.glob("tilt-*.so")
        stale = so.with_name(f"{so.name.rsplit('-', 1)[0]}-000000000000.so")
        for suffix in ("", ".sum"):
            os.replace(str(so) + suffix, str(stale) + suffix)
        native.clear_caches()
        queued = []
        monkeypatch.setattr(native, "submit_build", lambda owner, query: queued.append(query))
        before = native.stats()
        with TiltEngine(workers=1) as engine:
            (kernel,) = engine.compile(program).kernels
            assert not native.cached(kernel.spec, kernel.record)
            assert (kernel.state, queued) == (NUMPY_TIER, [])
            assert native.load_cached(kernel.spec) == (None, None)
        assert native.stats() == before

    def test_default_directory_is_created_private(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NATIVE_CACHE", raising=False)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        native.clear_caches()
        (kernel,) = compile_program(unique_program(43), codegen_tier=NATIVE_TIER).kernels
        native.clear_caches()
        assert kernel.active_tier == NATIVE_TIER, kernel.native_fallback_reason
        (created,) = tmp_path.glob("repro-native-*")
        assert stat.S_IMODE(created.stat().st_mode) == 0o700

    @pytest.mark.parametrize("why", ["writable by others", "owned by another user"])
    def test_untrusted_directory_is_refused_with_the_reason(self, cold_cache, monkeypatch, why):
        cold_cache.mkdir()
        if why == "writable by others":
            cold_cache.chmod(0o777)
        else:
            mine = os.getuid()
            monkeypatch.setattr(os, "getuid", lambda: mine + 1)
        with TiltEngine(workers=1) as engine:
            compiled = engine.compile(unique_program(45))
            compiled.promote()
            (row,) = compiled.kernel_plan()
            assert (row["state"], row["active_tier"]) == ("refused", NUMPY_TIER)
            assert "refusing to load code from it" in row["fallback_reason"]
            assert engine._m_native_fallbacks.value == 1
        assert not list(cold_cache.iterdir())
