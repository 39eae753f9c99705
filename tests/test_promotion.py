"""Promotion: a query starts on its NumPy kernels and is promoted to its C
kernels once it has paid for them.

The tier *equivalence* lives in the ``native`` plan of ``ENGINE_PLANS``;
this module pins the machinery that moves a running query from one tier to
the other — output identical before, during and after the swap on every
backend; nothing added to the compile or first-result path; a failing, slow
or absent compiler never reaching a caller of ``run``; a session's ticks
moving to the C tick entry with no byte of output changed, mid-session and
across a rewind — and the two things the disk cache must get right now that
it is on the default path: ``lowering_blockers`` independent of call order,
and no code loaded from an artifact or a directory that cannot be trusted.
"""

import hashlib
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
import time
import zlib

import pytest

from repro.apps import (
    ALL_APPLICATIONS,
    get_application,
    normalization_query,
    trend_trading_query,
    ysb_query,
)
from repro.core.codegen import native
from repro.core.codegen.compiled import NATIVE_TIER, NUMPY_TIER, compile_program
from repro.core.codegen.incremental import IncrementalKernelRuntime
from repro.core.frontend.query import source
from repro.core.runtime.engine import TiltEngine
from repro.core.runtime.ssbuf import SSBuf
from repro.datagen.sources import sources_for_streams
from repro.windowing import FIRST, MAX, MEAN

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


def make_hot(compiled) -> None:
    """Credit the query's NumPy twins with more wall time than any build
    costs, so the next ``run`` finds the break-even rule satisfied."""
    for kernel in compiled.kernels:
        kernel.numpy_seconds += 1e3


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
    monkeypatch.setattr(native, "cached", lambda spec: False)


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
#: (``rsi``) and one reading two intermediates point-wise (``normalize``)
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
    """``calls``: how often each C entry point has served a call so far."""
    calls = {native.RUN_ENTRY: 0, native.TICK_ENTRY: 0}

    def counting(method, entry):
        def wrapper(self, *args, **kwargs):
            calls[entry] += 1
            return method(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(native.NativeKernel, "run", counting(native.NativeKernel.run, native.RUN_ENTRY))
    monkeypatch.setattr(native.NativeKernel, "tick", counting(native.NativeKernel.tick, native.TICK_ENTRY))
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
            assert (early.plan["reason"], early.plan["tick_entry"]) == (
                "compiled output kernel", NUMPY_TIER
            )
            compiled.promote()
            late = engine.open_session(program, sources_for_streams(streams, events_per_poll=100))
            for session in (early, late):
                plan = session.plan
                assert plan["tick_path"] == "in-process"
                assert plan["reason"] == "promoted output kernel: ticks on tilt_tick"
                assert plan["tick_entry"] == native.TICK_ENTRY
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
        tick entry and every tick is one call of it."""
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
            assert (plan["tick_path"], plan["tick_entry"]) == ("in-process", native.TICK_ENTRY)
            assert plan["reason"] == "promoted output kernel: ticks on tilt_tick"
            (row,) = plan["kernels"]
            assert (row["tick_entry"], row["build_seconds"] > 0.0) == (native.TICK_ENTRY, True)
            spent, served = kernel.numpy_seconds, count_native_calls[native.TICK_ENTRY]
            session.run_to_exhaustion()
            assert kernel.numpy_seconds == spent  # nothing more ran on NumPy
            assert count_native_calls[native.TICK_ENTRY] > served
            assert count_native_calls[native.RUN_ENTRY] == 0
            assert session.result().output == batch
        assert native.stats()["compiles_total"] >= 1

    def test_session_on_a_promoted_query_gets_the_tick_entry_built(
        self, cold_cache, compile_cold
    ):
        """The tick entry is an artifact of its own, built only for a kernel
        a session ticks: one-shot use promotes the run entry alone, and a
        session opened afterwards queues the tick entry for the builder
        thread, ticking on the NumPy twin until it is published."""
        make_program, make_streams, per_tick = SESSION_QUERIES["trend"]
        program, streams = make_program(), make_streams()
        with TiltEngine(workers=1) as engine:
            batch = engine.run(program, streams).output
            compiled = engine.compile_cached(program)
            compiled.promote()
            (kernel,) = compiled.kernels
            assert kernel.entry(tick=False) == native.RUN_ENTRY
            assert kernel.entry(tick=True) == NUMPY_TIER
            assert len(list(cold_cache.glob("*.so"))) == 1
            assert not list(cold_cache.glob("*-tick.so"))
            session = engine.open_session(program, sources_for_streams(streams, events_per_poll=per_tick))
            deadline = time.monotonic() + 60.0
            while session.plan["tick_entry"] != native.TICK_ENTRY:
                assert time.monotonic() < deadline, session.plan
                time.sleep(0.002)
            assert (kernel.state, kernel.tick_pending) == (NATIVE_TIER, False)
            assert len(list(cold_cache.glob("*-tick.so"))) == 1
            session.run_to_exhaustion()
            assert session.result().output == batch

    @pytest.mark.parametrize("name", sorted(SESSION_QUERIES))
    def test_promotion_at_a_random_tick_is_invisible(self, name, compile_cold, count_native_calls):
        """The kept reduce sites are the only session state and NumPy keeps
        producing them, so promoting the query at any tick changes no byte
        of any delta: the tick-concat equals an all-NumPy session's delta by
        delta, and the one-shot run."""
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
                    assert count_native_calls == {native.RUN_ENTRY: 0, native.TICK_ENTRY: 0}
                    compiled.promote()

            got = tick_through(session, promote_at)
            assert got == want, (name, at)
            assert session.result().output == batch
            entries = {row["kernel"]: row["tick_entry"] for row in session.plan["kernels"]}
            # the output kernel on its tick entry, the intermediates it
            # rebuilds each tick on their run entry
            assert entries.pop(compiled.output) == native.TICK_ENTRY
            assert set(entries.values()) <= {native.RUN_ENTRY}
            emitted_after = sum(1 for snapshots, _, _ in want[at:] if snapshots)
            assert count_native_calls[native.TICK_ENTRY] >= emitted_after > 0
            assert (
                count_native_calls[native.RUN_ENTRY]
                == len(entries) * count_native_calls[native.TICK_ENTRY]
            )

    @pytest.mark.parametrize("agg", [MEAN, MAX, FIRST], ids=lambda agg: agg.name)
    def test_tick_entry_over_an_input_that_has_not_started(self, agg):
        """An input with no snapshot yet (a join's late side) still yields a
        grid point, so the tick entry is called over an empty buffer and a
        site that has ingested nothing: every window is φ, as on NumPy."""
        program = source("x").window(3, 1).aggregate(agg).to_program()
        (kernel,) = compile_program(program, codegen_tier=NATIVE_TIER).kernels
        kernel.ticked = True
        kernel.promote()
        assert kernel.entry(tick=True) == native.TICK_ENTRY, kernel.native_fallback_reason
        (twin,) = compile_program(program).kernels
        env = {"x": SSBuf.empty(0.0)}
        got = kernel.run(env, 0.0, 4.0, runtime=IncrementalKernelRuntime(kernel, ["x"]))
        want = twin.run(env, 0.0, 4.0, runtime=IncrementalKernelRuntime(twin, ["x"]))
        assert len(got) and not got.valid.any()
        assert fingerprint(got) == fingerprint(want)

    def test_rewind_after_promotion(self, compile_cold):
        """A checkpoint taken on NumPy, a promotion, a rewind: the sites are
        cleared and refilled from the retained carry-over by NumPy, and the
        C tick entry replays exactly what the NumPy twin replays."""
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
                assert session.plan["tick_entry"] == native.TICK_ENTRY
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
# observability of a build
# ---------------------------------------------------------------------- #
@requires_native
def test_each_build_is_one_span_and_one_counter_increment(compile_cold):
    app = get_application("pantom")  # lowerable kernels and a custom Python fold
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
