"""Promotion: a query starts on its NumPy kernels and is promoted to its C
kernels once it has paid for them.

The tier *equivalence* lives in the ``native`` plan of ``ENGINE_PLANS``;
this module pins the machinery that moves a running query from one tier to
the other — output identical before, during and after the swap on every
backend; nothing added to the compile or first-result path; a failing, slow
or absent compiler never reaching a caller of ``run``; sessions unaffected —
and the two things the disk cache must get right now that it is on the
default path: ``lowering_blockers`` independent of call order, and no code
loaded from an artifact or a directory that cannot be trusted.
"""

import hashlib
import json
import os
import stat
import subprocess
import sys
import tempfile
import time

import pytest

from repro.apps import ALL_APPLICATIONS, get_application, trend_trading_query
from repro.core.codegen import native
from repro.core.codegen.compiled import NATIVE_TIER, NUMPY_TIER, compile_program
from repro.core.frontend.query import source
from repro.core.runtime.engine import TiltEngine
from repro.datagen.sources import sources_for_streams
from repro.windowing import MEAN

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
@requires_native
class TestSessions:
    def test_tick_path_is_the_same_before_and_after_promotion(self, compile_cold):
        """The tick path no longer reads the active tier: a session opened
        before its query is promoted and one opened after both tick
        in-process, and both report the kernels' tiers live."""
        app = get_application("rsi")
        program, streams = app.program(), app.streams(900, seed=4)
        with TiltEngine(workers=1) as engine:
            batch = engine.run(program, streams).output
            compiled = engine.compile_cached(program)
            early = engine.open_session(program, sources_for_streams(streams, events_per_poll=100))
            for _ in range(3):
                early.tick()
            assert {row["state"] for row in early.plan["kernels"]} == {NUMPY_TIER}
            compiled.promote()
            late = engine.open_session(program, sources_for_streams(streams, events_per_poll=100))
            for session in (early, late):
                assert session.plan["tick_path"] == "in-process"
                assert session.plan["reason"] == "compiled output kernel"
                assert {row["active_tier"] for row in session.plan["kernels"]} == {NATIVE_TIER}
                session.run_to_exhaustion()
                assert session.result().output == batch

    def test_single_fused_kernel_session_builds_nothing(self, compile_cold):
        """``session_deep_window``'s shape: one fused output kernel, run
        under the session's runtime override on every tick — no C kernel
        could serve those calls, so none is charged for, queued or built."""
        program = trend_trading_query(short_window=100, long_window=400).to_program()
        streams = get_application("trading").streams(3_000, seed=6)
        before = native.stats()
        with TiltEngine(workers=1) as engine:
            session = engine.open_session(
                program, sources_for_streams(streams, events_per_poll=100)
            )
            session.run_to_exhaustion()
            assert session.plan["tick_path"] == "in-process"
            (row,) = session.plan["kernels"]
            assert (row["state"], row["numpy_seconds"], row["build_seconds"]) == (NUMPY_TIER, 0.0, 0.0)
            assert engine._m_native_queue.value == 0
        assert native.stats() == before


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
