"""Concurrency tests: many threads sharing one engine.

The multi-tenant service opens, advances and closes sessions from multiple
threads against a single :class:`TiltEngine`, so the engine's shared state
— the compile cache, the lazily created worker pool, and the open-session
registry — must be race-free, and a full ingest queue must never deadlock
its producer.
"""

import threading

import pytest

from repro.apps import get_application
from repro.core.codegen.compiled import compile_program
from repro.core.codegen.runtime_support import KernelRuntime
from repro.core.frontend.query import PAYLOAD, source
from repro.core.runtime.engine import TiltEngine
from repro.core.runtime.ssbuf import ssbuf_from_stream
from repro.core.runtime.stream import EventStream
from repro.datagen.sources import sources_for_streams
from repro.errors import ExecutionError
from repro.windowing import MEAN, SUM

N_THREADS = 6

E = PAYLOAD


class TestConcurrentSessions:
    def test_threaded_session_lifecycles_match_batch(self):
        """N threads each open/ingest/advance/close a session on one engine;
        every thread's output must equal the batch run over its dataset."""
        app = get_application("trading")
        program = app.program()
        engine = TiltEngine(workers=2)
        datasets = [app.streams(400, seed=i) for i in range(N_THREADS)]
        outputs = [None] * N_THREADS
        errors = []
        barrier = threading.Barrier(N_THREADS)

        def worker(i):
            try:
                barrier.wait()  # maximize open_session contention
                sources = sources_for_streams(datasets[i], events_per_poll=97)
                session = engine.open_session(program, sources)
                while not session.exhausted:
                    session.tick()
                session.close()
                outputs[i] = session.result().output
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append((i, exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors, errors
        engine.close()
        reference = TiltEngine(workers=1)
        for i in range(N_THREADS):
            assert outputs[i] == reference.run(program, datasets[i]).output
        reference.close()

    def test_compile_cached_races_to_one_compilation(self):
        """Concurrent compile_cached calls over the same program must all
        return the identical CompiledQuery object."""
        engine = TiltEngine(workers=1)
        program = get_application("trading").program()
        results = [None] * N_THREADS
        barrier = threading.Barrier(N_THREADS)

        def worker(i):
            barrier.wait()
            results[i] = engine.compile_cached(program)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert all(r is results[0] for r in results)
        assert results[0] is not None

    def test_shared_executor_races_to_one_pool(self):
        engine = TiltEngine(workers=3)
        results = [None] * N_THREADS
        barrier = threading.Barrier(N_THREADS)

        def worker(i):
            barrier.wait()
            results[i] = engine.shared_executor()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert all(r is results[0] for r in results)
        engine.close()


class TestKernelRuntimeIsolation:
    """Regression tests for the shared-KernelRuntime races.

    The old runtime kept a ``_range_cache`` on the shared per-kernel
    ``KernelRuntime``, keyed by ``id(buf)`` and wiped by every
    ``eval_times`` call — a cross-thread stomp (one partition clearing
    another's cache mid-run) and an ``id``-reuse staleness hazard (a freed
    buffer's id recycled onto different data, resurrecting an aggregator
    built over the wrong partition).  Execution state is now per-invocation:
    the generated kernel allocates a fresh cache dict per run and threads it
    through ``rt.reduce``.
    """

    @staticmethod
    def _elem_mapped_program():
        # elem-mapped reduce: the hazard path builds (and used to cache, on
        # the shared runtime) a derived mapped buffer per (input, aggregate)
        return source("stock").window(12, 1).aggregate(SUM, element=E * E).to_program()

    def test_kernel_runtime_carries_no_execution_state(self):
        """A compiled kernel holds no runtime: every one-shot call gets a
        fresh one, so concurrent partitions share no execution state (the
        old shared runtime failed here by carrying ``_range_cache``)."""
        compiled = compile_program(self._elem_mapped_program())
        for kernel in compiled.kernels:
            assert not hasattr(kernel, "runtime")
            assert not hasattr(KernelRuntime(kernel), "_range_cache")

    def test_concurrent_eval_times_cannot_stomp_a_running_invocation(self, monkeypatch):
        """Simulates the hostile interleave: partition B calls
        ``eval_times`` while partition A is mid-run.  A's reduce-site cache
        must survive — the same (input, aggregate) key is reused, not
        rebuilt (the old runtime cleared it and rebuilt)."""
        import repro.core.codegen.runtime_support as rs

        builds = []

        class CountingSite(rs.ReduceSite):
            def __init__(self, agg, *rest):
                builds.append(agg.name)
                super().__init__(agg, *rest)

        monkeypatch.setattr(rs, "ReduceSite", CountingSite)
        program = source("stock").window(10, 1).aggregate(MEAN).to_program()
        compiled = compile_program(program)
        rt = KernelRuntime(compiled.kernels[0])
        stream = EventStream.from_samples([float(i) for i in range(60)], period=1.0)
        env_a = {"stock": ssbuf_from_stream(stream)}
        env_b = {"stock": ssbuf_from_stream(stream).slice(10.0, 50.0)}

        ts = rt.eval_times(env_a, 0.0, 50.0)          # partition A starts
        run_cache = {}
        rt.reduce(env_a, "stock", -10.0, 0.0, 0, -1, ts, run_cache)
        assert len(builds) == 1
        rt.eval_times(env_b, 10.0, 50.0)              # partition B starts mid-run
        rt.reduce(env_a, "stock", -5.0, 0.0, 0, -1, ts, run_cache)
        assert len(builds) == 1, "concurrent eval_times invalidated a live run cache"

    def test_concurrent_elem_mapped_runs_byte_identical_to_serial(self):
        """Many threads hammer one compiled elem-mapped reduce query over
        multi-partition runs with distinct data; every output must be
        byte-identical to the serial run over the same data."""
        program = self._elem_mapped_program()
        datasets = []
        for i in range(N_THREADS):
            stream = EventStream.from_samples(
                [float(((i + 1) * 37 + j * 7) % 101) for j in range(300)],
                period=1.0,
                name="stock",
            )
            datasets.append({"stock": stream})
        with TiltEngine(workers=1) as serial:
            references = [serial.run(program, d).output for d in datasets]

        engine = TiltEngine(workers=2, partitions_per_worker=4)
        compiled = engine.compile(program)
        rounds = 5
        failures = []
        errors = []
        barrier = threading.Barrier(N_THREADS)

        def worker(i):
            try:
                barrier.wait()
                for _ in range(rounds):
                    out = engine.run(compiled, datasets[i]).output
                    if out != references[i]:
                        failures.append(i)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append((i, exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        engine.close()
        assert not errors, errors
        assert not failures, f"threads {failures} produced non-serial output"


class TestEngineCloseWithOpenSessions:
    def test_close_aborts_open_sessions(self):
        """Engine teardown must not leave sessions dangling on a shut-down
        pool: still-open sessions are aborted (closed, no flush)."""
        app = get_application("trading")
        engine = TiltEngine(workers=2)
        streams = app.streams(500, seed=3)
        s1 = engine.open_session(
            app.program(), sources_for_streams(streams, events_per_poll=100)
        )
        s2 = engine.open_session(
            app.program(), sources_for_streams(streams, events_per_poll=200)
        )
        s1.tick()
        assert set(engine.open_sessions()) == {s1, s2}
        engine.close()
        assert s1.closed and s2.closed
        assert engine.open_sessions() == []
        with pytest.raises(ExecutionError):
            s1.tick()
        with pytest.raises(ExecutionError):
            s2.close()

    def test_closed_sessions_drop_out_of_registry(self):
        app = get_application("trading")
        engine = TiltEngine(workers=1)
        streams = app.streams(300, seed=4)
        session = engine.open_session(
            app.program(), sources_for_streams(streams, events_per_poll=100)
        )
        session.run_to_exhaustion()
        assert engine.open_sessions() == []
        engine.close()

    def test_abort_is_idempotent_and_quiet(self):
        app = get_application("trading")
        engine = TiltEngine(workers=1)
        streams = app.streams(300, seed=5)
        session = engine.open_session(
            app.program(), sources_for_streams(streams, events_per_poll=100)
        )
        session.abort()
        session.abort()
        assert session.closed
        engine.close()
