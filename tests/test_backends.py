"""Cross-backend execution equivalence and process-parallel specifics.

The paper's scalability argument rests on compiled kernels being pure
functions of their partition; the worker-pool backend must therefore be
unobservable in the output.  This suite pins that down: every application in
``repro.apps`` produces the reference interpreter's snapshot buffers on
every plan of ``ENGINE_PLANS`` (serial, thread and process pools, traced,
native, interpreted — including over ragged partition grids), a streaming
session ticks identically on the process backend, and the serialization
contract (specs, buffers, partitions, payload caching, the counted and
logged in-process fallback for unpicklable queries) holds.
"""

import logging
import os
import pickle
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.apps import ALL_APPLICATIONS, get_application
from repro.core.codegen import native as native_codegen
from repro.core.codegen.compiled import CompiledKernel, compile_program
from repro.core.frontend.query import PAYLOAD, source
from repro.core.runtime.engine import TiltEngine
from repro.core.runtime.executor import (
    _worker_query,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadPoolExecutor,
    default_kind,
    make_executor,
    run_compiled_partition,
)
from repro.core.runtime.partition import Partition, partition_inputs
from repro.core.runtime.ssbuf import SSBuf, ssbuf_from_stream
from repro.datagen.sources import sources_for_streams
from repro.errors import ExecutionError, QueryBuildError
from repro.windowing import MEAN, custom_aggregate

from fixtures.opaque import OPAQUE_VIBRATION

E = PAYLOAD

#: events per application — small enough to keep the sweep fast, large
#: enough that every app emits output across several partitions
APP_EVENTS = 500

requires_native = pytest.mark.skipif(
    not native_codegen.native_available(),
    reason="native codegen toolchain (cffi + C compiler) unavailable",
)


@pytest.fixture(scope="module")
def process_engine():
    """One long-lived process pool shared by the whole equivalence sweep."""
    with TiltEngine(
        workers=2, executor_kind="process", partitions_per_worker=3, codegen_tier="numpy"
    ) as engine:
        yield engine


@pytest.fixture(scope="module")
def thread_engine():
    with TiltEngine(
        workers=3, executor_kind="thread", partitions_per_worker=3, codegen_tier="numpy"
    ) as engine:
        yield engine


@pytest.fixture(scope="module")
def native_thread_engine(promoted_engine):
    """Thread-pool engine on promoted C kernels, same grid as thread_engine."""
    with promoted_engine(workers=3, executor_kind="thread", partitions_per_worker=3) as engine:
        yield engine


@pytest.fixture(scope="module")
def native_process_engine(promoted_engine):
    """Process-pool engine, same grid as process_engine, whose queries are
    promoted before their first dispatch: the workers load the C kernels
    from the disk cache when they are first sent the query."""
    with promoted_engine(workers=2, executor_kind="process", partitions_per_worker=3) as engine:
        yield engine


def assert_bitwise_equal(got: SSBuf, want: SSBuf) -> None:
    """Byte-for-byte snapshot equality: times, mask, and the raw float bits
    of the values (strictly stronger than ``SSBuf.__eq__``'s allclose)."""
    assert len(got) == len(want)
    assert got.start_time == want.start_time
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.valid, want.valid)
    got_bits = np.asarray(got.values, dtype=np.float64).view(np.uint64)
    want_bits = np.asarray(want.values, dtype=np.float64).view(np.uint64)
    assert np.array_equal(got_bits, want_bits), "values differ bitwise"


# ---------------------------------------------------------------------- #
# cross-backend equivalence
# ---------------------------------------------------------------------- #
class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("name", sorted(ALL_APPLICATIONS))
    def test_every_app_identical_on_every_plan(self, name, engine_plan, oracle):
        app = ALL_APPLICATIONS[name]
        program = app.program()
        streams = app.streams(engine_plan.events(APP_EVENTS), seed=17)
        with engine_plan.engine(partitions_per_worker=3) as engine:
            assert engine.run(program, streams).output == oracle(program, streams)

    @pytest.mark.parametrize("interval", [13.0, 41.5])
    def test_ragged_partition_intervals(self, interval):
        """Fixed-interval partitioning that does not divide the time range
        evenly (a ragged tail partition) is backend-invariant too."""
        app = get_application("trading")
        program = app.program()
        streams = app.streams(700, seed=5)
        with TiltEngine(workers=1) as serial:
            reference = serial.run(program, streams).output
        for kind in ("thread", "process"):
            with TiltEngine(workers=2, executor_kind=kind, partition_interval=interval) as eng:
                assert eng.run(program, streams).output == reference, kind

    def test_streaming_session_ticks_on_process_backend(self):
        """Tick-by-tick session output on the process backend concatenates to
        the serial one-shot run, ragged ticks included."""
        app = get_application("rsi")
        program = app.program()
        streams = app.streams(600, seed=11)
        with TiltEngine(workers=1) as serial:
            reference = serial.run(program, streams).output
        with TiltEngine(workers=2, executor_kind="process") as engine:
            session = engine.open_session(
                program, sources_for_streams(streams, events_per_poll=83)
            )
            ticks = 0
            while not session.exhausted:
                session.tick()
                ticks += 1
            session.close()
            assert ticks > 3, "expected a multi-tick run"
            assert session.result().output == reference


# ---------------------------------------------------------------------- #
# codegen tier equivalence
# ---------------------------------------------------------------------- #
@requires_native
class TestCodegenTierEquivalence:
    """The native tier must be unobservable next to the NumPy tier.

    Comparisons between the two tiers on the *same* engine configuration
    are bitwise — both tiers lower the same ``KernelSpec`` and the C
    kernels reproduce NumPy's accumulation order exactly.  Comparisons
    across partition grids use ``SSBuf`` equality like the rest of this
    suite: even the NumPy tier is only reassociation-invariant across
    grids (per-partition variance centering picks different means).
    """

    @pytest.mark.parametrize("name", sorted(ALL_APPLICATIONS))
    def test_every_app_bitwise_identical_numpy_vs_native(
        self,
        name,
        promoted_engine,
        thread_engine,
        native_thread_engine,
        process_engine,
        native_process_engine,
        worker_kernel_plans,
    ):
        app = ALL_APPLICATIONS[name]
        program = app.program()
        streams = app.streams(APP_EVENTS, seed=17)
        with TiltEngine(workers=1, codegen_tier="numpy") as serial_np:
            reference = serial_np.run(program, streams).output
        with promoted_engine(workers=1) as serial_nat:
            assert_bitwise_equal(serial_nat.run(program, streams).output, reference)
        thread_nat = native_thread_engine.run(program, streams).output
        assert_bitwise_equal(thread_nat, thread_engine.run(program, streams).output)
        assert thread_nat == reference
        process_nat = native_process_engine.run(program, streams).output
        assert_bitwise_equal(process_nat, process_engine.run(program, streams).output)
        assert process_nat == reference
        # ... and it really was C kernels inside the pool workers
        compiled = native_process_engine.compile_cached(program)
        if native_process_engine.dispatch_plan(compiled)["backend"] == "process":
            tiers = lambda plan: [row["active_tier"] for row in plan]  # noqa: E731
            plans = worker_kernel_plans(native_process_engine, compiled)
            assert plans and all(tiers(p) == tiers(compiled.kernel_plan()) for p in plans)

    @pytest.mark.parametrize("interval", [13.0, 41.5])
    def test_ragged_partition_intervals_native(self, interval, promoted_engine):
        app = get_application("trading")
        program = app.program()
        streams = app.streams(700, seed=5)
        with TiltEngine(workers=1, codegen_tier="numpy") as serial:
            reference = serial.run(program, streams).output
        for kind in ("thread", "process"):
            kw = dict(workers=2, executor_kind=kind, partition_interval=interval)
            with TiltEngine(**kw, codegen_tier="numpy") as np_eng:
                np_out = np_eng.run(program, streams).output
            with promoted_engine(**kw) as nat_eng:
                nat_out = nat_eng.run(program, streams).output
            assert_bitwise_equal(nat_out, np_out)
            assert nat_out == reference, kind

    def test_streaming_session_ticks_native(self, promoted_engine):
        """Native-tier session ticks concatenate bitwise-identically to the
        NumPy tier over the same ragged tick schedule, and match the serial
        one-shot reference."""
        app = get_application("rsi")
        program = app.program()
        streams = app.streams(600, seed=11)

        def session_output(engine):
            with engine:
                session = engine.open_session(
                    program, sources_for_streams(streams, events_per_poll=83)
                )
                session.run_to_exhaustion()
                return session.result().output

        np_out = session_output(TiltEngine(workers=1, codegen_tier="numpy"))
        nat_out = session_output(promoted_engine(workers=1))
        assert_bitwise_equal(nat_out, np_out)
        with TiltEngine(workers=1, codegen_tier="numpy") as serial:
            assert nat_out == serial.run(program, streams).output

    def test_incremental_session_native(self, promoted_engine):
        """Incremental mode (reduce-site runtime override) composes with the
        native tier: output kernels take the NumPy path under the override,
        intermediates run natively, output stays bitwise-identical."""
        app = get_application("normalize")
        program = app.program()
        streams = app.streams(600, seed=11)

        def session_output(engine):
            with engine:
                session = engine.open_session(
                    program,
                    sources_for_streams(streams, events_per_poll=83),
                    incremental=True,
                )
                session.run_to_exhaustion()
                return session.result().output

        assert_bitwise_equal(
            session_output(promoted_engine(workers=1)),
            session_output(TiltEngine(workers=1, codegen_tier="numpy")),
        )


# ---------------------------------------------------------------------- #
# serialization contract
# ---------------------------------------------------------------------- #
class TestSerialization:
    def test_ssbuf_round_trips_as_raw_arrays(self, random_walk_buf):
        clone = pickle.loads(pickle.dumps(random_walk_buf))
        assert clone == random_walk_buf
        assert clone.start_time == random_walk_buf.start_time

    def test_partition_round_trip(self, random_walk_buf):
        program = get_application("trading").program()
        compiled = compile_program(program)
        parts = partition_inputs(
            {"stock": random_walk_buf}, compiled.boundary, 0.0, 200.0, num_partitions=4
        )
        clone = pickle.loads(pickle.dumps(parts[1]))
        assert isinstance(clone, Partition)
        assert (clone.index, clone.t_start, clone.t_end) == (
            parts[1].index,
            parts[1].t_start,
            parts[1].t_end,
        )
        assert clone.inputs["stock"] == parts[1].inputs["stock"]

    def test_compiled_query_round_trip_runs_identically(self, random_walk_buf):
        program = get_application("trading").program()
        compiled = compile_program(program)
        reference = compiled.run({"stock": random_walk_buf}, 0.0, 200.0)
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.run({"stock": random_walk_buf}, 0.0, 200.0) == reference

    def test_payload_computed_once_and_cached(self):
        program = get_application("trading").program()
        compiled = compile_program(program)
        payload = compiled.pickle_payload()
        assert payload is not None and compiled.picklable
        assert compiled.pickle_payload() is payload

    def test_unpicklable_custom_aggregate_degrades_to_none(self):
        crest = custom_aggregate(
            "crest",
            init=lambda: (0.0, 0.0),
            acc=lambda s, v: (max(s[0], abs(v)), s[1] + v * v),
            result=lambda s: s[0],
        )
        program = source("stock").window(10, 1).aggregate(crest).to_program()
        compiled = compile_program(program)
        assert compiled.pickle_payload() is None
        assert not compiled.picklable

    def test_run_compiled_partition_task(self, random_walk_buf):
        """The module-level worker task runs a shipped partition end to end
        (exercised in-process, exactly as a pool worker would)."""
        program = get_application("trading").program()
        compiled = compile_program(program)
        payload = compiled.pickle_payload()
        parts = partition_inputs(
            {"stock": random_walk_buf}, compiled.boundary, 0.0, 200.0, num_partitions=3
        )
        pieces = [run_compiled_partition((payload, p, None)) for p in parts]
        expected = [compiled.run(p.inputs, p.t_start, p.t_end) for p in parts]
        assert pieces == expected
        # traced: the same buffer, plus one worker-side span record
        buf, (record,) = run_compiled_partition((payload, parts[0], "d" * 12))
        assert buf == expected[0]
        assert record.name == "kernel.partition" and record.attrs["kernel_digest"] == "d" * 12

    @requires_native
    def test_promoted_pieces_stay_compacted_through_pickling(self, random_walk_buf):
        """A promoted output kernel compacts each partition's piece in C; the
        piece keeps its ``compacted`` flag through the pickling that carries
        it back from a pool worker, so their concatenation re-checks only the
        seams and comes out compacted, byte-equal to the NumPy pieces
        concatenated and compacted whole."""
        compiled = compile_program(get_application("trading").program(), codegen_tier="native")
        payload = compiled.pickle_payload()
        parts = partition_inputs(
            {"stock": random_walk_buf}, compiled.boundary, 0.0, 200.0, num_partitions=3
        )
        pieces = [pickle.loads(pickle.dumps(run_compiled_partition((payload, p, None)))) for p in parts]
        assert all(piece.compacted for piece in pieces)
        out = SSBuf.concat(pieces)
        assert out.compacted and out.compact() is out
        numpy = compile_program(get_application("trading").program())
        want = SSBuf.concat([numpy.run(p.inputs, p.t_start, p.t_end) for p in parts]).compact()
        assert not want.compacted
        for got, expected in zip((out.times, out.values, out.valid), (want.times, want.values, want.valid)):
            assert got.tobytes() == expected.tobytes()

    def test_worker_unpickles_each_payload_once(self, random_walk_buf):
        """A worker keeps one copy of each query, keyed by the payload bytes
        every task carries: a later task with equal bytes reuses it."""
        program = get_application("trading").program()
        compiled = compile_program(program)
        payload = compiled.pickle_payload()
        part = partition_inputs(
            {"stock": random_walk_buf}, compiled.boundary, 0.0, 100.0, num_partitions=1
        )[0]
        _worker_query.cache_clear()
        first = run_compiled_partition((payload, part, None))
        shipped_again = bytes(bytearray(payload))  # equal bytes, another object
        assert run_compiled_partition((shipped_again, part, None)) == first
        info = _worker_query.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert _worker_query(shipped_again) is _worker_query(payload)

    def test_unpickling_a_kernel_instantiates_it_again(self):
        """No rebuild cache: each unpickle instantiates its own kernel from
        the shipped spec, on the shipped tier."""
        program = source("stock").window(10, 1).aggregate(MEAN).to_program()
        compiled = compile_program(program)
        blob = pickle.dumps(compiled.kernels[0])
        first, second = pickle.loads(blob), pickle.loads(blob)
        assert first is not second
        assert isinstance(first, CompiledKernel) and isinstance(second, CompiledKernel)
        assert first.spec.digest() == second.spec.digest() == compiled.kernels[0].spec.digest()
        assert (first.tier, first.active_tier) == (second.tier, second.active_tier)

    def test_every_process_dispatch_ships_the_payload(self, monkeypatch):
        """Dispatch keeps no state in the parent: the second run's tasks
        carry the query's memoised payload exactly as the first run's do —
        and both stay byte-identical to serial execution."""
        app = get_application("trading")
        program = app.program()
        streams = app.streams(500, seed=21)
        settings = dict(workers=2, codegen_tier="numpy")
        with TiltEngine(executor_kind="serial", **settings) as serial:
            reference = serial.run(program, streams).output
        with TiltEngine(executor_kind="process", **settings) as engine:
            compiled = engine.compile(program)
            pool = engine.shared_executor()
            shipped = []
            pool_map = pool.map

            def recording_map(fn, items):
                shipped.append([payload for payload, _, _ in items])
                return pool_map(fn, items)

            monkeypatch.setattr(pool, "map", recording_map)
            for _ in range(2):
                assert_bitwise_equal(engine.run(compiled, streams).output, reference)
        assert len(shipped) == 2 and all(shipped)
        assert all(payload is compiled.pickle_payload() for tasks in shipped for payload in tasks)


# ---------------------------------------------------------------------- #
# backend selection and fallback
# ---------------------------------------------------------------------- #
class TestBackendSelection:
    def test_make_executor_kinds(self):
        assert default_kind(1) == "serial" and default_kind(3) == "thread"
        assert isinstance(make_executor(3, "thread"), ThreadPoolExecutor)
        assert isinstance(make_executor(4, "serial"), SerialExecutor)
        with make_executor(2, "process") as pool:
            assert isinstance(pool, ProcessPoolExecutor)
            assert pool.kind == "process"
        with pytest.raises(ValueError):
            make_executor(2, "gpu")

    def test_engine_rejects_unknown_kind(self):
        with pytest.raises(QueryBuildError):
            TiltEngine(workers=2, executor_kind="gpu")

    def test_constructor_resolves_backend_once(self, monkeypatch):
        """The kind is derived from the worker count or taken from the
        constructor — nothing else, the environment included, selects it —
        and is read-only afterwards."""
        for name in ("REPRO_EXECUTOR", "REPRO_CODEGEN", "REPRO_TRACE"):
            monkeypatch.setenv(name, "process" if name == "REPRO_EXECUTOR" else "1")
        with TiltEngine(workers=1) as engine:
            assert engine.executor_kind == engine.shared_executor().kind == "serial"
            assert engine.codegen_tier == "native" and not engine.tracer.enabled
        with TiltEngine(workers=2) as engine:
            assert engine.executor_kind == engine.shared_executor().kind == "thread"
            with pytest.raises(AttributeError, match="read-only"):
                engine.executor_kind = "process"
        with TiltEngine(workers=2, executor_kind="serial") as engine:
            assert engine.shared_executor().kind == "serial"
        with TiltEngine(workers=2, executor_kind="process") as engine:
            assert engine.shared_executor().kind == "process"

    def test_unpicklable_query_falls_back_counted_and_logged(self, caplog):
        """A lambda-aggregate query on the process backend runs on the
        in-process fallback and still matches serial output — and the
        downgrade is counted per dispatch, logged once per query and
        reported by the dispatch plan."""
        app = OPAQUE_VIBRATION  # a custom lambda aggregate
        program = app.program()
        streams = app.streams(400, seed=2)
        with TiltEngine(workers=1) as serial:
            reference = serial.run(program, streams).output
        with TiltEngine(workers=2, executor_kind="process") as engine:
            compiled = engine.compile(program)
            assert not compiled.picklable
            assert engine.dispatch_plan(compiled) == {
                "backend": "thread", "reason": "unpicklable"
            }
            with caplog.at_level(logging.WARNING, logger="repro.engine"):
                assert engine.run(compiled, streams).output == reference
                assert engine.run(compiled, streams).output == reference
            assert engine._fallback_executor.kind == "thread"
            assert engine._m_dispatch_fallbacks.value == 2
            assert [r.reason for r in caplog.records] == ["unpicklable"]
            assert 'repro_dispatch_fallbacks_total{reason="unpicklable"} 2' in (
                engine.registry.to_prometheus()
            )
            # a picklable query on the same engine is not degraded
            trading = engine.compile(get_application("trading").program())
            assert engine.dispatch_plan(trading) == {
                "backend": "process", "reason": "engine setting"
            }
            session = engine.open_session(
                compiled, sources_for_streams(streams), incremental=False
            )
            assert session.plan["dispatch"]["reason"] == "unpicklable"

    def test_interpreted_queries_run_on_the_process_pool(self, random_walk_stream):
        """The oracle is one more kernel tier: its queries pickle (IR, no
        closures) and run on the process pool byte-identically."""
        program = get_application("trading").program()
        streams = {"stock": random_walk_stream}
        with TiltEngine(workers=1, mode="interpreted") as serial:
            reference = serial.run(program, streams).output
        with TiltEngine(
            workers=2, executor_kind="process", mode="interpreted", partition_interval=1e9
        ) as engine:
            compiled = engine.compile(program)
            assert compiled.picklable
            assert {row["active_tier"] for row in compiled.kernel_plan()} == {"interpreted"}
            assert_bitwise_equal(engine.run(compiled, streams).output, reference)
            assert engine.dispatch_plan(compiled)["backend"] == "process"
            assert engine._m_backend["process"][1].value > 0
            assert engine._fallback_executor is None


# ---------------------------------------------------------------------- #
# worker death
# ---------------------------------------------------------------------- #
def test_killed_worker_fails_one_run_then_the_pool_is_replaced(caplog):
    """The stdlib pool never replaces a dead worker, so one killed worker
    breaks it for good.  The run that finds it broken raises
    ``ExecutionError``; the engine drops the pool (counted, logged) and the
    next run forks a fresh one and is byte-identical to serial execution."""
    app = get_application("trading")
    program = app.program()
    streams = app.streams(500, seed=21)
    settings = dict(workers=2, codegen_tier="numpy")
    with TiltEngine(executor_kind="serial", **settings) as serial:
        reference = serial.run(program, streams).output
    with TiltEngine(executor_kind="process", **settings) as engine:
        compiled = engine.compile(program)
        assert_bitwise_equal(engine.run(compiled, streams).output, reference)
        broken = engine.shared_executor()
        os.kill(next(iter(broken._pool._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not broken._pool._broken:  # the pool's manager thread notices
            assert time.monotonic() < deadline
            time.sleep(0.005)
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            with pytest.raises(ExecutionError) as failed:
                engine.run(compiled, streams)
        assert isinstance(failed.value.__cause__, BrokenProcessPool)
        assert [r.reason for r in caplog.records] == ["broken pool"]
        assert "repro_pool_restarts_total 1" in engine.registry.to_prometheus()
        assert_bitwise_equal(engine.run(compiled, streams).output, reference)
        assert engine.shared_executor() is not broken
