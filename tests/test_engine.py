"""Tests for the parallel runtime: partitioning, executors and the engine."""

import math

import numpy as np
import pytest

from repro.core.frontend.query import LEFT, PAYLOAD, RIGHT, source
from repro.core.lineage import BoundarySpec
from repro.core.runtime.engine import QueryResult, TiltEngine
from repro.core.runtime.executor import (
    SerialExecutor,
    ThreadPoolExecutor,
    default_kind,
    make_executor,
)
from repro.core.runtime.partition import partition_inputs, plan_partitions, snap_down
from repro.core.runtime.ssbuf import SSBuf, ssbuf_from_stream
from repro.core.runtime.stream import EventStream
from repro.errors import ExecutionError, QueryBuildError
from repro.windowing import MEAN

E = PAYLOAD


def trend_query():
    stock = source("stock")
    return (
        stock.window(10, 1).aggregate(MEAN)
        .join(stock.window(20, 1).aggregate(MEAN), LEFT - RIGHT)
        .where(E > 0)
    )


class TestPlanPartitions:
    def test_equal_partitions(self):
        bounds = plan_partitions(0.0, 100.0, num_partitions=4)
        assert bounds == [(0.0, 25.0), (25.0, 50.0), (50.0, 75.0), (75.0, 100.0)]

    def test_interval_partitions(self):
        bounds = plan_partitions(0.0, 95.0, interval=30.0)
        assert bounds[-1][1] == 95.0
        assert len(bounds) == 4

    def test_alignment_snaps_interior_edges(self):
        bounds = plan_partitions(0.0, 100.0, num_partitions=3, align=10.0)
        for lo, hi in bounds[:-1]:
            assert hi % 10.0 == 0.0
        assert bounds[-1][1] == 100.0

    def test_alignment_never_snaps_below_range_start(self):
        """Regression: with partitions narrower than the alignment grid and
        an off-grid t_start, interior edges must clamp to t_start instead of
        flooring below it (which produced a partition starting before — and
        overlapping — the requested output range)."""
        bounds = plan_partitions(12.7, 3900.0, num_partitions=16, align=300.0)
        assert bounds[0][0] == 12.7
        for lo, hi in bounds:
            assert 12.7 <= lo < hi <= 3900.0
        # consecutive and covering
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        assert bounds[-1][1] == 3900.0

    def test_snap_down_names_grid_points_like_the_evaluation_grid(self):
        """Edges are ``k * p`` exactly (the float the evaluation grid emits
        for grid point k) and never exceed the time they snap: a bare
        ``floor(t / p) * p`` is one step low at 3 * 0.3 and one ulp high at
        4993.799999999999 / 0.6."""
        assert snap_down(3 * 0.3, 0.3) == 3 * 0.3  # 0.8999999999999999 / 0.3 < 3
        t = 4993.799999999999
        assert math.floor(t / 0.6) * 0.6 > t
        assert snap_down(t, 0.6) == 8322 * 0.6 <= t
        assert snap_down(0.3, 0.1) == 2 * 0.1  # 3 * 0.1 is one ulp above 0.3
        assert snap_down(7.25, 0.5) == 7.0
        # interior partition edges use it
        bounds = plan_partitions(0.0, 3.0, num_partitions=10, align=0.3)
        grid = {k * 0.3 for k in range(11)}
        assert all(hi in grid for _, hi in bounds[:-1])

    def test_empty_and_invalid(self):
        assert plan_partitions(5.0, 5.0, num_partitions=3) == []
        with pytest.raises(QueryBuildError):
            plan_partitions(0.0, 10.0)
        with pytest.raises(QueryBuildError):
            plan_partitions(0.0, 10.0, num_partitions=2, interval=5.0)
        with pytest.raises(QueryBuildError):
            plan_partitions(0.0, 10.0, num_partitions=0)
        with pytest.raises(QueryBuildError):
            plan_partitions(0.0, 10.0, interval=-1.0)


class TestPartitionInputs:
    def test_lookback_margin_included(self, regular_buf):
        boundary = BoundarySpec({"regular": (20.0, 0.0)})
        partitions = partition_inputs(
            {"regular": regular_buf}, boundary, 0.0, 100.0, num_partitions=4
        )
        assert len(partitions) == 4
        second = partitions[1]
        assert second.t_start == 25.0
        # its input slice must reach back 20 seconds before the partition start
        assert second.inputs["regular"].value_at(6.0)[1]
        assert second.span == 25.0
        assert second.input_snapshot_count() > 0


class TestExecutors:
    def test_serial(self):
        assert SerialExecutor().map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_thread_pool_preserves_order(self):
        with ThreadPoolExecutor(4) as pool:
            assert pool.map(lambda x: x * x, list(range(20))) == [x * x for x in range(20)]

    def test_make_executor(self):
        assert isinstance(make_executor(1, default_kind(1)), SerialExecutor)
        pool = make_executor(3, default_kind(3))
        assert isinstance(pool, ThreadPoolExecutor)
        pool.shutdown()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ThreadPoolExecutor(0)


class TestTiltEngine:
    def test_run_returns_query_result(self, random_walk_stream):
        engine = TiltEngine(workers=1)
        result = engine.run(trend_query().to_program(), {"stock": random_walk_stream})
        assert isinstance(result, QueryResult)
        assert result.input_events == len(random_walk_stream)
        assert result.num_partitions == 1
        assert result.throughput > 0
        assert result.output.num_valid() > 0
        stream = result.to_stream()
        assert len(stream) > 0

    def test_parallel_equals_serial(self, random_walk_stream):
        program = trend_query().to_program()
        serial = TiltEngine(workers=1).run(program, {"stock": random_walk_stream})
        parallel = TiltEngine(workers=4).run(program, {"stock": random_walk_stream})
        assert parallel.num_partitions > 1
        grid = np.linspace(1.0, 300.0, 500)
        sv, sk = serial.output.values_at(grid)
        pv, pk = parallel.output.values_at(grid)
        assert np.array_equal(sk, pk)
        assert np.allclose(sv[sk], pv[pk])

    def test_interpreted_mode_equals_compiled(self, random_walk_stream):
        program = trend_query().to_program()
        compiled = TiltEngine(workers=1, mode="compiled").run(program, {"stock": random_walk_stream})
        interpreted = TiltEngine(workers=1, mode="interpreted").run(
            program, {"stock": random_walk_stream}
        )
        grid = np.linspace(1.0, 300.0, 300)
        cv, ck = compiled.output.values_at(grid)
        iv, ik = interpreted.output.values_at(grid)
        assert np.array_equal(ck, ik)
        assert np.allclose(cv[ck], iv[ik])

    def test_partition_interval(self, random_walk_stream):
        engine = TiltEngine(workers=2, partition_interval=30.0)
        result = engine.run(trend_query().to_program(), {"stock": random_walk_stream})
        assert result.num_partitions == 10

    def test_accepts_precompiled_query(self, random_walk_stream):
        engine = TiltEngine(workers=2)
        compiled = engine.compile(trend_query().to_program())
        result = engine.run(compiled, {"stock": random_walk_stream})
        assert result.output.num_valid() > 0

    def test_accepts_ssbuf_inputs(self, random_walk_stream):
        buf = ssbuf_from_stream(random_walk_stream)
        result = TiltEngine().run(trend_query().to_program(), {"stock": buf})
        assert result.output.num_valid() > 0

    def test_structured_stream_expansion(self):
        stream = EventStream.from_arrays(
            [0, 1, 2],
            [1, 2, 3],
            [{"amount": 10.0}, {"amount": 20.0}, {"amount": 30.0}],
            name="txn",
        )
        query = source("txn", field="amount").select(E * 2.0)
        result = TiltEngine().run(query.to_program(), {"txn": stream})
        assert result.output.value_at(1.5) == (40.0, True)

    def test_missing_input_raises(self, random_walk_stream):
        with pytest.raises(ExecutionError):
            TiltEngine().run(trend_query().to_program(), {"wrong_name": random_walk_stream})

    def test_invalid_configuration(self):
        with pytest.raises(QueryBuildError):
            TiltEngine(mode="jit")
        with pytest.raises(QueryBuildError):
            TiltEngine(workers=0)
        with pytest.raises(QueryBuildError):
            TiltEngine().run("not a program", {})
        with pytest.raises(QueryBuildError):
            TiltEngine(compile_cache_size=0)

    def test_empty_stream(self):
        empty = EventStream([], name="stock")
        result = TiltEngine().run(trend_query().to_program(), {"stock": empty})
        assert result.output.num_valid() == 0

    def test_all_phi_output_keeps_its_start_time(self, random_walk_stream):
        """A ``where`` that filters everything: the output is φ over the
        whole range and still starts at ``t_start``, at one partition and at
        many.  (Every partition materialises its end point, so the engine
        never hands ``concat`` only empty pieces; ``concat`` keeping the
        earliest start of all-empty pieces is pinned in ``test_ssbuf.py``.)"""
        query = source("stock").where(PAYLOAD > 1e12).to_program()
        for workers in (1, 3):
            with TiltEngine(workers=workers) as engine:
                out = engine.run(query, {"stock": random_walk_stream}, 25.0, 180.0).output
                assert out.num_valid() == 0 and out.start_time == 25.0
                assert out.times.tolist() == [180.0]
                empty = engine.run(query, {"stock": random_walk_stream}, 25.0, 25.0).output
                assert len(empty) == 0 and empty.start_time == 25.0

    def test_partition_before_a_late_input_reads_phi(self):
        """An input that starts after a partition ends is φ there — the
        list-built slice clipped a snapshot to before the buffer's start and
        failed its own validation."""
        early = EventStream.from_samples(np.arange(100.0), period=1.0, name="early")
        late = EventStream.from_samples(np.arange(20.0), period=1.0, start=80.0, name="late")
        query = source("early").join(source("late"), LEFT + RIGHT).to_program()
        with TiltEngine(workers=1) as serial, TiltEngine(workers=4) as parallel:
            streams = {"early": early, "late": late}
            assert parallel.run(query, streams).output == serial.run(query, streams).output

    def test_explicit_time_range(self, random_walk_stream):
        program = trend_query().to_program()
        result = TiltEngine().run(program, {"stock": random_walk_stream}, t_start=50.0, t_end=100.0)
        assert result.output.num_valid() <= 51
        assert result.output.end_time <= 100.0


class TestCompileCacheLRU:
    """The per-engine compile cache is bounded: a long-lived engine that
    compiles many distinct programs must not retain them all forever."""

    def test_hit_semantics_preserved(self):
        engine = TiltEngine(compile_cache_size=4)
        program = trend_query().to_program()
        first = engine.compile_cached(program)
        assert engine.compile_cached(program) is first
        engine.close()

    def test_eviction_releases_programs(self):
        import gc
        import weakref

        engine = TiltEngine(compile_cache_size=2)
        programs = [trend_query().to_program() for _ in range(3)]
        refs = [weakref.ref(p) for p in programs]
        compiled_first = engine.compile_cached(programs[0])
        for p in programs[1:]:
            engine.compile_cached(p)
        # the first (least recently used) program was evicted; dropping our
        # reference must actually free it
        del programs[0], compiled_first
        gc.collect()
        assert refs[0]() is None, "evicted program still strongly referenced"
        assert refs[1]() is not None and refs[2]() is not None
        engine.close()

    def test_recently_used_entry_survives_eviction(self):
        engine = TiltEngine(compile_cache_size=2)
        a = trend_query().to_program()
        b = trend_query().to_program()
        c = trend_query().to_program()
        compiled_a = engine.compile_cached(a)
        engine.compile_cached(b)
        assert engine.compile_cached(a) is compiled_a  # refresh a (evicts b next)
        engine.compile_cached(c)
        assert engine.compile_cached(a) is compiled_a  # still cached
        engine.close()
