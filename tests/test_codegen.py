"""Tests for code generation and the two execution backends.

The central invariant: the compiled (NumPy source-generated) backend produces
exactly the same snapshot buffers as the interpreted reference backend for
any query, and both respect the φ-propagation semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codegen import (
    CompiledQuery,
    Interpreter,
    KernelRuntime,
    compile_program,
    evaluate_expr_at,
    evaluate_program,
    evaluate_temporal_expr,
    evaluation_times,
    evaluation_times_for_accesses,
    generate_kernel_spec,
    snap_to_precision,
)
from repro.core.frontend.query import LEFT, PAYLOAD, RIGHT, source
from repro.core.ir import (
    Call,
    Coalesce,
    Const,
    ELEM_VAR,
    IRBuilder,
    IsValid,
    Let,
    Phi,
    TDom,
    TIndex,
    TemporalExpr,
    Var,
    when,
)
from repro.core.lineage import resolve_boundaries
from repro.core.lineage.boundary import AccessPattern
from repro.core.runtime.ssbuf import SSBuf, ssbuf_from_stream
from repro.core.runtime.stream import Event, EventStream
from repro.errors import ExecutionError
from repro.windowing import MAX, MEAN, STDDEV, SUM

E = PAYLOAD


# ---------------------------------------------------------------------- #
# scalar interpreter
# ---------------------------------------------------------------------- #
class TestScalarEvaluation:
    def setup_method(self):
        self.env = {"x": SSBuf([1.0, 2.0, 3.0], [10.0, 20.0, 30.0], [True, False, True], 0.0)}

    def test_const_phi_var(self):
        assert evaluate_expr_at(Const(3.0), 0.0, {}) == (3.0, True)
        assert evaluate_expr_at(Phi(), 0.0, {}) == (0.0, False)
        assert evaluate_expr_at(Var("a"), 0.0, {}, {"a": (7.0, True)}) == (7.0, True)
        with pytest.raises(ExecutionError):
            evaluate_expr_at(Var("missing"), 0.0, {})

    def test_point_access(self):
        assert evaluate_expr_at(TIndex("x", 0.0), 0.5, self.env) == (10.0, True)
        assert evaluate_expr_at(TIndex("x", 0.0), 1.5, self.env) == (0.0, False)
        assert evaluate_expr_at(TIndex("x", -2.0), 2.5, self.env) == (10.0, True)

    def test_phi_propagation_through_arithmetic(self):
        expr = TIndex("x", 0.0) + 1.0
        assert evaluate_expr_at(expr, 1.5, self.env) == (0.0, False)

    def test_division_by_zero_is_phi(self):
        expr = Const(1.0) / Const(0.0)
        assert evaluate_expr_at(expr, 0.0, {}) == (0.0, False)

    def test_conditional_and_isvalid(self):
        x = TIndex("x", 0.0)
        assert evaluate_expr_at(when(x > 5.0, x), 0.5, self.env) == (10.0, True)
        assert evaluate_expr_at(when(x > 50.0, x), 0.5, self.env)[1] is False
        assert evaluate_expr_at(IsValid(x), 1.5, self.env) == (0.0, True)
        assert evaluate_expr_at(Coalesce(x, Const(-1.0)), 1.5, self.env) == (-1.0, True)

    def test_let_scoping(self):
        expr = Let((("a", TIndex("x", 0.0)),), Var("a") * 2.0)
        assert evaluate_expr_at(expr, 0.5, self.env) == (20.0, True)

    def test_reduce_over_window(self):
        from repro.core.ir import Reduce, TWindow

        expr = Reduce(SUM, TWindow("x", -3.0, 0.0))
        value, ok = evaluate_expr_at(expr, 3.0, self.env)
        assert ok and value == 40.0  # snapshots 10 and 30 (the φ one is skipped)

    def test_reduce_with_element_map(self):
        from repro.core.ir import Reduce, TWindow

        expr = Reduce(SUM, TWindow("x", -3.0, 0.0), element=Var(ELEM_VAR) * 2.0)
        value, ok = evaluate_expr_at(expr, 3.0, self.env)
        assert ok and value == 80.0

    def test_call(self):
        assert evaluate_expr_at(Call("sqrt", (Const(4.0),)), 0.0, {}) == (2.0, True)


# ---------------------------------------------------------------------- #
# evaluation grid
# ---------------------------------------------------------------------- #
class TestEvaluationGrid:
    def test_snap_to_precision(self):
        snapped = snap_to_precision(np.array([0.3, 1.0, 1.2]), 0.5)
        assert list(snapped) == [0.5, 1.0, 1.5]
        assert list(snap_to_precision(np.array([0.3]), 0.0)) == [0.3]

    def test_times_include_shifted_changes_and_end(self, simple_buf):
        expr = TIndex("simple", -2.0)
        times = evaluation_times(expr, {"simple": simple_buf}, TDom(), 0.0, 50.0)
        # change at 10 shifted by +2 => 12 must be present, and the domain end
        assert 12.0 in times
        assert times[-1] == 50.0

    def test_precision_snapping_in_grid(self, simple_buf):
        expr = TIndex("simple", 0.0)
        times = evaluation_times(expr, {"simple": simple_buf}, TDom(precision=5.0), 0.0, 50.0)
        interior = times[:-1]
        assert np.allclose(np.mod(interior, 5.0), 0.0)

    def test_grid_points_have_one_float_each(self):
        """On a non-dyadic precision ``k * p - p`` and ``(k - 1) * p`` can
        differ by an ulp; a grid point reached both ways (as a change's own
        point and as the next change's predecessor) must still be one
        evaluation time, not two an ulp apart."""
        buf = SSBuf(np.arange(1, 60) * 0.1, np.arange(59.0), start_time=0.0)
        times = evaluation_times(TIndex("x", 0.0), {"x": buf}, TDom(precision=0.1), 0.0, 5.9)
        assert np.all(np.diff(times) > 0.05)
        assert set(times) <= {k * 0.1 for k in range(60)}

    def test_empty_range(self, simple_buf):
        expr = TIndex("simple", 0.0)
        assert len(evaluation_times(expr, {"simple": simple_buf}, TDom(), 10.0, 10.0)) == 0

    @pytest.mark.parametrize("precision", [0.0, 1.0 / 128, 0.1])
    def test_sort_free_grid_takes_both_routes(self, precision, monkeypatch):
        """Dense candidates are read off the bitmap, candidates sparse
        relative to the grid range (and every precision-0 grid) are merged —
        and both equal the sorted formulation byte for byte."""
        from repro.core.codegen import grid

        merges = []
        merge = grid._merge_runs
        monkeypatch.setattr(
            grid, "_merge_runs", lambda runs: merges.append(len(runs)) or merge(runs)
        )
        accesses = {"x": AccessPattern({0.0}, {(-3.0, -0.5)})}
        rng = np.random.default_rng(7)
        dense = SSBuf(np.cumsum(rng.uniform(0.01, 0.2, 4000)), np.zeros(4000), start_time=0.0)
        sparse = SSBuf(np.cumsum(rng.uniform(50.0, 9000.0, 40)), np.zeros(40), start_time=0.0)
        for buf, merged in ((dense, precision == 0.0), (sparse, True)):
            del merges[:]
            env, tdom = {"x": buf}, TDom(precision=precision)
            got = evaluation_times_for_accesses(accesses, env, tdom, 1.0, buf.end_time - 1.0)
            want = sorted_grid(accesses, env, tdom, 1.0, buf.end_time - 1.0)
            assert got.tobytes() == want.tobytes()
            assert bool(merges) == merged


def sorted_grid(accesses, env, tdom, t_start, t_end):
    """The evaluation grid as it was built before it stopped sorting:
    concatenate every candidate run and ``np.unique`` them (the reference)."""
    if t_end <= t_start:
        return np.empty(0)
    candidates = [np.array([t_end])]
    for ref, pattern in accesses.items():
        buf = env.get(ref)
        if buf is None or len(buf) == 0:
            continue
        for offset in pattern.boundary_offsets():
            changes = buf.change_times_in(t_start + offset, t_end + offset)
            pieces = [changes - offset] if len(changes) else []
            if t_start + offset < buf.start_time <= t_end + offset:
                pieces.append(np.array([buf.start_time - offset]))
            candidates.extend(pieces)
    times = np.concatenate(candidates)
    if tdom.precision <= 0:
        times = np.unique(times)
    else:
        k = np.ceil(times / tdom.precision - 1e-9)
        times = np.unique(np.concatenate([k, k - 1.0])) * tdom.precision
    mask = (times > t_start + 1e-12) & (times <= t_end + 1e-12)
    times = times[mask]
    if len(times) == 0 or times[-1] < t_end:
        times = np.append(times, t_end)
    return times


@st.composite
def grid_cases(draw):
    """Access patterns over one or two inputs whose change times are dense,
    sparse relative to the precision grid, absent, or a lone implicit change
    at ``start_time`` — on a shared grid, so runs collide exactly."""
    step = draw(st.sampled_from([1.0 / 128, 0.1, 1.0, 977.0]))
    offsets = st.sampled_from([0.0, -1.0, 1.0, -0.3, -2.5, -3900.0, -step, 3 * step])
    env, accesses = {}, {}
    for ref in draw(st.sampled_from([("a",), ("a", "b")])):
        shape = draw(st.sampled_from(["dense", "sparse", "empty", "start-only"]))
        start = draw(st.integers(0, 50)) * step
        n = {"dense": draw(st.integers(1, 60)), "sparse": draw(st.integers(1, 6))}.get(shape, 0)
        gaps = draw(st.lists(st.integers(1, 4 if shape == "dense" else 5000), min_size=n, max_size=n))
        jitter = draw(st.sampled_from([0.0, 1e-4]))
        times = start + np.cumsum(gaps) * step + jitter
        if shape == "start-only":  # one snapshot far away: only start_time is in range
            times = np.array([start + 1e7 * step])
        env[ref] = SSBuf(times, np.zeros(len(times)), start_time=start)
        points = set(draw(st.lists(offsets, max_size=2)))
        edges = draw(st.lists(st.tuples(offsets, offsets), max_size=2))
        windows = {(min(a, b), max(a, b)) for a, b in edges if a != b}
        if not points and not windows:
            points = {0.0}
        accesses[ref] = AccessPattern(points, windows)
    t_start = draw(st.integers(0, 80)) * step + draw(st.sampled_from([0.0, 0.37 * step]))
    t_end = t_start + draw(st.integers(1, 400)) * step + draw(st.sampled_from([0.0, 0.5 * step]))
    return accesses, env, t_start, t_end


@pytest.mark.parametrize("precision", [0.0, 1.0 / 128, 0.1])
@given(grid_cases())
@settings(max_examples=120, deadline=None)
def test_property_sort_free_grid_matches_the_sorted_grid(precision, case):
    accesses, env, t_start, t_end = case
    tdom = TDom(precision=precision)
    got = evaluation_times_for_accesses(accesses, env, tdom, t_start, t_end)
    want = sorted_grid(accesses, env, tdom, t_start, t_end)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for buf in env.values():
        assert not np.shares_memory(got, buf.times)


# ---------------------------------------------------------------------- #
# generated kernels
# ---------------------------------------------------------------------- #
class TestKernelGeneration:
    def test_kernel_spec_contents(self):
        b = IRBuilder()
        stock = b.stream("stock")
        b.define("avg", stock.window(-10, 0).reduce(MEAN), precision=1)
        program = b.build()
        spec = generate_kernel_spec(program.exprs[0])
        assert "rt.reduce(env, 'stock'" in spec.source
        assert spec.aggregates == [MEAN]
        assert spec.referenced == ["stock"]
        assert "def _tilt_kernel" in spec.describe()

    def test_element_map_source_generated(self):
        b = IRBuilder()
        stock = b.stream("stock")
        b.define(
            "sumsq",
            stock.window(-10, 0).reduce(SUM, element=Var(ELEM_VAR) * Var(ELEM_VAR)),
            precision=1,
        )
        spec = generate_kernel_spec(b.build().exprs[0])
        assert len(spec.element_sources) == 1
        assert "_tilt_element" in spec.element_sources[0]

    def test_compiled_query_properties(self):
        program = _trend_program()
        compiled = compile_program(program)
        assert isinstance(compiled, CompiledQuery)
        assert compiled.fused
        assert compiled.boundary.lookback("stock") == 20.0
        assert "reduce" in compiled.sources()
        assert compiled.kernel_named(compiled.output).name == compiled.output
        with pytest.raises(KeyError):
            compiled.kernel_named("nope")

    def test_unoptimized_compilation(self):
        program = _trend_program()
        compiled = compile_program(program, optimize=False)
        assert len(compiled.kernels) == 4
        assert not compiled.fused

    def test_missing_input_raises(self):
        compiled = compile_program(_trend_program())
        with pytest.raises(ExecutionError):
            compiled.run({}, 0.0, 10.0)


class TestCursorTable:
    """One ``searchsorted`` per (input, offset) per invocation, whoever reads
    the cursor — and the same bytes as searching afresh for every access."""

    @staticmethod
    def calls(kernel, env, t_start, t_end):
        rt = KernelRuntime(kernel)
        ts = rt.eval_times(env, t_start, t_end)
        sites = [
            lambda cache, site=site: rt.reduce(env, site[0], site[1], site[2], site[3], site[4], ts, cache)
            for site in kernel.spec.reduce_sites
        ]
        points = [
            lambda cache, ref=ref, o=o: rt.point(env, ref, o, ts, cache)
            for ref, pattern in kernel.spec.accesses.items()
            for o in sorted(pattern.boundary_offsets())
        ]
        return ts, sites + points

    @staticmethod
    def same(a, b):
        return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))

    def test_two_windows_sharing_an_edge(self):
        from repro.apps import get_application
        from repro.windowing import range_aggregate

        app = get_application("trading")
        compiled = compile_program(app.program())
        (kernel,) = compiled.kernels
        env = {"stock": ssbuf_from_stream(app.streams(3000, seed=4)["stock"])}
        ts, calls = self.calls(kernel, env, 100.0, 2900.0)
        assert len({(a, b) for _, a, b, _, _ in kernel.spec.reduce_sites}) == 2
        shared = {}
        for call in calls:
            assert self.same(call(shared), call({}))
        # (−20, 0] and (−10, 0] share the edge at 0: three cursors, not four
        cursors = [key for key in shared if len(key) == 2]
        assert sorted(offset for _, offset in cursors) == [-20.0, -10.0, 0.0]
        # and both equal the search-per-access formulation
        for (ref, a, b, agg_idx, _), call in zip(kernel.spec.reduce_sites, calls):
            agg = kernel.spec.aggregates[agg_idx]
            assert self.same(call(shared), range_aggregate(env[ref], ts + a, ts + b, agg))
        assert self.same(calls[-1](shared), env["stock"].values_at(ts + 0.0))

    def test_element_mapped_and_unmapped_reduce_share_cursors(self):
        b = IRBuilder()
        stock = b.stream("stock")
        energy = stock.window(-12, 0).reduce(SUM, element=Var(ELEM_VAR) * Var(ELEM_VAR))
        peak = stock.window(-12, -2).reduce(MAX)
        b.define("out", energy + peak + stock.at(-2.0), precision=1)
        compiled = compile_program(b.build(output="out"))
        (kernel,) = compiled.kernels
        values = np.where(np.arange(400) % 17 == 0, np.nan, np.arange(400.0) % 23)
        stream = EventStream(
            [Event(float(i), i + 1.0, v) for i, v in enumerate(values) if v == v], name="stock"
        )
        env = {"stock": ssbuf_from_stream(stream)}
        ts, calls = self.calls(kernel, env, 20.0, 380.0)
        shared = {}
        for call in calls:
            assert self.same(call(shared), call({}))
        assert sorted(o for key in shared if len(key) == 2 for o in key[1:]) == [-12.0, -2.0, 0.0]
        piece = compiled.run(env, 20.0, 380.0)
        want = evaluate_program(compiled.program, env, 20.0, 380.0)["out"]
        assert piece == want


# ---------------------------------------------------------------------- #
# compiled == interpreted
# ---------------------------------------------------------------------- #
def _trend_program():
    stock = source("stock")
    avg10 = stock.window(10, 1).aggregate(MEAN).named("avg10")
    avg20 = stock.window(20, 1).aggregate(MEAN).named("avg20")
    return avg10.join(avg20, LEFT - RIGHT).where(E > 0).named("trend").to_program()


QUERY_FACTORIES = {
    "select": lambda: source("stock").select(E * 2.0 + 1.0),
    "where": lambda: source("stock").where((E % 2.0).eq(0.0)),
    "window_sum": lambda: source("stock").sum(10, 5),
    "window_std": lambda: source("stock").stddev(8, 2),
    "window_max": lambda: source("stock").max(16, 4),
    "shift_join": lambda: source("stock").join(source("stock").shift(3.0), LEFT - RIGHT),
    "trend": lambda: (
        source("stock").window(10, 1).aggregate(MEAN)
        .join(source("stock").window(20, 1).aggregate(MEAN), LEFT - RIGHT)
        .where(E > 0)
    ),
    "element_map": lambda: source("stock").window(12, 3).aggregate(SUM, element=E * E),
}


@pytest.mark.parametrize("name", sorted(QUERY_FACTORIES))
def test_compiled_matches_interpreted(name, random_walk_stream):
    program = QUERY_FACTORIES[name]().to_program()
    buf = ssbuf_from_stream(random_walk_stream)
    boundary = resolve_boundaries(program)
    interpreted = Interpreter(program, boundary=boundary).run({"stock": buf}, 0.0, 300.0)
    compiled = compile_program(program).run({"stock": buf}, 0.0, 300.0)
    grid = np.linspace(1.0, 300.0, 600)
    iv, ik = interpreted.values_at(grid)
    cv, ck = compiled.values_at(grid)
    assert np.array_equal(ik, ck)
    assert np.allclose(iv[ik], cv[ck], rtol=1e-9, atol=1e-9)


def test_masked_lanes_emit_no_runtime_warnings():
    """Both branches of a conditional (and guarded operands) are evaluated
    eagerly and discarded via the validity mask; the kernel body runs under
    ``errstate`` so those masked-out lanes must not leak NumPy
    ``RuntimeWarning``s (invalid power, divide, overflow, ...)."""
    import warnings

    # domain-hostile query: fractional power of negative values (guarded by
    # the conditional), division whose masked branch divides by zero, and a
    # guarded sqrt/log pair
    x = source("stock")
    query = when(
        E >= 0.0,
        (E ** 0.5) + (1.0 / E),
        (abs(E) ** 0.5) - ((0.0 - E) ** 1.5),
    )
    program = x.select(query).to_program()
    values = [4.0, -9.0, 0.0, 16.0, -2.0, 25.0]
    stream = EventStream.from_samples(values, period=1.0, name="stock")
    buf = ssbuf_from_stream(stream)
    compiled = compile_program(program)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = compiled.run({"stock": buf}, 0.0, float(len(values)))
    # the semantics are unchanged: valid lanes still compute their branch
    assert out.value_at(4.0) == (pytest.approx(4.0 + 1.0 / 16.0), True)
    v, ok = out.value_at(2.0)  # -9.0: else-branch, 3 - 27
    assert ok and v == pytest.approx(3.0 - 27.0)


def test_compiled_output_on_gappy_stream():
    events = [Event(0.0, 1.0, 5.0), Event(4.0, 6.0, 7.0), Event(9.0, 9.5, -2.0)]
    stream = EventStream(events, name="stock")
    program = source("stock").sum(3, 1).to_program()
    buf = ssbuf_from_stream(stream)
    out = compile_program(program).run({"stock": buf}, 0.0, 10.0)
    assert out.value_at(1.0) == (5.0, True)
    value, ok = out.value_at(3.0)
    assert ok and value == 5.0          # event still inside (0, 3]
    assert out.value_at(8.0) == (7.0, True)
    assert out.value_at(5.0)[1]


@given(
    st.lists(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False), min_size=5, max_size=60),
    st.sampled_from(["select", "where", "window_sum", "window_std", "trend", "element_map"]),
)
@settings(max_examples=25, deadline=None)
def test_property_compiled_equals_interpreted(values, query_name):
    """For random regular streams and a family of queries, both backends agree."""
    stream = EventStream.from_samples(values, period=1.0, name="stock")
    buf = ssbuf_from_stream(stream)
    program = QUERY_FACTORIES[query_name]().to_program()
    boundary = resolve_boundaries(program)
    t_end = float(len(values))
    interpreted = Interpreter(program, boundary=boundary).run({"stock": buf}, 0.0, t_end)
    compiled = compile_program(program).run({"stock": buf}, 0.0, t_end)
    grid = np.linspace(0.5, t_end, 77)
    iv, ik = interpreted.values_at(grid)
    cv, ck = compiled.values_at(grid)
    assert np.array_equal(ik, ck)
    assert np.allclose(iv[ik], cv[ck], rtol=1e-7, atol=1e-7)
