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
    compile_program,
    evaluate_expr_at,
    evaluate_program,
    evaluate_temporal_expr,
    evaluation_times,
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
