"""Row-driven conformance of the two semantics tables.

Every consumer of an operator or aggregate reads one row
(``repro.core.ops.OPS`` / ``repro.windowing.builtin_aggregates()``); this
suite iterates the tables, so a row added later is covered without editing
it:

* operator rows — scalar reference ≡ interpreter ≡ NumPy kernel ≡
  ``vectoreval`` ≡ C kernel (when the row has a C template and the
  toolchain is present) over an edge grid of ±0.0, negatives, NaN, ±inf,
  ±1e308 and non-integers;
* aggregate rows — scalar fold ≡ range index ≡ the one reduce path with
  session-kept sites fed ragged chunks ≡ native kernel (its run entry one
  shot, its tick entry over the kept sites), including all-φ and
  single-snapshot windows, and ``vector_eval`` ≡ scalar fold.
"""

import itertools
import math

import numpy as np
import pytest

from repro.core.codegen import native
from repro.core.codegen.compiled import NATIVE_TIER, NUMPY_TIER, compile_program
from repro.core.codegen.incremental import IncrementalKernelRuntime
from repro.core.ir.builder import IRBuilder
from repro.core.ir.nodes import BinOp, Call, Const, UnaryOp, Var
from repro.core.ops import OPS, eval_op
from repro.core.runtime.ssbuf import SSBuf
from repro.errors import ValidationError
from repro.spe.common.vectoreval import eval_expr_vectorized
from repro.windowing import builtin_aggregates, range_aggregate

GRID = [0.0, -0.0, 1.0, -1.0, 3.0, -7.0, 0.5, -2.5, math.nan, math.inf, -math.inf, 1e308, -1e308]
NODES = {"binop": BinOp, "unop": UnaryOp, "call": lambda name, *args: Call(name, args)}


def canonical_bits(values):
    """Bit patterns with every NaN collapsed to one (payload and sign of a
    NaN are not part of any tier's contract)."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(values), np.nan, values).view(np.uint64)


def assert_same(got, want, exact, label):
    got_v, got_ok = got
    want_v, want_ok = want
    np.testing.assert_array_equal(got_ok, want_ok, err_msg=f"{label}: validity")
    got_v, want_v = np.asarray(got_v)[want_ok], np.asarray(want_v)[want_ok]
    if exact:
        np.testing.assert_array_equal(canonical_bits(got_v), canonical_bits(want_v), err_msg=label)
    else:  # rows without a C template are exactly the not-bit-stable ones
        np.testing.assert_allclose(got_v, want_v, rtol=1e-14, atol=0.0, err_msg=label)


def run_tier(program, env, t_end, tier):
    out = compile_program(program, optimize=False, codegen_tier=tier).run(env, 0.0, t_end)
    return np.asarray(out.values), np.asarray(out.valid)


# ---------------------------------------------------------------------- #
# operator rows
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("row", list(OPS.values()), ids=lambda row: row.name)
def test_operator_row_agrees_across_tiers(row):
    columns = np.array(list(itertools.product(GRID, repeat=row.arity))).T
    n = columns.shape[1]
    times = np.arange(1.0, n + 1.0)
    env = {
        name: SSBuf(times, column, np.ones(n, dtype=bool), start_time=0.0)
        for name, column in zip("ab", columns)
    }
    scalar = [eval_op(row, args) for args in zip(*columns.tolist())]
    want = (np.array([v for v, _ in scalar]), np.array([ok for _, ok in scalar]))
    exact = row.c is not None
    for form in row.forms:
        b = IRBuilder()
        operands = [b.stream(name).at(0.0) for name in "ab"[: row.arity]]
        b.define("out", NODES[form](row.name, *operands), precision=1)
        program = b.build(output="out")
        label = f"{form} {row.name!r}"
        assert_same(run_tier(program, env, n, "interpreted"), want, True, f"{label} interpreted")
        assert_same(run_tier(program, env, n, NUMPY_TIER), want, exact, f"{label} numpy")
        bound = {name: (env[name].values, env[name].valid) for name in env}
        expr = NODES[form](row.name, *(Var(name) for name in "ab"[: row.arity]))
        with np.errstate(all="ignore"):
            vectored = eval_expr_vectorized(expr, bound, n)
        assert_same(vectored, want, exact, f"{label} vectoreval")
        (kernel,) = compile_program(program, optimize=False, codegen_tier=NATIVE_TIER).kernels
        if row.c is None:
            assert "no bit-stable native lowering" in native.lowering_blockers(kernel.spec)[0]
        elif native.native_available():
            assert kernel.active_tier == NATIVE_TIER, kernel.native_fallback_reason
            assert_same(run_tier(program, env, n, NATIVE_TIER), want, True, f"{label} native")


def test_unknown_names_and_wrong_forms_are_rejected():
    for node, name in ((BinOp, "^^"), (BinOp, "pow"), (UnaryOp, "sin"), (NODES["call"], "neg")):
        with pytest.raises(ValidationError):
            node(name, Const(1.0), Const(2.0)) if node is BinOp else node(name, Const(1.0))
    with pytest.raises(ValidationError):  # arity comes from the row
        Call("atan2", (Const(1.0),))


# ---------------------------------------------------------------------- #
# aggregate rows
# ---------------------------------------------------------------------- #
N = 160
WINDOWS = (1.0, 6.0)  # single-snapshot windows and a proper range


def aggregate_buffer():
    rng = np.random.default_rng(17)
    values = 1.0 + rng.normal(0.0, 0.4, N)  # near 1: products stay finite
    valid = np.ones(N, dtype=bool)
    valid[40:55] = False  # longer than every window: all-φ windows
    valid[[3, 90, 91, 130]] = False
    return SSBuf(np.arange(1.0, N + 1.0), values, valid, start_time=0.0)


def window_program(agg, size):
    b = IRBuilder()
    b.define("out", b.stream("x").window(-size, 0.0).reduce(agg), precision=1)
    return b.build(output="out")


@pytest.mark.parametrize("size", WINDOWS)
@pytest.mark.parametrize("agg", list(builtin_aggregates().values()), ids=lambda agg: agg.name)
def test_aggregate_row_agrees_across_paths(agg, size):
    buf = aggregate_buffer()
    ends = buf.times
    # scalar template: fold the valid snapshots overlapping (t - size, t]
    folds = [
        agg.fold(buf.values[max(int(t - size), 0) : int(t)][buf.valid[max(int(t - size), 0) : int(t)]])
        for t in ends
    ]
    want = (np.array([v for v, _ in folds]), np.array([ok for _, ok in folds]))
    assert not want[1][45:55].any() and want[1][:3].all()

    def close(got, reference, label):
        np.testing.assert_array_equal(got[1], reference[1], err_msg=f"{label}: validity")
        # prefix differences cancel: a single-snapshot stddev is the sqrt of
        # a longdouble rounding residue (~1e-10 for values near 1), not 0
        np.testing.assert_allclose(
            got[0][reference[1]], reference[0][reference[1]], rtol=1e-9, atol=1e-8, err_msg=label
        )

    # the row's vectorized reduction (what the fold strategy calls per window)
    dense = buf.values[buf.valid]
    assert float(agg.vector_eval(dense)) == pytest.approx(agg.fold(dense)[0], rel=1e-9)
    # the range index the row picks
    close(range_aggregate(buf, ends - size, ends, agg), want, "range index")
    # the NumPy kernel, one shot
    program = window_program(agg, size)
    one_shot = run_tier(program, {"x": buf}, float(N), NUMPY_TIER)
    close(one_shot, want, "numpy kernel")
    # the same reduce path with session-kept sites, fed ragged chunks
    (kernel,) = compile_program(program, optimize=False).kernels
    rt = IncrementalKernelRuntime(kernel, ["x"])
    persisted = agg.strategy.range == "prefix"
    assert [row["state"] for row in rt.plan] == ["persisted" if persisted else "per-invocation"]
    ticked = tick_ragged(kernel, rt, buf)
    assert rt.retained() == (N if persisted else 0)
    close(ticked, one_shot, "kept sites, ragged chunks")
    # the native kernel: bit for bit where the row carries a C fragment —
    # its run entry one shot, its tick entry over the same kept sites
    (kernel,) = compile_program(program, optimize=False, codegen_tier=NATIVE_TIER).kernels
    if not agg.c_lowerable:
        assert f"aggregate {agg.name!r}" in native.lowering_blockers(kernel.spec)[0]
    elif native.native_available():
        assert kernel.active_tier == NATIVE_TIER, kernel.native_fallback_reason
        assert_same(run_tier(program, {"x": buf}, float(N), NATIVE_TIER), one_shot, True, "native")
        kernel.ticked = True  # what opening a session does
        kernel.promote()
        assert kernel.entry(tick=True) == native.TICK_ENTRY, kernel.native_fallback_reason
        ticked_c = tick_ragged(kernel, IncrementalKernelRuntime(kernel, ["x"]), buf)
        assert_same(ticked_c, ticked, True, "native tick entry, ragged chunks")


def tick_ragged(kernel, rt, buf):
    """The kernel ticked over ``buf`` growing in ragged chunks, as a session
    does, with ``rt`` keeping its sites: the concatenated ``(values, valid)``."""
    pieces, done = [], 0
    for cut in (1, 2, 9, 40, 47, 100, 101, N):
        grown = SSBuf(buf.times[:cut], buf.values[:cut], buf.valid[:cut], start_time=0.0)
        pieces.append(kernel.run({"x": grown}, float(done), float(cut), runtime=rt))
        done = cut
    return np.concatenate([p.values for p in pieces]), np.concatenate([p.valid for p in pieces])
