"""Row-driven conformance of the two semantics tables.

Every consumer of an operator or aggregate reads one row
(``repro.core.ops.OPS`` / ``repro.windowing.builtin_aggregates()``); this
suite iterates the tables, so a row added later is covered without editing
it:

* operator rows — scalar reference ≡ interpreter ≡ NumPy kernel ≡ C
  kernel (when the row has a C template and the toolchain is present)
  over an edge grid of ±0.0, negatives, NaN, ±inf, ±1e308 and
  non-integers;
* aggregate rows — scalar fold ≡ range index ≡ the one reduce path with
  session-kept sites fed ragged chunks ≡ native kernel (one shot, and over
  the kept sites), including all-φ and single-snapshot windows, and
  ``vector_eval`` ≡ scalar fold; every prefix row keeps a leading ``-0.0``
  on both tiers;
* derived rows (``derived_aggregate``: kurtosis and a mean of squares) —
  the same paths against the row's own scalar fold, flat windows included,
  and the C extends of their kept sites;
* ``%`` against ``np.mod`` itself over its edge pairs.
"""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.manufacturing import kurtosis_aggregate
from repro.core.codegen import native
from repro.core.codegen.compiled import NATIVE_TIER, NUMPY_TIER, compile_program
from repro.core.codegen.runtime_support import KernelRuntime
from repro.core.ir.builder import IRBuilder
from repro.core.frontend.query import PAYLOAD as E
from repro.core.ir.nodes import BinOp, Call, Const, UnaryOp, Var
from repro.core.ops import OPS, eval_op
from repro.core.runtime.ssbuf import SSBuf
from repro.errors import QueryBuildError, ValidationError
from repro.windowing import builtin_aggregates, derived_aggregate, range_aggregate

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
    """The program's one kernel over ``(0, t_end]``: one snapshot per grid
    point (a query's run compacts a C output kernel's lanes)."""
    (kernel,) = compile_program(program, optimize=False, codegen_tier=tier).kernels
    out = kernel.run(env, 0.0, t_end)
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


#: ``%`` operands: ±0, ±inf, NaN, negative divisors, |a| ≫ |b| (1e300 and
#: the smallest subnormal), and b = 0, which is φ by the row's domain
MOD_EDGES = (
    0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 7.0, -7.0, 1e300, -1e300, 5e-324, -5e-324,
    math.inf, -math.inf, math.nan,
)


def test_mod_is_np_mod_on_every_tier():
    """Each tier's ``%`` against ``np.mod`` itself, not against another tier:
    a NumPy whose remainder moved would fail here, not slip past a
    scalar ≡ NumPy ≡ C comparison."""
    a, b = np.array(list(itertools.product(MOD_EDGES, repeat=2))).T
    n = len(a)
    times = np.arange(1.0, n + 1.0)
    ones = np.ones(n, dtype=bool)
    env = {"a": SSBuf(times, a, ones, start_time=0.0), "b": SSBuf(times, b, ones, start_time=0.0)}
    ib = IRBuilder()
    ib.define("out", ib.stream("a").at(0.0) % ib.stream("b").at(0.0), precision=1)
    program = ib.build(output="out")
    with np.errstate(all="ignore"):
        want = (np.mod(a, b), b != 0)
    assert not want[1].all() and np.isnan(want[0][want[1]]).any()
    tiers = ["interpreted", NUMPY_TIER] + ([NATIVE_TIER] if native.native_available() else [])
    for tier in tiers:
        assert_same(run_tier(program, env, n, tier), want, True, f"% on {tier}")
    (kernel,) = compile_program(program, optimize=False, codegen_tier=NATIVE_TIER).kernels
    assert not native.lowering_blockers(kernel.spec)


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
    rt = KernelRuntime(kernel, ["x"])
    persisted = agg.strategy.range == "prefix"
    assert [row["state"] for row in rt.plan] == ["persisted" if persisted else "per-invocation"]
    ticked = tick_ragged(kernel, rt, buf)
    assert rt.retained() == (N if persisted else 0)
    close(ticked, one_shot, "kept sites, ragged chunks")
    # the native kernel: bit for bit where the row carries a C fragment —
    # one shot, and over the same kept sites
    (kernel,) = compile_program(program, optimize=False, codegen_tier=NATIVE_TIER).kernels
    if not agg.c_lowerable:
        assert f"aggregate {agg.name!r}" in native.lowering_blockers(kernel.spec)[0]
    elif native.native_available():
        assert kernel.active_tier == NATIVE_TIER, kernel.native_fallback_reason
        assert_same(run_tier(program, {"x": buf}, float(N), NATIVE_TIER), one_shot, True, "native")
        ticked_c = tick_ragged(kernel, KernelRuntime(kernel, ["x"]), buf)
        assert_same(ticked_c, ticked, True, "native, kept sites, ragged chunks")


def tick_ragged(kernel, rt, buf, cuts=(1, 2, 9, 40, 47, 100, 101, N)):
    """The kernel ticked over ``buf`` growing in ragged chunks, as a session
    does, with ``rt`` keeping its sites: the concatenated ``(values, valid)``
    (copied per call: a C entry's result is a view of ``rt``'s lanes)."""
    pieces, done = [], 0
    for cut in cuts:
        grown = SSBuf(buf.times[:cut], buf.values[:cut], buf.valid[:cut], start_time=0.0)
        piece = kernel.run({"x": grown}, float(done), float(cut), runtime=rt)
        pieces.append((piece.values.copy(), piece.valid.copy()))
        done = cut
    return np.concatenate([v for v, _ in pieces]), np.concatenate([k for _, k in pieces])


#: derived rows: five raw moments under a guarded finish, and two
#: components (one of them a constant) under ``/``
DERIVED_ROWS = [
    kurtosis_aggregate,
    derived_aggregate("mean_square", {"n": 1.0, "sq": E * E}, Var("sq") / Var("n")),
]


def derived_buffer():
    """:func:`aggregate_buffer` with a flat stretch of a value whose sums
    round (0.3): windows inside it have no spread, however the sums were
    formed."""
    buf = aggregate_buffer()
    values = buf.values.copy()
    values[100:114] = 0.3
    return SSBuf(buf.times, values, buf.valid, start_time=0.0)


@pytest.mark.parametrize("size", WINDOWS)
@pytest.mark.parametrize("agg", DERIVED_ROWS, ids=lambda agg: agg.name)
def test_derived_row_agrees_with_its_scalar_fold(agg, size):
    """A derived row's one definition, on every path: its scalar fold (the
    oracle) ≡ the NumPy prefix index ≡ the NumPy kernel ≡ kept sites fed
    ragged chunks, and the C kernel bit for bit with NumPy — over random
    windows, one-snapshot windows (n = 1), flat windows (m2 = 0) and φ
    gaps."""
    buf = derived_buffer()
    ends = buf.times
    lo = [max(int(t - size), 0) for t in ends]
    folds = [agg.fold(buf.values[a : int(t)][buf.valid[a : int(t)]]) for a, t in zip(lo, ends)]
    want = (np.array([v for v, _ in folds]), np.array([ok for _, ok in folds]))
    assert not want[1][45:55].any() and want[1][:3].all()

    def close(got, label):
        np.testing.assert_array_equal(got[1], want[1], err_msg=f"{label}: validity")
        np.testing.assert_allclose(got[0][want[1]], want[0][want[1]], rtol=1e-9, atol=1e-12, err_msg=label)

    close(range_aggregate(buf, ends - size, ends, agg), "range index")
    program = window_program(agg, size)
    one_shot = run_tier(program, {"x": buf}, float(N), NUMPY_TIER)
    close(one_shot, "numpy kernel")
    (kernel,) = compile_program(program, optimize=False).kernels
    rt = KernelRuntime(kernel, ["x"])
    assert [row["state"] for row in rt.plan] == ["persisted"]
    ticked = tick_ragged(kernel, rt, buf)
    close(ticked, "kept sites, ragged chunks")
    if agg is kurtosis_aggregate:  # no spread: 0.0 on every path
        flat = np.zeros(N, dtype=bool)
        flat[int(size) + 99 : 114] = True  # windows inside the flat stretch
        if size == 1.0:
            flat[:] = want[1]  # and every one-snapshot window
        for label, got in (("fold", want), ("numpy", one_shot), ("ticked", ticked)):
            assert (got[0][flat] == 0.0).all(), label
    (kernel,) = compile_program(program, optimize=False, codegen_tier=NATIVE_TIER).kernels
    assert not native.lowering_blockers(kernel.spec)
    if native.native_available():
        assert kernel.active_tier == NATIVE_TIER, kernel.native_fallback_reason
        assert_same(run_tier(program, {"x": buf}, float(N), NATIVE_TIER), one_shot, True, "native")
        ticked_c = tick_ragged(kernel, KernelRuntime(kernel, ["x"]), buf)
        assert_same(ticked_c, ticked, True, "native, kept sites, ragged chunks")


def test_derived_rows_are_identified_by_their_definition():
    """Two derived rows with one name and different finishes are different
    kernels: different digests, different results.  A row pickles as its
    definition, so a round trip keeps the digest."""
    s, n = Var("s"), Var("n")
    mean = derived_aggregate("ratio", {"n": 1.0, "s": E}, s / n)
    double = derived_aggregate("ratio", {"n": 1.0, "s": E}, s / n * 2.0)
    clone = pickle.loads(pickle.dumps(double))
    specs = [
        compile_program(window_program(agg, 6.0), optimize=False).kernels[0].spec
        for agg in (mean, double, clone)
    ]
    assert specs[0].digest() != specs[1].digest() == specs[2].digest()
    buf = aggregate_buffer()
    tier = NATIVE_TIER if native.native_available() else NUMPY_TIER
    (v1, ok1), (v2, ok2) = (run_tier(window_program(agg, 6.0), {"x": buf}, float(N), tier) for agg in (mean, double))
    np.testing.assert_array_equal(ok1, ok2)
    assert ok1.any() and np.array_equal(v2[ok2], 2.0 * v1[ok1])


def test_derived_rows_refuse_what_a_window_result_cannot_state():
    s, n = Var("s"), Var("n")
    for components, finish, reason in (
        ({"s": E}, Var("t"), "reads 't'"),
        ({"s": Var("v")}, s, "reads 'v'"),
        ({"s": E}, s.sqrt(), "uses 'sqrt'"),
        ({"s": E % 2.0}, s, "uses '%'"),
        ({"s": E}, s.is_valid(), "IsValid"),
        ({}, Const(0.0), "at least one component"),
    ):
        with pytest.raises(QueryBuildError, match=reason):
            derived_aggregate("bad", components, finish)
    # a row without a C template is a row NumPy serves and C refuses
    power = derived_aggregate("power", {"n": 1.0, "s": E}, (s / n) ** 2.0)
    assert power.strategy.range == "prefix" and not power.c_lowerable
    (kernel,) = compile_program(window_program(power, 6.0), optimize=False).kernels
    assert native.lowering_blockers(kernel.spec) == ["aggregate 'power' has no bit-stable native lowering"]


#: the prefix rows a session keeps and, once promoted, the C entry extends
KEPT_ROWS = [
    agg for agg in builtin_aggregates().values()
    if agg.strategy.range == "prefix" and agg.c_lowerable
] + DERIVED_ROWS


@pytest.fixture(scope="module")
def extend_kernels():
    """``name -> (C kernel, NumPy twin)`` per kept row."""
    if not native.native_available():
        pytest.skip("native codegen toolchain (cffi + C compiler) unavailable")
    kernels = {}
    for agg in KEPT_ROWS:
        program = window_program(agg, 3.0)
        (kernel,) = compile_program(program, optimize=False, codegen_tier=NATIVE_TIER).kernels
        assert kernel.active_tier == NATIVE_TIER, kernel.native_fallback_reason
        kernels[agg.name] = kernel, compile_program(program, optimize=False).kernels[0]
    return kernels


@pytest.mark.parametrize("agg", KEPT_ROWS, ids=lambda agg: agg.name)
def test_prefix_row_keeps_a_leading_negative_zero(extend_kernels, agg):
    """Eight ``-0.0`` snapshots from the buffer's start, then ordinary
    values: a window over the leading zeros is ``-0.0`` on NumPy, whose
    prefix sums start from ``-0.0``, and must be on C too — one shot and
    ticked over kept sites, bit for bit.  The interpreter is left out:
    prefix differencing keeps a zero's sign only for windows that start at
    row 0, and the scalar fold sums from ``+0.0``."""
    kernel, twin = extend_kernels[agg.name]
    values = np.concatenate((np.full(8, -0.0), 1.0 + np.arange(8.0)))
    buf = SSBuf(np.arange(1.0, 17.0), values, np.ones(16, dtype=bool), start_time=0.0)
    one_shot = [k.run({"x": buf}, 0.0, 16.0) for k in (kernel, twin)]
    got, want = ((out.values, out.valid) for out in one_shot)
    assert_same(got, want, True, f"{agg.name}: one shot")
    if agg.name in ("sum", "mean"):
        assert np.signbit(want[0][:3]).all(), want[0][:3]
    cuts = (1, 3, 8, 11, 16)
    got, want = (tick_ragged(k, KernelRuntime(k, ["x"]), buf, cuts) for k in (kernel, twin))
    assert_same(got, want, True, f"{agg.name}: kept sites, ragged chunks")


def value_bytes(array: np.ndarray) -> bytes:
    """The bytes of ``array``'s values, every NaN collapsed to one as in
    :func:`canonical_bits` — an x87 ``long double`` holds its value in the
    first 10 of its 16 bytes; the rest is padding nobody writes."""
    array = np.where(np.isnan(array), array.dtype.type(np.nan), array)
    if array.dtype == np.longdouble and np.finfo(np.longdouble).nmant == 63:
        return array.view(np.uint8).reshape(len(array), -1)[:, :10].tobytes()
    return array.tobytes()


@st.composite
def edge_chunks(draw):
    """Edge-grid values (±0.0 and NaN included) with φ lanes, and the ragged
    cuts a session's ticks see them in."""
    n = draw(st.integers(1, 24))
    values = np.array(draw(st.lists(st.sampled_from(GRID), min_size=n, max_size=n)))
    valid = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    cuts = sorted(draw(st.sets(st.integers(1, n), max_size=6)) | {n})
    return values, valid, cuts


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from([agg.name for agg in KEPT_ROWS]), chunks=edge_chunks())
@example(name="sum", chunks=(np.array([0.0, 0.0, -0.0, -0.0, 1.0]), np.ones(5, bool), [2, 5]))
@example(name="mean", chunks=(np.array([-0.0, 2.0, -0.0]), np.ones(3, bool), [1, 3]))
@example(name="variance", chunks=(np.array([-0.0, -0.0, 2.0]), np.ones(3, bool), [1, 3]))
def test_c_extends_equal_numpy_extends(extend_kernels, name, chunks):
    """The C entry's extends write the kept site's rows exactly as
    ``PrefixRangeIndex.extend`` does — the chunk's cumsum, then the last sum
    held added unless it is zero, so a ``-0.0`` sum survives — whatever the
    values and the chunking (an extended-precision row's centre is NumPy's,
    taken from the first chunk, a ``-0.0`` centre included; every row, that
    chunk included, is C's).  The rows themselves are compared, not only
    the outputs: a variance squares away a sum's sign."""
    kernel, twin = extend_kernels[name]
    values, valid, cuts = chunks
    buf = SSBuf(np.arange(1.0, len(values) + 1.0), values, valid, start_time=0.0)
    runtimes = [KernelRuntime(k, ["x"]) for k in (kernel, twin)]
    with np.errstate(all="ignore"):
        got, want = (tick_ragged(k, rt, buf, cuts) for k, rt in zip((kernel, twin), runtimes))
    assert_same(got, want, True, f"{name}: C extends")
    kept = [[site.index.arrays() for site in rt.sites.values()] for rt in runtimes]
    assert len(kept[0]) == len(kept[1]) == 1
    (edges, valid_prefix, prefixes), (edges_np, valid_prefix_np, prefixes_np) = kept[0][0], kept[1][0]
    assert edges.tobytes() == edges_np.tobytes()
    assert valid_prefix.tobytes() == valid_prefix_np.tobytes()
    assert [value_bytes(p) for p in prefixes] == [value_bytes(p) for p in prefixes_np], name
