"""Absolute anchors for the operator table (φ-propagation rules, IEEE
results).  Cross-tier agreement of every row is ``test_conformance.py``;
these pin what the agreed value *is*, and the drift PR 17 resolved."""

import math

import numpy as np
import pytest

from repro.core.codegen.compiled import compile_program
from repro.core.ir.builder import IRBuilder
from repro.core.ir.nodes import Const
from repro.core.ops import OPS, eval_op
from repro.core.runtime.ssbuf import SSBuf


def ev(name, *args):
    return eval_op(OPS[name], args)


@pytest.mark.parametrize(
    "name,args,expected",
    [
        ("+", (2.0, 3.0), 5.0),
        ("-", (2.0, 3.0), -1.0),
        ("*", (2.0, 3.0), 6.0),
        ("/", (6.0, 3.0), 2.0),
        ("%", (7.0, 2.0), 1.0),
        ("**", (2.0, 3.0), 8.0),
        ("min", (2.0, 3.0), 2.0),
        ("max", (2.0, 3.0), 3.0),
        (">", (2.0, 3.0), 0.0),
        ("<", (2.0, 3.0), 1.0),
        (">=", (3.0, 3.0), 1.0),
        ("<=", (4.0, 3.0), 0.0),
        ("==", (3.0, 3.0), 1.0),
        ("!=", (3.0, 3.0), 0.0),
        ("and", (1.0, 0.0), 0.0),
        ("and", (2.0, 5.0), 1.0),
        ("or", (0.0, 0.0), 0.0),
        ("or", (0.0, 2.0), 1.0),
        ("neg", (2.0,), -2.0),
        ("abs", (-2.0,), 2.0),
        ("not", (0.0,), 1.0),
        ("not", (3.0,), 0.0),
        ("floor", (2.7,), 2.0),
        ("ceil", (2.1,), 3.0),
        ("sign", (-5.0,), -1.0),
        ("sqrt", (9.0,), 3.0),
        ("exp", (0.0,), 1.0),
        ("log", (math.e,), 1.0),
        ("pow", (2.0, 10.0), 1024.0),
        ("sin", (0.0,), 0.0),
        ("cos", (0.0,), 1.0),
        ("atan2", (0.0, 1.0), 0.0),
    ],
)
def test_valid_results(name, args, expected):
    value, ok = ev(name, *args)
    assert ok and value == pytest.approx(expected)


def test_domain_errors_are_phi():
    for name, args in (("/", (1.0, 0.0)), ("%", (1.0, 0.0)), ("sqrt", (-1.0,)), ("log", (0.0,)), ("log", (-5.0,))):
        assert ev(name, *args) == (0.0, False)


class TestDriftResolvedTowardTheNumpyTier:
    """Each case used to differ between the scalar reference (interpreter,
    constant folder) and the NumPy tier; the rows' comments say how each
    was resolved."""

    def test_mod_is_floored(self):
        assert ev("%", -7.0, 3.0) == (2.0, True)
        assert ev("%", 7.0, -3.0) == (-2.0, True)

    def test_pow_returns_the_ieee_result(self):
        value, ok = ev("**", -8.0, 0.5)
        assert ok and math.isnan(value)
        assert ev("**", 1e308, 2.0) == (math.inf, True)
        assert ev("**", -1e308, 3.0) == (-math.inf, True)
        assert ev("pow", 0.0, -1.0) == (math.inf, True)

    def test_exp_clamps_at_700(self):
        assert ev("exp", 800.0) == (math.exp(700.0), True)

    def test_nan_operands(self):
        assert math.isnan(ev("sign", math.nan)[0])
        for name in ("min", "max"):
            assert math.isnan(ev(name, math.nan, 1.0)[0]) and math.isnan(ev(name, 1.0, math.nan)[0])
        assert ev("sqrt", math.nan) == (0.0, False)
        assert math.isnan(ev("floor", math.nan)[0]) and ev("ceil", math.inf) == (math.inf, True)
        assert math.isnan(ev("sin", math.inf)[0])

    def test_folding_a_fractional_power_of_a_negative_constant_compiles(self):
        b = IRBuilder()
        b.define("out", b.stream("x").at(0.0) + Const(-8.0) ** Const(0.5), precision=1)
        compiled = compile_program(b.build(output="out"))  # used to raise TypeError
        buf = SSBuf([1.0, 2.0], [1.0, 2.0], start_time=0.0)
        out = compiled.run({"x": buf}, 0.0, 2.0)
        assert out.valid.all() and np.isnan(out.values).all()

    def test_mod_of_negative_inputs_does_not_depend_on_folding(self):
        def program(shift):
            b = IRBuilder()
            # `Const(-7) % 3` folds under optimize=True; `x % 3` never does
            b.define("out", b.stream("x").at(0.0) % 3.0 + shift % Const(3.0), precision=1)
            return b.build(output="out")

        values = np.array([-7.0, -1.5, 0.0, 4.0, -0.25])
        buf = SSBuf(np.arange(1.0, 6.0), values, start_time=0.0)
        want = np.mod(values, 3.0) + 2.0
        for kwargs in ({"optimize": True}, {"optimize": False}, {"codegen_tier": "interpreted"}):
            out = compile_program(program(Const(-7.0)), **kwargs).run({"x": buf}, 0.0, 5.0)
            assert out.valid.all()
            np.testing.assert_array_equal(out.values, want, err_msg=str(kwargs))
