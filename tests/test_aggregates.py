"""Tests for the aggregate function templates (Init/Acc/Result/Deacc).

Every row's lowerings (prefix decomposition, range index, ``vector_eval``,
native kernel) are checked against the scalar fold in
``tests/test_conformance.py``; these pin the fold itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryBuildError
from repro.windowing import (
    COUNT,
    FIRST,
    LAST,
    MAX,
    MEAN,
    MIN,
    PRODUCT,
    STDDEV,
    SUM,
    SUM_SQUARES,
    VARIANCE,
    builtin_aggregates,
    custom_aggregate,
)

VALUES = [3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, 6.0]


class TestBuiltinFolds:
    @pytest.mark.parametrize(
        "agg,expected",
        [
            (SUM, sum(VALUES)),
            (COUNT, len(VALUES)),
            (MAX, max(VALUES)),
            (MIN, min(VALUES)),
            (MEAN, np.mean(VALUES)),
            (VARIANCE, np.var(VALUES)),
            (STDDEV, np.std(VALUES)),
            (SUM_SQUARES, float(np.sum(np.square(VALUES)))),
            (PRODUCT, float(np.prod(VALUES))),
            (FIRST, VALUES[0]),
            (LAST, VALUES[-1]),
        ],
    )
    def test_fold_matches_numpy(self, agg, expected):
        value, valid = agg.fold(VALUES)
        assert valid
        assert value == pytest.approx(expected, rel=1e-9)

    def test_empty_fold_is_phi(self):
        for agg in builtin_aggregates().values():
            assert agg.fold([]) == (0.0, False)

    def test_registry_contents(self):
        registry = builtin_aggregates()
        assert {"sum", "count", "mean", "max", "min", "stddev", "variance"} <= set(registry)

    def test_invertibility_flags(self):
        assert SUM.invertible and MEAN.invertible and STDDEV.invertible
        assert not MAX.invertible and not MIN.invertible

    def test_merge_partial_states(self):
        left, right = VALUES[:4], VALUES[4:]
        for agg in (SUM, COUNT, MEAN, VARIANCE, STDDEV, MAX, MIN):
            state_l = agg.init()
            for v in left:
                state_l = agg.acc(state_l, v)
            state_r = agg.init()
            for v in right:
                state_r = agg.acc(state_r, v)
            merged = agg.merge(state_l, state_r)
            full, _ = agg.fold(VALUES)
            assert agg.result(merged) == pytest.approx(full, rel=1e-9)


class TestCustomAggregate:
    def test_custom_range(self):
        value_range = custom_aggregate(
            "range",
            init=lambda: (float("inf"), float("-inf")),
            acc=lambda s, v: (min(s[0], v), max(s[1], v)),
            result=lambda s: s[1] - s[0],
            merge=lambda a, b: (min(a[0], b[0]), max(a[1], b[1])),
            vector_eval=lambda vals: float(np.max(vals) - np.min(vals)),
        )
        folded, ok = value_range.fold(VALUES)
        assert ok and folded == max(VALUES) - min(VALUES)
        assert value_range.vector_eval(np.array(VALUES)) == folded

    def test_custom_requires_callables(self):
        with pytest.raises(QueryBuildError):
            custom_aggregate("bad", init=None, acc=lambda s, v: s, result=lambda s: s)


@given(st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_property_mean_variance_consistency(values):
    """STDDEV² == VARIANCE and MEAN == SUM / COUNT for any value list."""
    mean, _ = MEAN.fold(values)
    total, _ = SUM.fold(values)
    count, _ = COUNT.fold(values)
    var, _ = VARIANCE.fold(values)
    std, _ = STDDEV.fold(values)
    assert mean == pytest.approx(total / count, rel=1e-9, abs=1e-9)
    assert std ** 2 == pytest.approx(var, rel=1e-6, abs=1e-6)
    assert var == pytest.approx(np.var(values), rel=1e-6, abs=1e-4)
