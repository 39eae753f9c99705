"""Tests for the synthetic data generators."""

import numpy as np
import pytest

from repro.core.runtime.stream import ColumnChunk, Event, EventStream
from repro.datagen import (
    credit_card_stream,
    ecg_stream,
    random_signal_stream,
    stock_price_stream,
    uniform_value_stream,
    vibration_stream,
    ysb_stream,
)


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            stock_price_stream,
            random_signal_stream,
            ecg_stream,
            vibration_stream,
            credit_card_stream,
            ysb_stream,
            uniform_value_stream,
        ],
    )
    def test_same_seed_same_stream(self, factory):
        a = factory(500, seed=5)
        b = factory(500, seed=5)
        assert len(a) == len(b) == 500
        assert a[0].payload == b[0].payload
        assert a[-1].payload == b[-1].payload

    def test_different_seeds_differ(self):
        a = stock_price_stream(100, seed=1)
        b = stock_price_stream(100, seed=2)
        assert a.values().tolist() != b.values().tolist()


class TestStockPrices:
    def test_positive_prices_and_rate(self):
        s = stock_price_stream(1000, seed=3, tick_period=1.0)
        assert np.all(s.values() > 0)
        assert s.time_range() == (0.0, 1000.0)


class TestSignal:
    def test_frequency(self):
        s = random_signal_stream(2000, frequency_hz=1000.0)
        assert s.time_range()[1] == pytest.approx(2.0)

    def test_missing_fraction_creates_gaps(self):
        full = random_signal_stream(2000, seed=1, missing_fraction=0.0)
        gappy = random_signal_stream(2000, seed=1, missing_fraction=0.2)
        assert len(gappy) < len(full)
        assert len(gappy) > 1000


class TestEcg:
    def test_qrs_spikes_present(self):
        s = ecg_stream(128 * 20, seed=2, frequency_hz=128.0, heart_rate_bpm=60.0)
        values = s.values()
        # roughly one dominant R peak per second: the max is much larger than the median
        assert values.max() > 0.7
        assert np.median(np.abs(values)) < 0.3


class TestVibration:
    def test_impulses_increase_kurtosis(self):
        s = vibration_stream(8192, seed=4, frequency_hz=8192.0)
        values = s.values()
        kurt = np.mean((values - values.mean()) ** 4) / np.var(values) ** 2
        assert kurt > 3.5  # impulsive signal is super-Gaussian


class TestCreditCard:
    def test_schema_and_non_overlap(self):
        s = credit_card_stream(500, seed=6)
        assert s.is_structured
        assert set(s.fields()) == {"user", "amount", "is_fraud"}
        ends = s.ends()
        starts = s.starts()
        assert np.all(starts[1:] >= ends[:-1] - 1e-12)

    def test_fraud_events_have_large_amounts(self):
        s = credit_card_stream(5000, seed=7, fraud_fraction=0.01)
        amounts = s.values("amount")
        fraud = s.values("is_fraud") > 0
        assert fraud.sum() > 0
        assert amounts[fraud].mean() > 3 * amounts[~fraud].mean()


class TestYsb:
    def test_schema_and_event_type_distribution(self):
        s = ysb_stream(3000, seed=8, view_fraction=0.4)
        assert set(s.fields()) == {"campaign", "ad", "event_type"}
        types = s.values("event_type")
        view_share = float(np.mean(types == 0.0))
        assert 0.3 < view_share < 0.5

    def test_rate(self):
        s = ysb_stream(1000, events_per_second=10_000.0)
        assert s.time_range()[1] == pytest.approx(0.1)


class TestUniform:
    def test_bounds(self):
        s = uniform_value_stream(1000, low=5.0, high=6.0)
        values = s.values()
        assert values.min() >= 5.0 and values.max() <= 6.0


# ---------------------------------------------------------------------- #
# vectorised generators ≡ the per-event construction they replaced
# ---------------------------------------------------------------------- #
def assert_same_columns(stream, legacy_events):
    """``stream.columns()`` must hold, bit for bit, the floats the legacy
    per-event construction put into ``Event`` objects."""
    cols, legacy = stream.columns(), ColumnChunk.coerce(legacy_events)
    assert cols.starts.tobytes() == legacy.starts.tobytes()
    assert cols.ends.tobytes() == legacy.ends.tobytes()
    assert cols.fields() == legacy.fields()
    for field in cols.fields() or [None]:
        assert cols.column(field).tobytes() == legacy.column(field).tobytes()


def legacy_samples(values, period, start=0.0):
    return [Event(start + i * period, start + (i + 1) * period, v) for i, v in enumerate(values)]


def legacy_gappy_signal(n, seed, missing):
    rng = np.random.default_rng(seed)
    period = 1.0 / 1000.0
    values = 0.0 + 10.0 * rng.standard_normal(n)
    keep = rng.random(n) >= missing
    return [
        Event(i * period, (i + 1) * period, float(v))
        for i, (v, k) in enumerate(zip(values, keep))
        if k
    ]


def legacy_credit_card(n, seed):
    rng = np.random.default_rng(seed)
    starts = np.cumsum(np.maximum(rng.exponential(30.0, n), 1e-3))
    users = rng.integers(0, 50, n)
    amounts = rng.lognormal(mean=np.log(60.0), sigma=0.6, size=n)
    fraud = rng.random(n) < 0.005
    amounts = np.where(fraud, amounts * 20.0, amounts)
    ends = np.minimum(starts + 60.0, np.concatenate((starts[1:], [starts[-1] + 30.0])))
    return [
        Event(float(s), float(e), {"user": float(u), "amount": float(a), "is_fraud": 1.0 if f else 0.0})
        for s, e, u, a, f in zip(starts, ends, users, amounts, fraud)
    ]


def legacy_ysb(n, seed):
    rng = np.random.default_rng(seed)
    period = 1.0 / 10_000.0
    campaigns = rng.integers(0, 100, n)
    ads = rng.integers(0, 1000, n)
    types = rng.choice([0.0, 1.0, 2.0], size=n, p=[0.333, (1 - 0.333) / 2, (1 - 0.333) / 2])
    return [
        Event(i * period, (i + 1) * period, {"campaign": float(c), "ad": float(a), "event_type": float(t)})
        for i, (c, a, t) in enumerate(zip(campaigns, ads, types))
    ]


@pytest.mark.parametrize("seed", [0, 1, 7])
class TestBitExactColumns:
    N = 1_777  # not a power of two: the grid is products i * period, never a cumsum

    @pytest.mark.parametrize(
        "factory, period",
        [
            (stock_price_stream, 1.0),
            (random_signal_stream, 1.0 / 1000.0),
            (ecg_stream, 1.0 / 125.0),
            (vibration_stream, 1.0 / 10_000.0),
            (uniform_value_stream, 1.0),
        ],
    )
    def test_sampled_generators(self, factory, period, seed):
        stream = factory(self.N, seed=seed)
        assert_same_columns(stream, legacy_samples(stream.values(), period))

    def test_gappy_signal(self, seed):
        stream = random_signal_stream(self.N, seed=seed, missing_fraction=0.3)
        assert_same_columns(stream, legacy_gappy_signal(self.N, seed, 0.3))

    def test_credit_card(self, seed):
        assert_same_columns(credit_card_stream(self.N, seed=seed), legacy_credit_card(self.N, seed))

    def test_ysb(self, seed):
        assert_same_columns(ysb_stream(self.N, seed=seed), legacy_ysb(self.N, seed))

    def test_from_samples_and_from_arrays(self, seed):
        values = np.random.default_rng(seed).random(self.N).tolist()
        stream = EventStream.from_samples(values, period=0.001, start=3.3)
        assert_same_columns(stream, legacy_samples(values, 0.001, 3.3))
        starts, ends = np.arange(self.N) * 0.1, np.arange(self.N) * 0.1 + 0.05
        legacy = [Event(float(s), float(e), v) for s, e, v in zip(starts, ends, values)]
        assert_same_columns(EventStream.from_arrays(starts, ends, values), legacy)
