"""Synthetic data generators.

The paper evaluates on NYSE stock ticks, a synthetic 1000 Hz signal, MIMIC-III
ECG waveforms, bearing-vibration recordings, Kaggle credit-card transactions
and the Yahoo Streaming Benchmark ad events.  None of those datasets can be
redistributed here, so each generator below produces a synthetic stream with
the same schema, rate and the statistical features its query exploits (the
paper's own artifact does the same: "results on the synthetic data set should
be comparable to the results on the real data set").

All generators are deterministic given a seed and return
:class:`~repro.core.runtime.stream.EventStream` objects ready to feed any of
the engines.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.runtime.stream import ColumnChunk, EventStream

__all__ = [
    "stock_price_stream",
    "random_signal_stream",
    "ecg_stream",
    "vibration_stream",
    "credit_card_stream",
    "ysb_stream",
    "uniform_value_stream",
]


def stock_price_stream(
    num_events: int,
    *,
    seed: int = 7,
    start_price: float = 100.0,
    volatility: float = 0.5,
    tick_period: float = 1.0,
    drift: float = 0.01,
    name: str = "stock",
) -> EventStream:
    """Synthetic stock tick stream (stand-in for the NYSE feed).

    A geometric-random-walk price sampled every ``tick_period`` seconds with
    a small upward drift, so trend/RSI queries see realistic alternations of
    up- and down-trends.
    """
    rng = np.random.default_rng(seed)
    steps = rng.normal(drift, volatility, num_events)
    prices = start_price + np.cumsum(steps)
    prices = np.maximum(prices, 1.0)
    return EventStream.from_samples(prices, period=tick_period, name=name)


def random_signal_stream(
    num_events: int,
    *,
    seed: int = 11,
    frequency_hz: float = 1000.0,
    scale: float = 10.0,
    offset: float = 0.0,
    missing_fraction: float = 0.0,
    name: str = "signal",
) -> EventStream:
    """Random floating-point signal at a fixed frequency (default 1000 Hz).

    This is the synthetic dataset of Table 2 used by the normalization,
    imputation and resampling queries.  ``missing_fraction`` drops a fraction
    of the samples to create the gaps the imputation query fills.
    """
    rng = np.random.default_rng(seed)
    period = 1.0 / frequency_hz
    values = offset + scale * rng.standard_normal(num_events)
    if missing_fraction <= 0:
        return EventStream.from_samples(values, period=period, name=name)
    kept = np.flatnonzero(rng.random(num_events) >= missing_fraction)
    chunk = ColumnChunk(kept * period, (kept + 1) * period, values[kept])
    return EventStream(chunk, name=name, check_order=False)


def ecg_stream(
    num_events: int,
    *,
    seed: int = 13,
    frequency_hz: float = 125.0,
    heart_rate_bpm: float = 72.0,
    noise: float = 0.03,
    name: str = "ecg",
) -> EventStream:
    """Synthetic ECG waveform with QRS complexes (stand-in for MIMIC-III).

    The waveform is a periodic sum of Gaussians approximating the P, QRS and
    T features of a heartbeat plus white noise; the Pan-Tompkins query's job
    is to locate the R peaks, so the essential property is a sharp dominant
    QRS spike per beat — which this generator provides.
    """
    rng = np.random.default_rng(seed)
    period = 1.0 / frequency_hz
    beat_period = 60.0 / heart_rate_bpm
    t = np.arange(num_events) * period
    phase = np.mod(t, beat_period) / beat_period

    def gaussian(center: float, width: float, amplitude: float) -> np.ndarray:
        return amplitude * np.exp(-((phase - center) ** 2) / (2 * width ** 2))

    wave = (
        gaussian(0.18, 0.025, 0.15)    # P wave
        + gaussian(0.295, 0.012, -0.12)  # Q dip
        + gaussian(0.31, 0.014, 1.0)     # R spike
        + gaussian(0.325, 0.012, -0.18)  # S dip
        + gaussian(0.50, 0.045, 0.30)    # T wave
    )
    wave = wave + noise * rng.standard_normal(num_events)
    return EventStream.from_samples(wave, period=period, name=name)


def vibration_stream(
    num_events: int,
    *,
    seed: int = 17,
    frequency_hz: float = 10_000.0,
    rotation_hz: float = 30.0,
    fault_impulse_every: float = 0.085,
    fault_amplitude: float = 9.0,
    noise: float = 0.3,
    name: str = "vibration",
) -> EventStream:
    """Synthetic bearing-vibration signal (stand-in for the bearing dataset).

    A base sinusoid at the shaft rotation frequency plus periodic high-energy
    fault impulses and broadband noise.  Kurtosis / RMS / crest-factor
    windows (the vibration-analysis query) respond strongly to the impulses,
    which is the behaviour the real dataset exhibits for a faulty bearing.
    """
    rng = np.random.default_rng(seed)
    period = 1.0 / frequency_hz
    t = np.arange(num_events) * period
    base = np.sin(2 * math.pi * rotation_hz * t) + 0.4 * np.sin(2 * math.pi * 2 * rotation_hz * t)
    impulses = np.zeros(num_events)
    impulse_phase = np.mod(t, fault_impulse_every)
    impulse_mask = impulse_phase < (3 * period)
    impulses[impulse_mask] = fault_amplitude * np.exp(
        -impulse_phase[impulse_mask] / (1.5 * period)
    )
    wave = base + impulses + noise * rng.standard_normal(num_events)
    return EventStream.from_samples(wave, period=period, name=name)


def credit_card_stream(
    num_events: int,
    *,
    seed: int = 19,
    num_users: int = 50,
    mean_amount: float = 60.0,
    fraud_fraction: float = 0.005,
    fraud_multiplier: float = 20.0,
    mean_interarrival: float = 30.0,
    name: str = "transactions",
) -> EventStream:
    """Synthetic credit-card transaction stream (stand-in for the Kaggle data).

    Structured events with ``user`` and ``amount`` fields.  Amounts are
    log-normal; a small fraction of transactions are inflated by
    ``fraud_multiplier`` so that the μ+3σ rule of the fraud-detection query
    has something to flag.
    """
    rng = np.random.default_rng(seed)
    gaps = np.maximum(rng.exponential(mean_interarrival, num_events), 1e-3)
    starts = np.cumsum(gaps)
    users = rng.integers(0, num_users, num_events)
    amounts = rng.lognormal(mean=math.log(mean_amount), sigma=0.6, size=num_events)
    fraud = rng.random(num_events) < fraud_fraction
    amounts = np.where(fraud, amounts * fraud_multiplier, amounts)
    # a transaction is valid until the next one arrives (capped at 60 s) so
    # that event intervals never overlap.
    next_starts = np.concatenate((starts[1:], [starts[-1] + mean_interarrival]))
    ends = np.minimum(starts + 60.0, next_starts)
    chunk = ColumnChunk(starts, ends, {"user": users, "amount": amounts, "is_fraud": fraud})
    return EventStream(chunk, name=name, check_order=False)


def ysb_stream(
    num_events: int,
    *,
    seed: int = 23,
    num_campaigns: int = 100,
    events_per_second: float = 10_000.0,
    view_fraction: float = 0.333,
    name: str = "ads",
) -> EventStream:
    """Yahoo Streaming Benchmark ad events.

    Structured events with ``campaign``, ``ad`` and ``event_type`` fields;
    ``event_type`` is 0 = view, 1 = click, 2 = purchase, with roughly one
    third of the events being views (the type the query filters on).
    """
    rng = np.random.default_rng(seed)
    period = 1.0 / events_per_second
    campaigns = rng.integers(0, num_campaigns, num_events)
    ads = rng.integers(0, 10 * num_campaigns, num_events)
    event_types = rng.choice([0.0, 1.0, 2.0], size=num_events,
                             p=[view_fraction, (1 - view_fraction) / 2, (1 - view_fraction) / 2])
    i = np.arange(num_events)
    chunk = ColumnChunk(
        i * period,
        (i + 1) * period,
        {"campaign": campaigns, "ad": ads, "event_type": event_types},
    )
    return EventStream(chunk, name=name, check_order=False)


def uniform_value_stream(
    num_events: int,
    *,
    seed: int = 29,
    low: float = 0.0,
    high: float = 100.0,
    period: float = 1.0,
    name: str = "values",
) -> EventStream:
    """Uniform random scalar stream used by the primitive-operator benchmarks."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(low, high, num_events)
    return EventStream.from_samples(values, period=period, name=name)
