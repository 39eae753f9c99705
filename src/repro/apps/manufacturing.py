"""Manufacturing application: bearing vibration analysis.

Industrial vibration monitoring computes statistical health indicators over
short tumbling windows of a high-frequency accelerometer signal.  The query
follows Table 2: kurtosis (a custom aggregate), root-mean-square and crest
factor (peak divided by RMS) over 100-millisecond tumbling windows, joined
into a combined health indicator that is thresholded to raise alerts.
"""

from __future__ import annotations

from typing import Dict

from ..core.frontend.query import LEFT, PAYLOAD, RIGHT, QueryNode, source
from ..core.ir.nodes import Var
from ..core.runtime.stream import EventStream
from ..datagen.generators import vibration_stream
from ..windowing.functions import MAX, MEAN, AggregateFunction, derived_aggregate
from .base import StreamingApplication

__all__ = ["vibration_query", "VIBRATION", "VIBRATION_FREQUENCY_HZ", "kurtosis_aggregate"]

E = PAYLOAD

#: sampling frequency of the synthetic vibration signal
# 2**13 samples per second: every sample boundary is exactly representable
# in binary floating point, so window membership is unambiguous and the
# event-centric and time-centric engines agree bit-for-bit.
VIBRATION_FREQUENCY_HZ = 8192.0


def _kurtosis() -> AggregateFunction:
    """The (non-excess) kurtosis ``m4 / m2²`` of a window from its raw
    moments — the Custom-Agg of the vibration-analysis query, as one derived
    prefix row: five window sums, one index, every tier.

    A window of fewer than two samples has no spread, nor does a flat one:
    a variance under 2⁻²⁰ of the mean square is what the float64 raw moments
    leave of a constant window (``m4`` is then mostly cancellation error).
    Either way the divisor is zero and ``/`` gives the kurtosis 0.0."""
    n, s1, s2, s3, s4 = (Var(name) for name in ("n", "s1", "s2", "s3", "s4"))
    mean = s1 / n
    mean_square = s2 / n
    m2 = mean_square - mean * mean
    m4 = s4 / n - 4.0 * mean * (s3 / n) + 6.0 * mean * mean * mean_square - 3.0 * mean * mean * mean * mean
    spread = m2 * ((n >= 2.0) & (m2 > 2.0 ** -20 * mean_square))
    return derived_aggregate(
        "kurtosis",
        {"n": 1.0, "s1": E, "s2": E * E, "s3": E * E * E, "s4": E * E * E * E},
        m4 / (spread * spread),
    )


kurtosis_aggregate = _kurtosis()


def vibration_query(
    window: float = 0.125,
    frequency_hz: float = VIBRATION_FREQUENCY_HZ,
    alert_threshold: float = 4.0,
) -> QueryNode:
    """Vibration health monitoring over ``window``-second tumbling windows (default 125 ms).

    * RMS: square-root of the mean of squared samples (Avg with a squaring
      element map followed by a Select);
    * peak: windowed Max;
    * crest factor: peak / RMS (Join);
    * kurtosis: a derived aggregate over raw moments;
    * alert: kurtosis + crest factor joined and thresholded (Join + Where).
    """
    vib = source("vibration")
    mean_square = vib.window(window, window).aggregate(MEAN, element=E * E).named("mean_square")
    rms = mean_square.select(E.sqrt()).named("rms")
    peak = vib.window(window, window).aggregate(MAX, element=abs(E)).named("peak")
    crest = peak.join(rms, LEFT / RIGHT).named("crest_factor")
    kurt = vib.window(window, window).aggregate(kurtosis_aggregate).named("kurtosis")
    indicator = kurt.join(crest, LEFT + RIGHT).named("health_indicator")
    return indicator.where(E > alert_threshold).named("alerts")


def _vibration_streams(num_events: int, seed: int) -> Dict[str, EventStream]:
    return {
        "vibration": vibration_stream(
            num_events, seed=seed + 17, frequency_hz=VIBRATION_FREQUENCY_HZ
        )
    }


VIBRATION = StreamingApplication(
    name="vibration",
    title="Vibration analysis",
    description="Monitor machine vibrations using kurtosis, RMS and crest factor",
    operators="Max, Avg (2), Join (2), Custom-Agg",
    dataset="Synthetic bearing vibration signal (8.192 kHz)",
    build_query=vibration_query,
    build_streams=_vibration_streams,
    default_events=20_000,
)
