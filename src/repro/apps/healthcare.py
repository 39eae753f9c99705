"""Healthcare application: Pan-Tompkins QRS detection on ECG waveforms.

The Pan-Tompkins algorithm detects the QRS complexes (heartbeats) in an ECG
signal through a cascade of filtering stages: band-pass filtering, a
derivative, squaring, and moving-window integration followed by
thresholding.  Each stage maps onto a temporal operator: the band-pass is a
difference of two moving averages, the derivative is the window's last
minus first sample over its span (three window aggregates joined), squaring
is a Select, the integrator is another moving average, and thresholding is
a Where.
"""

from __future__ import annotations

from typing import Dict

from ..core.frontend.query import LEFT, PAYLOAD, RIGHT, QueryNode, source
from ..core.ir.nodes import BinOp, Const
from ..core.runtime.stream import EventStream
from ..datagen.generators import ecg_stream
from ..windowing.functions import COUNT, FIRST, LAST, MEAN
from .base import StreamingApplication

__all__ = ["pan_tompkins_query", "PAN_TOMPKINS", "ECG_FREQUENCY_HZ"]

E = PAYLOAD

#: sampling frequency of the synthetic ECG waveform
ECG_FREQUENCY_HZ = 128.0
_PERIOD = 1.0 / ECG_FREQUENCY_HZ

def pan_tompkins_query(
    frequency_hz: float = ECG_FREQUENCY_HZ,
    threshold: float = 1e-4,
) -> QueryNode:
    """Pan-Tompkins QRS detection pipeline.

    Stage windows follow the classic algorithm scaled to the sampling
    frequency: ~0.125 s (16-sample) and ~0.625 s (80-sample) moving averages
    for the band-pass, a 5-sample derivative, squaring, and a ~0.156 s
    (20-sample) moving-window integrator.  The synthetic ECG is sampled at
    128 Hz so every window boundary is exactly representable in binary
    floating point, keeping the event-centric and time-centric engines in
    exact agreement.
    The final Where keeps the integrator output above ``threshold`` — the
    intervals of the output events mark detected QRS complexes.
    """
    period = 1.0 / frequency_hz
    ecg = source("ecg")
    narrow = ecg.window(16 * period, period).aggregate(MEAN).named("ma_narrow")
    wide = ecg.window(80 * period, period).aggregate(MEAN).named("ma_wide")
    bandpass = narrow.join(wide, LEFT - RIGHT).named("bandpass")
    # (last - first) / (count - 1) over 5 samples; a one-sample window has
    # last == first and the divisor max(count - 1, 1) = 1, so it is 0.0
    spread = (
        bandpass.window(5 * period, period).aggregate(LAST)
        .join(bandpass.window(5 * period, period).aggregate(FIRST), LEFT - RIGHT)
    )
    samples = bandpass.window(5 * period, period).aggregate(COUNT)
    derivative = spread.join(samples, LEFT / BinOp("max", RIGHT - 1.0, Const(1.0))).named(
        "derivative"
    )
    squared = derivative.select(E * E).named("squared")
    integrated = squared.window(20 * period, period).aggregate(MEAN).named("integrated")
    return integrated.where(E > threshold).named("qrs")


def _ecg_streams(num_events: int, seed: int) -> Dict[str, EventStream]:
    return {"ecg": ecg_stream(num_events, seed=seed + 13, frequency_hz=ECG_FREQUENCY_HZ)}


PAN_TOMPKINS = StreamingApplication(
    name="pantom",
    title="Pan-Tompkins algorithm",
    description="Detect QRS complexes in ECG",
    operators="Custom-Agg (3), Select, Avg",
    dataset="Synthetic ECG waveform (MIMIC-III stand-in)",
    build_query=pan_tompkins_query,
    build_streams=_ecg_streams,
    default_events=10_000,
)
