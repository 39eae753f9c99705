"""Two Table-2 queries over opaque custom aggregates: Python callables that
the native tier cannot lower and the process pool cannot pickle.

Every app in ``ALL_APPLICATIONS`` lowers to C and pickles, so the
refused-kernel and unpicklable-query paths are driven by these instead: the
apps' own queries and streams, with their custom aggregate written as
lambdas the way a user would write one.

* :data:`OPAQUE_VIBRATION` — kurtosis as a lambda fold: the one (output)
  kernel is refused and the query does not pickle;
* :data:`OPAQUE_PANTOM` — the window derivative as a lambda fold: one
  intermediate kernel is refused, the other two lower.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.apps.healthcare import PAN_TOMPKINS
from repro.apps.manufacturing import VIBRATION
from repro.core.frontend.query import LEFT, PAYLOAD as E, RIGHT, source
from repro.windowing import MAX, MEAN, custom_aggregate

__all__ = ["OPAQUE_KURTOSIS", "OPAQUE_DERIVATIVE", "OPAQUE_VIBRATION", "OPAQUE_PANTOM"]


def _kurtosis(state) -> float:
    n, s1, s2, s3, s4 = state
    if n < 2:
        return 0.0
    mean = s1 / n
    m2 = s2 / n - mean**2
    if m2 <= 0:
        return 0.0
    return (s4 / n - 4 * mean * (s3 / n) + 6 * mean**2 * (s2 / n) - 3 * mean**4) / m2**2


OPAQUE_KURTOSIS = custom_aggregate(
    name="kurtosis",
    init=lambda: (0.0, 0.0, 0.0, 0.0, 0.0),
    acc=lambda s, v: (s[0] + 1, s[1] + v, s[2] + v * v, s[3] + v**3, s[4] + v**4),
    result=_kurtosis,
    vector_eval=lambda vals: float(
        np.mean((vals - vals.mean()) ** 4) / max(np.var(vals) ** 2, 1e-30)
    )
    if len(vals) >= 2
    else 0.0,
)

OPAQUE_DERIVATIVE = custom_aggregate(
    name="window_derivative",
    init=lambda: (None, None, 0),
    acc=lambda s, v: (v if s[0] is None else s[0], v, s[2] + 1),
    result=lambda s: 0.0 if s[2] < 2 else (s[1] - s[0]) / max(s[2] - 1, 1),
    vector_eval=lambda vals: 0.0 if len(vals) < 2 else float(vals[-1] - vals[0]) / (len(vals) - 1),
)


def _vibration_query(window: float = 0.125):
    vib = source("vibration")
    rms = vib.window(window, window).aggregate(MEAN, element=E * E).select(E.sqrt())
    peak = vib.window(window, window).aggregate(MAX, element=abs(E))
    kurt = vib.window(window, window).aggregate(OPAQUE_KURTOSIS)
    indicator = kurt.join(peak.join(rms, LEFT / RIGHT), LEFT + RIGHT)
    return indicator.where(E > 4.0).named("alerts")


def _pantom_query(period: float = 1.0 / 128.0):
    ecg = source("ecg")
    narrow = ecg.window(16 * period, period).aggregate(MEAN)
    wide = ecg.window(80 * period, period).aggregate(MEAN)
    bandpass = narrow.join(wide, LEFT - RIGHT).named("bandpass")
    derivative = bandpass.window(5 * period, period).aggregate(OPAQUE_DERIVATIVE)
    squared = derivative.select(E * E).named("squared")
    integrated = squared.window(20 * period, period).aggregate(MEAN)
    return integrated.where(E > 1e-4).named("qrs")


OPAQUE_VIBRATION = dataclasses.replace(
    VIBRATION, name="opaque_vibration", build_query=_vibration_query
)
OPAQUE_PANTOM = dataclasses.replace(PAN_TOMPKINS, name="opaque_pantom", build_query=_pantom_query)
