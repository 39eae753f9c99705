"""Extending TiLT: custom reduction functions and hand-written IR.

Shows the extension points a downstream user is most likely to need:

1. a user-defined aggregate (the Init/Acc/Result/Deacc template of
   Section 6.1.2) used inside a windowed aggregation — here, the kurtosis of
   a vibration signal — written two ways: as opaque Python callables
   (``custom_aggregate``: the NumPy tier folds each window in Python, and
   the native tier refuses it), and as data (``derived_aggregate``: window
   sums and a finish in the operator table's rows, so all three tiers are
   generated from it and it lowers to C like a built-in);
2. authoring a query directly in TiLT IR with the :class:`IRBuilder`, below
   the event-centric frontend, and compiling it;
3. asking the compiled query which tier serves each aggregate, and why.

Run with ``python examples/custom_operators.py``.
"""

import numpy as np

from repro import PAYLOAD as E
from repro import IRBuilder, TiltEngine, source, when
from repro.core.ir import Var, format_program
from repro.datagen import vibration_stream
from repro.windowing import custom_aggregate, derived_aggregate

# ---------------------------------------------------------------------- #
# 1a. an opaque custom aggregate: kurtosis from raw moments, as callables
# ---------------------------------------------------------------------- #
kurtosis = custom_aggregate(
    name="kurtosis",
    init=lambda: (0.0, 0.0, 0.0, 0.0, 0.0),
    acc=lambda s, v: (s[0] + 1, s[1] + v, s[2] + v * v, s[3] + v ** 3, s[4] + v ** 4),
    result=lambda s: 0.0 if s[0] < 2 or (s[2] / s[0] - (s[1] / s[0]) ** 2) <= 0 else (
        (s[4] / s[0] - 4 * (s[1] / s[0]) * (s[3] / s[0])
         + 6 * (s[1] / s[0]) ** 2 * (s[2] / s[0]) - 3 * (s[1] / s[0]) ** 4)
        / (s[2] / s[0] - (s[1] / s[0]) ** 2) ** 2
    ),
    vector_eval=lambda vals: float(np.mean((vals - vals.mean()) ** 4) / max(np.var(vals) ** 2, 1e-30)),
)

# ---------------------------------------------------------------------- #
# 1b. the same aggregate as data: five window sums and a finish over them
# ---------------------------------------------------------------------- #
n, s1, s2, s3, s4 = (Var(name) for name in ("n", "s1", "s2", "s3", "s4"))
mean, mean_square = s1 / n, s2 / n
m2 = mean_square - mean * mean
m4 = s4 / n - 4.0 * mean * (s3 / n) + 6.0 * mean * mean * mean_square - 3.0 * mean * mean * mean * mean
# fewer than two samples: spread 0, and `/` turns a zero divisor into 0.0
spread = m2 * (n >= 2.0)
derived_kurtosis = derived_aggregate(
    "derived_kurtosis",
    {"n": 1.0, "s1": E, "s2": E * E, "s3": E * E * E, "s4": E * E * E * E},  # no `**` in C
    m4 / (spread * spread),
)


def main() -> None:
    # 2. write the query directly in TiLT IR
    builder = IRBuilder()
    vib = builder.stream("vibration")
    kurt = builder.define(
        "kurt", vib.window(-0.125, 0.0).reduce(kurtosis), precision=0.125
    )
    builder.define("alerts", when(kurt.at() > 4.0, kurt.at()), precision=0.125)
    program = builder.build(output="alerts")
    print("=== hand-written TiLT IR ===")
    print(format_program(program))

    stream = vibration_stream(80_000, seed=11, frequency_hz=8192.0)
    engine = TiltEngine(workers=4)
    result = engine.run(program, {"vibration": stream})
    alerts = result.to_stream("alerts").events
    print(f"\nprocessed {result.input_events:,} samples at "
          f"{result.throughput/1e6:.2f} M samples/s")
    print(f"{len(alerts)} windows exceeded the kurtosis alert threshold; first three:")
    for event in alerts[:3]:
        print(f"  ({event.start:.3f}s, {event.end:.3f}s]  kurtosis = {event.payload:.2f}")

    # 3. which tier serves each form: the derived row lowers to C (when a
    #    toolchain is present), the callables stay on NumPy with a reason
    print("\n=== kernel plans after promote() ===")
    for agg in (derived_kurtosis, kurtosis):
        compiled = engine.compile(source("vibration").window(0.125, 0.125).aggregate(agg).to_program())
        compiled.promote()
        windows = engine.run(compiled, {"vibration": stream}).output
        for row in compiled.kernel_plan():
            reason = row["fallback_reason"] or "-"
            print(f"  {agg.name:>16}: {row['state']:<8} {reason}; first window {windows.values[0]:.6f}")
    engine.close()


if __name__ == "__main__":
    main()
