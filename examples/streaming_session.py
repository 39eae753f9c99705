"""Continuous streaming: the trend query over an unbounded stock feed.

Where ``examples/quickstart.py`` runs the trend-analysis query once over a
finite buffer, this example opens a :class:`~repro.StreamingSession`: the
query is compiled once, then advanced in micro-batch ticks over an unbounded
synthetic tick stream.  Each tick ingests newly arrived events, re-plans only
the new output interval behind the watermark, and emits an incremental
output delta — while the live metrics track rolling throughput and per-tick
latency percentiles.

Run with ``python examples/streaming_session.py``.
"""

from repro import LEFT, PAYLOAD as E, RIGHT, TiltEngine, source
from repro.datagen import GeneratorSource, stock_price_stream
from repro.windowing import MEAN


def main() -> None:
    # the paper's trend query: short moving average above long moving average
    stock = source("stock")
    trend = (
        stock.window(10, 1).aggregate(MEAN)
        .join(stock.window(20, 1).aggregate(MEAN), LEFT - RIGHT)
        .where(E > 0)
        .named("uptrend")
    )

    # an unbounded source: deterministic 20k-event chunks stitched end to
    # end, released 5k events per tick (the simulated arrival rate)
    feed = GeneratorSource(
        lambda i: stock_price_stream(20_000, seed=i),
        name="stock",
        events_per_poll=5_000,
    )

    engine = TiltEngine(workers=4)
    session = engine.open_session(trend.to_program(), [feed], retain_output=False)
    print("boundary:", session.boundary.describe())
    plan = session.plan  # resolved by the session itself, not configured
    print(f"tick path: {plan['tick_path']} ({plan['reason']})")
    for site in plan["sites"]:
        print(
            f"  {site['aggregate']}(~{site['ref']}{list(site['window'])}): "
            f"{site['state']} [{site['strategy']}] — {site['reason']}"
        )
    print(f"carry-over per tick: lookback={session.boundary.max_lookback:g}s of input\n")

    for _ in range(20):
        tick = session.tick()
        if tick.index % 5 == 4:
            print(
                f"tick {tick.index:>3}: watermark={tick.watermark:>9,.0f}s  "
                f"+{len(tick.delta)} output snapshots  |  {session.metrics.format()}"
            )

    final = session.close(drain=False)
    print(
        f"\nclosed after {session.ticks} ticks; final flush emitted "
        f"{len(final.delta)} snapshots through t={final.watermark:,.0f}s"
    )
    print(f"retained carry-over at close: {session.retained_snapshots()} input snapshots")
    # numpy until the query has paid for its C kernels, then tilt_tick
    print(f"ticks served by: {session.plan['tick_entry']}")
    engine.close()


if __name__ == "__main__":
    main()
