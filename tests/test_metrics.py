"""Tests for the live metrics of streaming sessions and their fleet aggregates."""

import pytest


class TestStreamingMetrics:
    def test_rolling_throughput_window(self):
        from repro.metrics import SessionMetrics

        m = SessionMetrics(window_ticks=2)
        for events in (100, 100, 400):
            m.record_tick(input_events=events, output_snapshots=0, seconds=1.0)
        # window holds the last two ticks only; cumulative remembers all
        assert m.rolling_throughput == pytest.approx(250.0)
        assert m.summary()["rolling_events_per_second"] == pytest.approx(250.0)
        assert m.throughput == pytest.approx(200.0)
        assert m.input_events == 600

    def test_latency_distribution_percentiles(self):
        from repro.metrics import LatencyDistribution

        lat = LatencyDistribution(capacity=100)
        for ms in range(1, 101):
            lat.record(ms / 1000.0)
        assert lat.p50 == pytest.approx(0.0505, abs=1e-3)
        assert lat.p99 == pytest.approx(0.100, abs=2e-3)
        assert lat.max_seconds == pytest.approx(0.100)
        assert lat.mean == pytest.approx(0.0505, abs=1e-3)

    def test_latency_distribution_bounded_history(self):
        from repro.metrics import LatencyDistribution

        lat = LatencyDistribution(capacity=10)
        for _ in range(5):
            lat.record(10.0)
        for _ in range(10):
            lat.record(1.0)
        # old samples fell out of the ring: percentiles reflect recent ticks
        assert lat.p99 == pytest.approx(1.0)
        assert lat.count == 15

    def test_session_metrics_summary(self):
        from repro.metrics import SessionMetrics

        m = SessionMetrics()
        m.record_tick(input_events=1000, output_snapshots=10, seconds=0.5)
        m.record_tick(input_events=0, output_snapshots=0, seconds=0.1, emitted=False)
        assert m.ticks == 2 and m.empty_ticks == 1
        assert m.throughput == pytest.approx(1000 / 0.6)
        summary = m.summary()
        assert summary["ticks"] == 2.0
        assert summary["events_per_second"] == pytest.approx(1000 / 0.6)
        assert "ticks" in m.format()

    def test_empty_metrics_read_zero(self):
        from repro.metrics import LatencyDistribution, SessionMetrics

        m = SessionMetrics()
        assert m.rolling_throughput == 0.0 and m.throughput == 0.0
        lat = LatencyDistribution()
        assert lat.p50 == 0.0 and lat.p99 == 0.0 and lat.mean == 0.0

    def test_invalid_configs(self):
        from repro.metrics import LatencyDistribution, SessionMetrics

        with pytest.raises(ValueError):
            SessionMetrics(window_ticks=0)
        with pytest.raises(ValueError):
            LatencyDistribution(capacity=0)


class TestFleetMetrics:
    def test_weights_normalize_fairness(self):
        from repro.metrics import SessionMetrics, aggregate_fleet

        heavy, light = SessionMetrics(), SessionMetrics()
        heavy.record_tick(input_events=200, output_snapshots=2, seconds=0.2)
        light.record_tick(input_events=100, output_snapshots=1, seconds=0.1)
        tenants = {"heavy": heavy, "light": light}
        # twice the engine time is the weighted fair share of a weight-2 tenant
        assert aggregate_fleet(tenants, weights={"heavy": 2.0, "light": 1.0}).fairness == pytest.approx(1.0)
        assert aggregate_fleet(tenants).fairness == pytest.approx(0.9)

    def test_empty_fleet(self):
        from repro.metrics import aggregate_fleet

        snap = aggregate_fleet({})
        assert snap.tenants == 0 and snap.input_events == 0
        assert snap.events_per_second == 0.0 and snap.tick_latency_p99 == 0.0
        assert snap.fairness == 1.0
        assert "0/0 tenants active" in snap.format()
