"""Tests for the streaming latency digest and SLO burn-rate engine."""

import numpy as np
import pytest

from repro.obs.events import EventLog
from repro.obs.live import TelemetryBus
from repro.obs.recording import current
from repro.obs.slo import LatencyDigest, SLOEngine


@pytest.fixture
def global_log():
    """Put a fresh enabled event log in force; restore the old after."""
    with current().replace(events=EventLog(enabled=True)) as rec:
        yield rec.events


class TestLatencyDigest:
    def test_percentile_within_one_bin_of_exact(self):
        rng = np.random.default_rng(0)
        samples = rng.gamma(2.0, 0.2, size=20_000)
        digest = LatencyDigest(bin_width=0.01, max_latency=30.0)
        for s in samples:
            digest.add(float(s))
        for p in (50, 90, 95, 99):
            exact = float(np.percentile(samples, p))
            assert digest.percentile(p) == pytest.approx(
                exact, abs=digest.bin_width
            )

    def test_memory_is_bounded(self):
        digest = LatencyDigest(bin_width=0.01, max_latency=10.0)
        for i in range(100_000):
            digest.add((i % 500) / 100.0)
        assert len(digest.counts) == digest.num_bins + 1
        assert digest.count == 100_000

    def test_overflow_bin_reports_max(self):
        digest = LatencyDigest(bin_width=0.01, max_latency=1.0)
        digest.add(57.5)
        assert digest.percentile(99) == 57.5
        assert digest.max == 57.5

    def test_mean_and_empty(self):
        digest = LatencyDigest()
        assert np.isnan(digest.mean())
        assert np.isnan(digest.percentile(50))
        digest.add(1.0)
        digest.add(3.0)
        assert digest.mean() == 2.0

    def test_snapshot_keys(self):
        digest = LatencyDigest()
        assert digest.snapshot()["count"] == 0
        digest.add(0.5)
        snap = digest.snapshot()
        assert set(snap) == {"count", "mean", "p50", "p95", "p99", "max"}

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            LatencyDigest(bin_width=0.0)
        with pytest.raises(ValueError):
            LatencyDigest(bin_width=1.0, max_latency=0.5)


class TestSLOEngine:
    def test_interval_series(self, global_log):
        eng = SLOEngine(slo_threshold=1.0, interval_seconds=60.0)
        for i in range(10):
            eng.record(float(i), 0.2)      # interval 0: all good
        for i in range(10):
            eng.record(60.0 + i, 5.0)      # interval 1: all late
        eng.finish(120.0)
        assert [h["interval"] for h in eng.history] == [0, 1]
        assert eng.history[0]["compliance"] == 1.0
        assert eng.history[1]["compliance"] == 0.0
        kinds = [r["kind"] for r in global_log.records()]
        assert kinds.count("slo.interval") == 2

    def test_empty_intervals_are_fully_compliant(self, global_log):
        eng = SLOEngine(interval_seconds=60.0)
        eng.record(0.0, 0.1)
        eng.record(200.0, 0.1)  # intervals 1 and 2 see no traffic
        eng.finish(240.0)
        compliance = [h["compliance"] for h in eng.history]
        assert compliance == [1.0, 1.0, 1.0, 1.0]

    def test_unserved_requests_burn_budget(self, global_log):
        eng = SLOEngine(target=0.99, interval_seconds=60.0)
        eng.record(0.0, 0.1)
        eng.record_bad(1.0)
        eng.finish(60.0)
        assert eng.history[0]["compliance"] == 0.5
        assert eng.history[0]["burn"] == pytest.approx(50.0)

    def test_alert_fires_and_resolves(self, global_log):
        eng = SLOEngine(
            target=0.99,
            interval_seconds=60.0,
            short_window=2,
            long_window=3,
            burn_threshold=10.0,
        )
        # Three bad intervals: the long window fills with burn 100.
        for k in range(3):
            eng.record(60.0 * k, 5.0)
        # Then enough good intervals to flush both windows.
        for k in range(3, 8):
            eng.record(60.0 * k, 0.1)
        eng.finish(480.0)
        alerts = [
            r for r in global_log.records() if r["kind"] == "slo.alert"
        ]
        assert [a["attrs"]["state"] for a in alerts] == ["firing", "resolved"]
        assert eng.alerts == 1
        assert not eng.alert_firing

    def test_alert_needs_both_windows(self, global_log):
        eng = SLOEngine(
            target=0.99,
            interval_seconds=60.0,
            short_window=1,
            long_window=11,
            burn_threshold=10.0,
        )
        # One bad interval after a long good stretch: the short window
        # spikes to burn 100 but the long window mean stays below the
        # threshold -> no alert.
        for k in range(11):
            eng.record(60.0 * k, 0.1)
        eng.record(60.0 * 11, 5.0)
        eng.finish(60.0 * 12)
        assert eng.alerts == 0

    def test_alert_links_open_warning(self, global_log):
        wid = global_log.open_warning(1, t=0.0)
        eng = SLOEngine(
            target=0.99, interval_seconds=60.0,
            short_window=1, long_window=1, burn_threshold=10.0,
        )
        eng.record(0.0, 5.0)
        eng.finish(60.0)
        alert = next(
            r for r in global_log.records() if r["kind"] == "slo.alert"
        )
        assert alert["attrs"]["state"] == "firing"
        assert alert["cause"] == wid
        global_log.resolve_warning(wid, t=60.0)

    def test_deterministic_across_runs(self, global_log):
        def run():
            eng = SLOEngine(interval_seconds=30.0)
            rng = np.random.default_rng(3)
            for i in range(500):
                eng.record(i * 0.5, float(rng.gamma(2.0, 0.3)))
            eng.finish(250.0)
            return eng.history

        assert run() == run()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SLOEngine(target=1.5)
        with pytest.raises(ValueError):
            SLOEngine(interval_seconds=0.0)
        with pytest.raises(ValueError):
            SLOEngine(short_window=5, long_window=2)
        with pytest.raises(ValueError):
            SLOEngine(burn_threshold=0.0)


class TestDigestMassWithLiveBus:
    """`add_masses`/`merge` percentiles on the streaming telemetry path."""

    def test_add_masses_then_merge_matches_scalar_adds(self):
        # One digest fed fluid-tier mass and then per-request samples; the
        # reference sees the same population via add() only.
        mixed = LatencyDigest(bin_width=0.1, max_latency=5.0)
        mixed.add_masses(
            np.array([0.35, 1.25, 2.45]), np.array([10.0, 5.0, 1.0])
        )
        reference = LatencyDigest(bin_width=0.1, max_latency=5.0)
        for latency, weight in ((0.35, 10), (1.25, 5), (2.45, 1)):
            for _ in range(weight):
                reference.add(latency)
        for latency in (0.15, 0.95, 3.05):
            mixed.add(latency)
            reference.add(latency)
        assert mixed.count == reference.count
        for p in (50, 95, 99):
            assert mixed.percentile(p) == reference.percentile(p)

    def test_record_mass_streams_digest_percentiles(self, global_log):
        """The fluid mass path feeds the same digest the bus publishes.

        The SLO interval close is the bus's sim-time heartbeat: the
        published ``slo.interval`` record must carry exactly the
        percentiles of the interval digest built from ``record`` +
        ``record_mass``.
        """
        bus = TelemetryBus(enabled=True)
        ticks = []
        bus.subscribe(ticks.append)
        with current().replace(bus=bus):
            eng = SLOEngine(slo_threshold=1.0, interval_seconds=60.0)
            eng.record(5.0, 0.4)
            eng.record(10.0, 1.6)  # late: burns budget like late mass
            eng.record_mass(
                20.0, np.array([0.3, 1.5]), np.array([30.0, 10.0])
            )
            eng.record_bad_mass(30.0, 2.0)
            eng.finish(60.0)
        expected = LatencyDigest()
        expected.add(0.4)
        expected.add(1.6)
        expected.add_masses(np.array([0.3, 1.5]), np.array([30.0, 10.0]))
        (point,) = [
            rec["attrs"]
            for tick in ticks
            for rec in tick["events"]
            if rec["kind"] == "slo.interval"
        ]
        assert point["requests"] == 44.0
        assert point["compliance"] == pytest.approx(31.0 / 44.0)
        for key, p in (("p50", 50), ("p95", 95), ("p99", 99)):
            assert point[key] == expected.percentile(p)
        # The interval close ticked the frame boundary exactly once.
        assert [(d["t"], d["interval"]) for d in ticks] == [(60.0, 0)]
