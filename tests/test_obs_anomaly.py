"""Tests for the streaming anomaly detectors and the bus monitor."""

import pytest

from repro.obs.anomaly import (
    ANOMALY_EVENT,
    AnomalyMonitor,
    CusumDetector,
    DetectorConfig,
    EwmaZScoreDetector,
    detect_series,
)
from repro.obs.events import EventLog
from repro.obs.live import TelemetryBus
from repro.obs.recording import current


@pytest.fixture
def global_log():
    with current().replace(events=EventLog(enabled=True)) as rec:
        yield rec.events


class TestDetectorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"warmup": 0},
            {"ewma_alpha": 0.0},
            {"ewma_alpha": 1.5},
            {"z_threshold": 0.0},
            {"cusum_h": -1.0},
            {"cusum_k": -0.1},
            {"min_scale": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)


class TestEwmaZScore:
    def test_warmup_returns_none(self):
        det = EwmaZScoreDetector(DetectorConfig(warmup=3))
        assert [det.update(1.0) for _ in range(3)] == [None, None, None]
        assert det.update(1.0) is not None

    def test_spike_fires_then_recovers(self):
        det = EwmaZScoreDetector(DetectorConfig(warmup=4, min_scale=0.01))
        for v in (1.0, 1.1, 0.9, 1.0):
            det.update(v)
        det.update(1.05)
        assert not det.fired
        score = det.update(5.0)  # the flash crowd lands
        assert det.fired and score > 4.0
        # Scored before the state absorbed the outlier: the EWMA mean
        # moved toward 5.0 only *after* the flag.
        assert det._mean < 5.0 - (5.0 - 1.0) * 0.5

    def test_constant_series_needs_min_scale_floor(self):
        # Fluid steady state: exactly constant, zero deviation.  The
        # floor keeps the first wobble finite (and here, sub-threshold).
        det = EwmaZScoreDetector(DetectorConfig(warmup=4, min_scale=0.1))
        for _ in range(10):
            det.update(2.0)
            assert not det.fired
        score = det.update(2.2)
        assert score == pytest.approx(2.0)
        assert not det.fired


class TestCusum:
    def test_sustained_shift_fires_and_realarm(self):
        values = [1.0, 1.0, 1.0, 1.0] + [1.3] * 20
        flags = detect_series(values, DetectorConfig(min_scale=0.1))
        assert flags, "level shift never fired"
        assert flags[0]["detector"] == "cusum"
        # Accumulators reset after a flag, so a persisting shift
        # re-alarms instead of saturating.
        assert len(flags) >= 2

    def test_downward_shift_fires_too(self):
        values = [1.0, 1.0, 1.0, 1.0] + [0.7] * 20
        assert detect_series(values, DetectorConfig(min_scale=0.1))

    def test_steady_series_is_silent(self):
        values = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.01, 0.99] * 5
        config = DetectorConfig(min_scale=0.01)
        assert detect_series(values, config) == []
        assert detect_series(values, config, detector="ewma") == []

    def test_baseline_frozen_at_warmup(self):
        det = CusumDetector(DetectorConfig(warmup=4, min_scale=0.1))
        for v in (1.0, 1.0, 1.0, 1.0):
            det.update(v)
        frozen = det._mean
        for _ in range(50):
            det.update(1.3)
        assert det._mean == frozen  # the shift never bent the baseline


class TestDetectSeries:
    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError, match="unknown detector"):
            detect_series([1.0], detector="magic")

    def test_flags_carry_index_value_score(self):
        values = [1.0] * 4 + [9.0]
        (flag,) = detect_series(
            values, DetectorConfig(min_scale=0.1), detector="ewma"
        )
        assert flag["index"] == 4
        assert flag["value"] == 9.0
        assert flag["score"] >= 4.0

    def test_identical_inputs_identical_flags(self):
        values = [1.0, 1.1, 0.9, 1.0, 1.2, 4.0, 1.0, 3.9, 1.1]
        assert detect_series(values) == detect_series(values)


class TestAnomalyMonitor:
    def _slo_interval(self, log, t, p99, compliance=1.0):
        log.emit(
            "slo.interval",
            t=t,
            interval=int(t // 30),
            requests=100,
            compliance=compliance,
            burn=0.0,
            p50=p99 / 3,
            p95=p99 / 1.5,
            p99=p99,
        )

    def test_flags_spike_and_links_open_warning(self, global_log):
        bus = TelemetryBus(enabled=True)
        monitor = bus.subscribe(AnomalyMonitor())
        for i in range(5):
            self._slo_interval(global_log, 30.0 * (i + 1), 0.2)
            bus.tick(30.0 * (i + 1), i)
        warning = global_log.open_warning(3, t=160.0)
        self._slo_interval(global_log, 180.0, 4.0)
        bus.tick(180.0, 5)
        assert monitor.anomalies, "spike never flagged"
        assert {a["series"] for a in monitor.anomalies} == {"slo.p99"}
        events = [
            r for r in global_log.records() if r["kind"] == ANOMALY_EVENT
        ]
        assert len(events) == len(monitor.anomalies)
        for rec in events:
            assert rec["cause"] == warning
            assert rec["t"] == 180.0
            assert rec["attrs"]["detector"] in ("ewma_z", "cusum")

    def test_monitor_ignores_its_own_events(self, global_log):
        bus = TelemetryBus(enabled=True)
        monitor = bus.subscribe(AnomalyMonitor())
        for i in range(5):
            self._slo_interval(global_log, 30.0 * (i + 1), 0.2)
            bus.tick(30.0 * (i + 1), i)
        self._slo_interval(global_log, 180.0, 4.0)
        bus.tick(180.0, 5)
        flagged = len(monitor.anomalies)
        # The anomaly events drain on the next frame; feeding them back
        # into the monitor must not flag (or even observe) them.
        bus.tick(210.0, 6)
        assert len(monitor.anomalies) == flagged

    def test_steady_run_is_silent(self, global_log):
        bus = TelemetryBus(enabled=True)
        monitor = bus.subscribe(AnomalyMonitor())
        for i in range(20):
            self._slo_interval(global_log, 30.0 * (i + 1), 0.2)
            bus.tick(30.0 * (i + 1), i)
        assert monitor.anomalies == []
