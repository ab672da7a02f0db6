"""Tests for the streaming telemetry bus and its sinks."""

import json
import urllib.request

import pytest

from repro.obs.events import EventLog, get_events, load_events
from repro.obs.flightrec import FlightRecorder
from repro.obs.live import MetricsServer, PromFileWriter, TelemetryBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.recording import Recording, current
from repro.obs.slo import SLOEngine


@pytest.fixture
def global_log():
    """Put a fresh enabled event log in force; restore the old after."""
    with current().replace(events=EventLog(enabled=True)) as rec:
        yield rec.events


@pytest.fixture
def global_registry():
    """Put a fresh metrics registry in force; restore the old after."""
    with current().replace(metrics=MetricsRegistry()) as rec:
        yield rec.metrics


def collect(bus):
    """Subscribe a list-appending sink; returns the list."""
    frames = []
    bus.subscribe(frames.append)
    return frames


class TestTelemetryBus:
    def test_disabled_tick_publishes_nothing(self, global_log):
        bus = TelemetryBus(enabled=False)
        frames = collect(bus)
        global_log.emit("warning.issued", t=1.0)
        bus.tick(1.0, 0)
        assert frames == []

    def test_frame_order_and_seq(self, global_log, global_registry):
        bus = TelemetryBus(enabled=True)
        frames = collect(bus)
        global_log.emit("warning.issued", t=5.0, event_id="w1")
        global_log.emit("slo.interval", t=30.0, interval=0, p99=0.3)
        bus.tick(30.0, 0)
        global_log.emit("warning.resolved", t=40.0, cause="w1", outcome="completed")
        bus.tick(60.0, 1)
        # One frame per tick, holding the journal records appended since
        # the last one, verbatim and in journal order.
        assert [(f["t"], f["interval"]) for f in frames] == [(30.0, 0), (60.0, 1)]
        assert set(frames[0]) == {"t", "interval", "events"}
        assert [r["seq"] for f in frames for r in f["events"]] == [0, 1, 2]
        assert [r for f in frames for r in f["events"]] == global_log.records()

    def test_quiet_tick_is_only_a_frame_marker(
        self, global_log, global_registry
    ):
        bus = TelemetryBus(enabled=True)
        frames = collect(bus)
        bus.tick(1.0)
        assert frames == [{"t": 1.0, "interval": None, "events": []}]

    def test_wall_clock_histograms_collapse_to_count(
        self, tmp_path, global_log, global_registry
    ):
        bus = TelemetryBus(enabled=True)
        recorder = bus.subscribe(FlightRecorder(out_dir=tmp_path))
        global_registry.histogram("controller.solve_ms").observe(12.34)
        global_registry.histogram("mpo.iterations").observe(40.0)
        bus.tick(1.0)
        header = json.loads(recorder.dump("manual").read_text().splitlines()[0])
        assert header["metrics"]["controller.solve_ms"] == {"count": 1}
        assert header["metrics"]["mpo.iterations"]["p50"] == 40.0

    def test_subscribers_see_deltas_in_subscription_order(
        self, global_log, global_registry
    ):
        bus = TelemetryBus(enabled=True)
        order = []
        bus.subscribe(lambda f: order.append("first"))
        bus.subscribe(lambda f: order.append("second"))
        bus.tick(1.0)
        bus.tick(2.0)
        assert order == ["first", "second", "first", "second"]


class TestByteIdenticalStream:
    def _run_stream(self) -> tuple[list[dict], list[dict]]:
        """One seeded SLO-driven run: its frames and its journal."""
        bus = TelemetryBus(enabled=True)
        frames = collect(bus)
        with Recording(events=EventLog(enabled=True), bus=bus):
            engine = SLOEngine(interval_seconds=30.0, slo_threshold=0.5)
            for i in range(600):
                t = i * 0.5
                engine.record(t, 0.1 if (i // 120) % 2 == 0 else 0.9)
            engine.finish(300.0)
            journal = get_events().records()
        return frames, journal

    def test_identical_runs_identical_bytes(self):
        frames, journal = self._run_stream()
        assert len(frames) == 10
        assert any(r["kind"] == "slo.alert" for r in journal)
        # Concatenated, the frames are the journal, record for record.
        assert [r for f in frames for r in f["events"]] == journal
        again, _ = self._run_stream()
        assert json.dumps(again, sort_keys=True) == json.dumps(
            frames, sort_keys=True
        )


class TestSweepStream:
    def test_serial_sweep_streams_each_record_once(
        self, global_log, global_registry
    ):
        # Serial pmap cells journal into private logs that the caller's
        # log adopts: the bus must publish the adopted copies (re-sequenced,
        # cell-tagged), not the private ones as well.  The monitor's flags,
        # journaled while it handles the final frame, follow in one more.
        from repro.experiments.fig6a_constant import run_fig6a
        from repro.obs.anomaly import AnomalyMonitor

        bus = TelemetryBus(enabled=True)
        bus.subscribe(AnomalyMonitor())
        frames = collect(bus)
        with current().replace(bus=bus):
            run_fig6a(hours=4)
            bus.flush()
        journal = global_log.records()
        plans = [r for r in journal if r["kind"] == "interval.plan"]
        assert plans and all("cell" in r["attrs"] for r in plans)
        assert any(r["kind"] == "telemetry.anomaly" for r in journal)
        assert [r for f in frames for r in f["events"]] == journal
        # The caller's clock never advances during the sweep: each frame
        # of adopted records holds one cell interval and is stamped from
        # its last record; the flags follow at the stamp before them.
        adopted = 0
        previous = None
        for frame in frames:
            stamp = (frame["t"], frame["interval"])
            events = frame["events"]
            if events and "cell" in events[0]["attrs"]:
                adopted += 1
                assert stamp == (events[-1]["t"], events[-1]["interval"])
                cells = {(r["attrs"]["cell"], r["interval"]) for r in events}
                assert len(cells) == 1
            else:
                assert stamp == previous
            previous = stamp
        assert adopted > 1


class TestPromFileWriter:
    def test_refreshes_atomically_on_tick(
        self, tmp_path, global_log, global_registry
    ):
        bus = TelemetryBus(enabled=True)
        path = tmp_path / "metrics.prom"
        bus.subscribe(PromFileWriter(path))
        global_registry.counter("sim.intervals").inc()
        bus.tick(1.0)
        first = path.read_text()
        assert "spotweb_sim_intervals_total 1" in first
        global_registry.counter("sim.intervals").inc()
        bus.tick(2.0)
        assert "spotweb_sim_intervals_total 2" in path.read_text()
        # Atomic replace leaves no temp file behind.
        assert list(tmp_path.iterdir()) == [path]


class TestMetricsServer:
    def test_scrape_serves_openmetrics(self, global_registry):
        global_registry.counter("des.events").inc(7)
        server = MetricsServer(0).start()
        try:
            body = (
                urllib.request.urlopen(server.url, timeout=5).read().decode()
            )
        finally:
            server.stop()
        assert "spotweb_des_events_total 7" in body
        assert body.endswith("# EOF\n")

    def test_refreshes_on_tick_and_404s_elsewhere(
        self, global_log, global_registry
    ):
        bus = TelemetryBus(enabled=True)
        server = bus.subscribe(MetricsServer(0).start())
        try:
            global_registry.counter("des.events").inc()
            bus.tick(1.0)
            body = (
                urllib.request.urlopen(server.url, timeout=5).read().decode()
            )
            assert "spotweb_des_events_total 1" in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://{server.host}:{server.port}/nope", timeout=5
                )
        finally:
            server.stop()

    def test_empty_registry_serves_eof_only(self, global_registry):
        server = MetricsServer(0).start()
        try:
            body = (
                urllib.request.urlopen(server.url, timeout=5).read().decode()
            )
        finally:
            server.stop()
        assert body == "# EOF\n"
