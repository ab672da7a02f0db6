"""Tests for the recording a command, episode or sweep cell runs under."""

import pytest

from repro.obs import get_bus, get_events, get_metrics, get_tracer
from repro.obs.events import EventLog, read_events
from repro.obs.flightrec import FlightRecorder
from repro.obs.live import TelemetryBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.recording import Recording, current
from repro.obs.tracer import Tracer


def in_force():
    return get_tracer(), get_events(), get_bus(), get_metrics()


class TestInstall:
    def test_parts_in_force_for_the_extent(self):
        before = current()
        with Recording(tracer=Tracer(enabled=True)) as rec:
            assert current() is rec
            assert in_force() == (rec.tracer, rec.events, rec.bus, rec.metrics)
            assert not (rec.events.enabled or rec.bus.enabled)
            assert rec.flightrec is None
        assert current() is before
        assert in_force() == (
            before.tracer, before.events, before.bus, before.metrics
        )

    def test_replace_shares_every_other_part(self):
        outer = Recording(events=EventLog(enabled=True))
        with outer, outer.replace(metrics=MetricsRegistry()) as inner:
            assert current() is inner
            assert inner.events is outer.events and inner.bus is outer.bus
            assert get_metrics() is inner.metrics is not outer.metrics
            assert inner.tracer is outer.tracer
        assert current() is not outer

    def test_restored_on_exception(self):
        before = current()
        with pytest.raises(KeyError):
            with Recording():
                raise KeyError("x")
        assert current() is before


class TestCrashBundles:
    def test_flush_streams_pending_records_first(self, tmp_path):
        # Records journaled since the last tick reach the recorder only
        # on a flush: the crash dump must not see an empty window.
        rec = Recording(
            events=EventLog(enabled=True),
            bus=TelemetryBus(enabled=True),
            flightrec=FlightRecorder(out_dir=tmp_path),
        )
        rec.bus.subscribe(rec.flightrec)
        with pytest.raises(RuntimeError):
            with rec:
                get_events().emit("warning.issued", t=5.0, event_id="w0")
                raise RuntimeError("boom")
        (bundle,) = rec.flightrec.dumped
        header, records = read_events(bundle, require_resolution=False)
        assert header["records"] == 1 and records[0]["id"] == "w0"

    def test_flush_error_keeps_the_original_exception(self, tmp_path):
        def broken(frame):
            raise ValueError("sink down")

        rec = Recording(
            events=EventLog(enabled=True),
            bus=TelemetryBus(enabled=True),
            flightrec=FlightRecorder(out_dir=tmp_path),
        )
        rec.bus.subscribe(broken)
        with pytest.raises(RuntimeError, match="boom"):
            with rec:
                get_events().emit("lb.reweight", t=1.0)
                raise RuntimeError("boom")
        (bundle,) = rec.flightrec.dumped
        header, _ = read_events(bundle)
        assert header["trigger"] == {
            "exception": "RuntimeError",
            "message": "boom",
            "flush_error": "ValueError: sink down",
        }

    def test_system_exit_dumps_nothing(self, tmp_path):
        rec = Recording(flightrec=FlightRecorder(out_dir=tmp_path))
        with pytest.raises(SystemExit):
            with rec:
                raise SystemExit(1)
        assert rec.flightrec.dumped == []

    def test_only_the_arming_recording_dumps(self, tmp_path):
        # An episode inherits the recorder: the exception passes through
        # its recording without a dump and is dumped once, by the
        # recording that armed the recorder.
        rec = Recording(flightrec=FlightRecorder(out_dir=tmp_path))
        with pytest.raises(RuntimeError):
            with rec:
                with current().replace(events=EventLog(enabled=True)):
                    raise RuntimeError("boom")
        assert [p.name for p in rec.flightrec.dumped] == [
            "flightrec_001_crash.jsonl"
        ]
