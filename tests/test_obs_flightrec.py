"""Tests for the flight recorder: ring buffer, dumps, bundle files."""

import json
import sys

import pytest

from repro.obs.eventreport import summarize_events_file
from repro.obs.events import (
    EVENTS_SCHEMA,
    EventLog,
    EventValidationError,
    load_events,
    read_events,
)
from repro.obs.flightrec import FlightRecorder
from repro.obs.live import TelemetryBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.recording import Recording, current


@pytest.fixture
def global_log():
    with current().replace(events=EventLog(enabled=True)) as rec:
        yield rec.events


def record(seq, t, kind="lb.reweight", *, event_id=None, cause=None, **attrs):
    return {
        "seq": seq,
        "t": t,
        "interval": 0,
        "kind": kind,
        "id": event_id,
        "cause": cause,
        "attrs": attrs,
    }


def frame(t, *records, interval=None):
    return {"t": t, "interval": interval, "events": list(records)}


def alert(seq, t, state="firing"):
    return record(
        seq, t, "slo.alert", cause="w1", state=state, burn_short=20.0, burn_long=12.0
    )


class TestRingBuffer:
    def test_bounded_by_max_records(self):
        rec = FlightRecorder(max_records=3)
        for i in range(10):
            rec(frame(float(i)))
        assert [f["t"] for f in rec.buffered()] == [7.0, 8.0, 9.0]

    def test_bounded_by_sim_time_window(self):
        rec = FlightRecorder(window_seconds=5.0)
        for i in range(10):
            rec(frame(float(i)))
        # Newest is t=9; anything older than t=4 left the window.
        assert [f["t"] for f in rec.buffered()] == [4.0, 5.0, 6.0, 7.0, 8.0, 9.0]

    def test_sparse_frames_keep_the_newest_few(self):
        # An interval-level run ticks every 3,600 s, far beyond the 120-s
        # window: the window stretches to the newest frames, so a bundle
        # holds more than the last interval.
        rec = FlightRecorder()
        for i in range(1, 11):
            rec(frame(3600.0 * i, record(i, 3600.0 * i)))
        assert [f["t"] for f in rec.buffered()] == [
            25200.0,
            28800.0,
            32400.0,
            36000.0,
        ]

    def test_earlier_frame_starts_a_new_window(self):
        # Each scenario episode (and each serial sweep cell) restarts sim
        # time at 0; the next run's window must not open with the tail
        # of the previous one.
        rec = FlightRecorder(window_seconds=120.0)
        for i in range(17):
            rec(frame(360.0 + 7.5 * i, record(33 + i, 360.0 + 7.5 * i)))
        assert rec.buffered()[-1]["t"] == 480.0
        rec(frame(30.0, record(0, 30.0)))
        assert rec.buffered() == [frame(30.0, record(0, 30.0))]

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="max_records"):
            FlightRecorder(max_records=0)
        with pytest.raises(ValueError, match="window_seconds"):
            FlightRecorder(window_seconds=0.0)


class TestAutoDump:
    def test_firing_alert_dumps_pre_alert_window(self, tmp_path):
        rec = FlightRecorder(out_dir=tmp_path)
        rec(frame(30.0, record(0, 30.0)))
        rec(frame(60.0, alert(1, 60.0)))
        assert len(rec.dumped) == 1
        header, records = read_events(rec.dumped[0])
        assert header["reason"] == "slo.alert"
        assert header["trigger"]["attrs"]["state"] == "firing"
        # The buffer still held the pre-alert window at dump time.
        assert [r["seq"] for r in records] == [0, 1]

    def test_resolved_alert_does_not_dump(self, tmp_path):
        rec = FlightRecorder(out_dir=tmp_path)
        rec(frame(60.0, alert(0, 60.0, state="resolved")))
        assert rec.dumped == []

    def test_dump_filenames_are_deterministic(self, tmp_path):
        rec = FlightRecorder(out_dir=tmp_path)
        rec(frame(60.0, alert(0, 60.0)))
        rec(frame(90.0, alert(1, 90.0)))
        assert [p.name for p in rec.dumped] == [
            "flightrec_001_slo_alert.jsonl",
            "flightrec_002_slo_alert.jsonl",
        ]


class TestGlobals:
    def test_crash_hook_dumps_and_chains(self, tmp_path):
        # An exception leaving the recording that armed the recorder
        # dumps a crash bundle, then goes on to the caller; the recording
        # before is back in force and sys.excepthook was never touched.
        before, hook = current(), sys.excepthook
        recorder = FlightRecorder(out_dir=tmp_path)
        boom = RuntimeError("boom")
        with pytest.raises(RuntimeError) as raised:
            with Recording(flightrec=recorder):
                recorder(frame(1.0, record(0, 1.0)))
                raise boom
        assert raised.value is boom
        assert current() is before and sys.excepthook is hook
        (bundle,) = recorder.dumped
        header, records = read_events(bundle)
        assert header["reason"] == "crash"
        assert header["trigger"] == {"exception": "RuntimeError", "message": "boom"}
        assert records == [record(0, 1.0)]


class TestBundleFiles:
    def _dump(self, tmp_path, frames=None):
        rec = FlightRecorder(out_dir=tmp_path)
        for f in frames if frames is not None else [frame(1.0, record(0, 1.0))]:
            rec(f)
        return rec.dump("manual", trigger={"why": "test"})

    def _rewrite(self, tmp_path, header, records):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            "\n".join(json.dumps(obj) for obj in [header, *records]) + "\n"
        )
        return bad

    def test_round_trip(self, tmp_path):
        path = self._dump(
            tmp_path,
            [frame(1.0, record(0, 1.0)), frame(2.0), frame(3.0, record(1, 2.5))],
        )
        header, records = read_events(path)
        assert list(header) == [
            "schema",
            "kind",
            "reason",
            "t",
            "trigger",
            "records",
            "metrics",
        ]
        assert header["schema"] == EVENTS_SCHEMA
        assert header["t"] == 3.0
        assert header["records"] == 2
        assert records == load_events(path) == [record(0, 1.0), record(1, 2.5)]

    def test_window_may_open_inside_a_warning(self, tmp_path):
        # The warning w0 was issued before the window; its drain and its
        # resolution are inside.  A whole journal with these records
        # fails the cause check; the window loads.
        path = self._dump(
            tmp_path,
            [
                frame(
                    130.0,
                    record(7, 125.0, "server.drain", cause="w0", backend=1),
                    record(8, 130.0, "warning.issued", event_id="w1"),
                ),
                frame(
                    140.0,
                    record(
                        9, 140.0, "warning.resolved", cause="w0", outcome="migrated"
                    ),
                ),
            ],
        )
        assert [r["seq"] for r in load_events(path)] == [7, 8, 9]
        header, records = read_events(path)
        bad = tmp_path / "journal.jsonl"
        bad.write_text(
            "\n".join(
                json.dumps(obj)
                for obj in [{"schema": EVENTS_SCHEMA, "kind": "header"}, *records]
            )
            + "\n"
        )
        with pytest.raises(EventValidationError, match="references an id"):
            load_events(bad)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            pytest.param(
                lambda h, r: ({**h, "schema": "nope"}, r),
                "unknown journal schema",
                id="<lambda>-unknown bundle schema",
            ),
            pytest.param(
                lambda h, r: ({**h, "reason": None}, r),
                "string 'reason'",
                id="<lambda>-string 'reason'",
            ),
            pytest.param(
                lambda h, r: ({**h, "records": 9}, r),
                "declares 9",
                id="<lambda>-declares 9",
            ),
            pytest.param(
                # A line that is not an event record, such as a delta of
                # the telemetry stream bundles once held.
                lambda h, r: (h, [{"type": "mystery", "seq": 0, "t": 1.0}]),
                "missing field 'interval'",
                id="<lambda>-unknown delta type",
            ),
            pytest.param(
                lambda h, r: (h, [{**r[0], "seq": "x"}]),
                "field 'seq' has type str",
                id="<lambda>-not an int",
            ),
            pytest.param(
                lambda h, r: (h, [{**r[0], "t": None}]),
                "field 't' has type NoneType",
                id="<lambda>-not a number",
            ),
        ],
    )
    def test_malformed_bundles_rejected(self, tmp_path, mutate, match):
        header, records = read_events(self._dump(tmp_path))
        bad = self._rewrite(tmp_path, *mutate(header, records))
        with pytest.raises(EventValidationError, match=match):
            load_events(bad)

    def test_non_increasing_seq_rejected(self, tmp_path):
        path = self._dump(tmp_path, [frame(1.0, record(5, 1.0))])
        header, records = read_events(path)
        header["records"] = 2
        bad = self._rewrite(tmp_path, header, [*records, record(5, 2.0)])
        with pytest.raises(EventValidationError, match="strictly increasing"):
            load_events(bad)

    def test_empty_bundle_rejected(self, tmp_path):
        bad = tmp_path / "empty.jsonl"
        bad.write_text("")
        with pytest.raises(EventValidationError, match="empty"):
            load_events(bad)

    def test_summarize_names_reason_trigger_and_alert(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("sim.intervals").inc(2)
        with current().replace(metrics=registry):
            path = self._dump(
                tmp_path,
                [frame(30.0, record(0, 30.0)), frame(60.0, alert(1, 60.0))],
            )
        text = summarize_events_file(path)
        lines = text.splitlines()
        assert lines[0].startswith("flight bundle flightrec_")
        assert "reason=manual" in lines[0]
        assert lines[1] == 'trigger: {"why": "test"}'
        assert lines[2].startswith("slo.alert t=60.0 state=firing")
        assert "event kinds (2 events" in text
        # The metrics table closes the report.
        assert "last metrics" in text
        assert lines[-1].split("|")[0].strip() == "sim.intervals"


class TestBusIntegration:
    def test_recorder_follows_live_stream(self, tmp_path, global_log):
        bus = TelemetryBus(enabled=True)
        rec = bus.subscribe(FlightRecorder(out_dir=tmp_path))
        global_log.emit("warning.issued", t=1.0, event_id="w1")
        bus.tick(1.0, 0)
        bus.tick(2.0, 1)
        assert [len(f["events"]) for f in rec.buffered()] == [1, 0]
        header, records = read_events(rec.dump("manual"))
        assert header["records"] == 1
        assert records == global_log.records()


def _scenario_bundles(out_dir, workers):
    """Flight bundles of flash_crowd under both engines (two SLO alerts)."""
    from repro.scenarios import run_suite

    with Recording(flightrec=FlightRecorder(out_dir=out_dir)) as rec:
        run_suite(
            ["flash_crowd"], engines=("request", "hybrid"), workers=workers
        )
    return rec.flightrec.dumped


@pytest.fixture(scope="class")
def serial_bundles(tmp_path_factory):
    return _scenario_bundles(tmp_path_factory.mktemp("serial"), 1)


class TestScenarioBundles:
    def test_quick_pack_bundles_are_journal_windows(self, serial_bundles):
        assert [p.name for p in serial_bundles] == [
            "flightrec_001_slo_alert.jsonl",
            "flightrec_002_slo_alert.jsonl",
        ]
        for path in serial_bundles:
            header, records = read_events(path)
            assert header["reason"] == "slo.alert"
            assert records and all(r["t"] <= header["t"] for r in records)
            # One episode's window: a single scenario, in journal order.
            assert len({r["attrs"].get("scenario") for r in records} - {None}) <= 1

    def test_parallel_bundles_equal_serial(self, serial_bundles, tmp_path):
        # Each pool worker's cell holds its episodes' bundles; the caller
        # numbers, writes and lists them in cell order, as a serial run.
        parallel = _scenario_bundles(tmp_path, 2)
        assert [p.name for p in parallel] == [p.name for p in serial_bundles]
        for a, b in zip(serial_bundles, parallel):
            assert a.read_bytes() == b.read_bytes()
