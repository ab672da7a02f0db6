"""Tests for the spotweb-events/1 journal: emission, causality, IO."""

import json

import numpy as np
import pytest

from repro.obs.events import (
    EVENTS_SCHEMA,
    EventLog,
    EventValidationError,
    get_events,
    load_events,
    validate_events,
    write_events,
)
from repro.obs.recording import current


@pytest.fixture
def log():
    return EventLog(enabled=True)


@pytest.fixture
def global_log():
    """Put a fresh enabled event log in force; restore the old after."""
    with current().replace(events=EventLog(enabled=True)) as rec:
        yield rec.events


class TestEmission:
    def test_disabled_is_noop(self):
        log = EventLog(enabled=False)
        log.emit("server.drain", backend=1)
        wid = log.open_warning(1, t=0.0)
        assert wid is None
        log.resolve_warning(wid, t=1.0)
        assert log.records() == []

    def test_seq_strictly_increasing(self, log):
        for i in range(5):
            log.emit("lb.reweight", t=float(i))
        seqs = [r["seq"] for r in log.records()]
        assert seqs == sorted(set(seqs))

    def test_clock_and_interval_defaults(self, log):
        log.set_interval(3, 42.0)
        log.emit("interval.plan", demand_rps=1.0)
        rec = log.records()[-1]
        assert rec["t"] == 42.0
        assert rec["interval"] == 3

    def test_attrs_coerced_to_json_native(self, log):
        log.emit(
            "market.revocations",
            t=0.0,
            count=np.int64(2),
            markets=[np.int64(0), np.int64(3)],
            share=np.float64(0.5),
        )
        rec = log.records()[-1]
        json.dumps(rec)  # must not raise
        assert rec["attrs"]["count"] == 2
        assert rec["attrs"]["markets"] == [0, 3]

    def test_causal_scope_sets_default_cause(self, log):
        wid = log.open_warning(7, t=0.0)
        with log.causal(wid):
            assert log.current_cause() == wid
            log.emit("replacement.request", t=0.0, backend=7)
        log.emit("lb.reweight", t=1.0)
        recs = log.records()
        assert recs[1]["cause"] == wid
        assert recs[2]["cause"] is None


class TestWarningLifecycle:
    def test_outcome_failed_when_requests_lost(self, log):
        wid = log.open_warning(1, t=0.0)
        log.resolve_warning(wid, t=5.0, lost=12)
        rec = log.records()[-1]
        assert rec["kind"] == "warning.resolved"
        assert rec["attrs"]["outcome"] == "failed"
        assert rec["cause"] == wid

    def test_outcome_migrated_when_sessions_moved(self, log):
        wid = log.open_warning(1, t=0.0)
        log.emit("session.migrate", t=1.0, cause=wid, migrated=30)
        log.resolve_warning(wid, t=5.0, lost=0)
        rec = log.records()[-1]
        assert rec["attrs"]["outcome"] == "migrated"
        assert rec["attrs"]["migrated"] == 30

    def test_outcome_completed_otherwise(self, log):
        wid = log.open_warning(1, t=0.0)
        log.resolve_warning(wid, t=5.0)
        assert log.records()[-1]["attrs"]["outcome"] == "completed"

    def test_resolution_is_idempotent(self, log):
        wid = log.open_warning(1, t=0.0)
        log.resolve_warning(wid, t=5.0)
        log.resolve_warning(wid, t=6.0)
        kinds = [r["kind"] for r in log.records()]
        assert kinds.count("warning.resolved") == 1

    def test_warning_for_backend_lookup(self, log):
        wid = log.open_warning("vm-3", t=0.0)
        assert log.warning_for("vm-3") == wid
        assert log.warning_for("vm-4") is None
        log.resolve_warning(wid, t=1.0)
        assert log.warning_for("vm-3") is None

    def test_last_open_warning(self, log):
        w0 = log.open_warning(0, t=0.0)
        w1 = log.open_warning(1, t=0.0)
        assert log.last_open_warning() == w1
        log.resolve_warning(w1, t=1.0)
        assert log.last_open_warning() is None
        assert log.open_warning_count() == 1
        log.resolve_warning(w0, t=1.0)
        assert log.open_warning_count() == 0


class TestAdopt:
    def test_adopt_prefixes_ids_and_causes(self, log):
        cell = EventLog(enabled=True)
        wid = cell.open_warning(1, t=0.0)
        cell.resolve_warning(wid, t=1.0)
        log.adopt(cell.records(), cell=4)
        recs = log.records()
        assert recs[0]["id"] == "c4.w0"
        assert recs[1]["cause"] == "c4.w0"
        assert recs[0]["attrs"]["cell"] == 4
        validate_events(recs)

    def test_adopt_resequences(self, log):
        log.emit("lb.reweight", t=0.0)
        cell = EventLog(enabled=True)
        cell.emit("lb.reweight", t=0.0)
        log.adopt(cell.records(), cell=0)
        assert [r["seq"] for r in log.records()] == [0, 1]


class TestGlobals:
    def test_enable_clears_previous_journal(self, global_log):
        # A recording with an enabled log starts its journal empty; the
        # log before it is back, records intact, when it ends.
        global_log.emit("lb.reweight", t=0.0)
        with current().replace(events=EventLog(enabled=True)) as rec:
            assert get_events() is rec.events
            assert get_events().records() == []
        assert get_events() is global_log
        assert len(global_log.records()) == 1


class TestIO:
    def test_round_trip(self, log, tmp_path):
        wid = log.open_warning(1, t=0.0, capacity_rps=80.0)
        with log.causal(wid):
            log.emit("server.drain", t=1.0, backend=1)
        log.resolve_warning(wid, t=5.0)
        path = tmp_path / "events.jsonl"
        write_events(log.records(), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == EVENTS_SCHEMA
        assert load_events(path) == log.records()

    def test_write_is_deterministic(self, log, tmp_path):
        log.emit("lb.reweight", t=0.0, backends=3, total_weight=1.5)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_events(log.records(), a)
        write_events(log.records(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_json_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"schema": EVENTS_SCHEMA, "kind": "header"})
            + "\n{not json\n"
        )
        with pytest.raises(EventValidationError, match="line 2"):
            load_events(path)

    def test_missing_field_reports_line_and_field(self, log, tmp_path):
        log.emit("lb.reweight", t=0.0)
        records = log.records()
        del records[0]["kind"]
        path = tmp_path / "bad.jsonl"
        write_events(records, path)
        with pytest.raises(EventValidationError, match="kind") as err:
            load_events(path)
        assert "line 2" in str(err.value)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "spotweb-trace/1", "kind": "header"}\n')
        with pytest.raises(EventValidationError, match="schema"):
            load_events(path)


class TestValidation:
    def test_valid_journal_passes(self, log):
        wid = log.open_warning(1, t=0.0)
        log.resolve_warning(wid, t=1.0)
        validate_events(log.records())

    def test_unknown_cause_rejected(self, log):
        log.emit("server.drain", t=0.0, cause="w9", backend=1)
        with pytest.raises(EventValidationError, match="cause"):
            validate_events(log.records())

    def test_duplicate_id_rejected(self, log):
        log.emit("warning.issued", t=0.0, event_id="w0")
        log.emit("warning.issued", t=0.0, event_id="w0")
        with pytest.raises(EventValidationError, match="id"):
            validate_events(log.records())

    def test_non_monotone_seq_rejected(self, log):
        log.emit("lb.reweight", t=0.0)
        log.emit("lb.reweight", t=1.0)
        records = log.records()
        records[1]["seq"] = 0
        with pytest.raises(EventValidationError, match="seq"):
            validate_events(records)

    def test_unresolved_warning_rejected(self, log):
        log.open_warning(1, t=0.0)
        with pytest.raises(EventValidationError, match="never resolved"):
            validate_events(log.records())
        validate_events(log.records(), require_resolution=False)

    def test_non_terminal_outcome_rejected(self, log):
        wid = log.open_warning(1, t=0.0)
        log.resolve_warning(wid, t=1.0, outcome="vanished")
        with pytest.raises(EventValidationError, match="outcome"):
            validate_events(log.records())
