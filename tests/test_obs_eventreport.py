"""Tests for journal reports: summarize, timeline (golden), diff."""

from pathlib import Path

import pytest

from repro.obs.eventreport import (
    diff_files,
    diff_journals,
    format_diff,
    format_event_summary,
    format_timeline,
    incidents,
    kind_counts,
    slo_series,
    summarize_events_file,
    tier_spans,
)
from repro.obs.events import EventLog, write_events
from repro.obs.metrics import prometheus_text

GOLDEN = Path(__file__).parent / "fixtures" / "events" / "timeline_golden.txt"


def sample_journal() -> list[dict]:
    """A small deterministic incident: one migration, one failed kill."""
    log = EventLog(enabled=True)
    w0 = log.open_warning(2, t=180.0, capacity_rps=80.0, warning_seconds=120.0)
    with log.causal(w0):
        log.emit("lb.warning_action", t=180.0, backend=2, action="defer",
                 spare_rps=10.0)
        log.emit("replacement.request", t=180.0, backend=2, capacity_rps=80.0)
        log.emit("server.launch", t=180.0, backend=6, capacity_rps=80.0)
        log.emit("server.boot", t=235.0, backend=6, capacity_rps=80.0)
        log.emit("server.drain", t=240.0, backend=2)
        log.emit("session.migrate", t=240.0, backend=2, sessions=40,
                 migrated=40)
    log.resolve_warning(w0, t=300.0, lost=0)
    w1 = log.open_warning(3, t=180.0, capacity_rps=80.0, warning_seconds=120.0)
    log.emit("server.killed", t=300.0, cause=w1, backend=3, lost=7)
    log.resolve_warning(w1, t=300.0, lost=7)
    log.set_interval(3, 240.0)
    log.emit("slo.interval", t=240.0, requests=100, compliance=0.97,
             burn=3.0, p50=0.2, p95=0.8, p99=1.4)
    return log.records()


class TestReports:
    def test_kind_counts_sorted(self):
        counts = dict(kind_counts(sample_journal()))
        assert counts["warning.issued"] == 2
        assert kind_counts(sample_journal())[0][1] >= kind_counts(
            sample_journal()
        )[-1][1]

    def test_incidents(self):
        incs = incidents(sample_journal())
        assert [i["id"] for i in incs] == ["w0", "w1"]
        assert incs[0]["outcome"] == "migrated"
        assert incs[0]["migrated"] == 40
        assert incs[1]["outcome"] == "failed"
        assert incs[1]["lost"] == 7
        assert all(e["cause"] == "w0" for e in incs[0]["events"])

    def test_open_warning_reported_open(self):
        log = EventLog(enabled=True)
        log.open_warning(1, t=0.0)
        incs = incidents(log.records())
        assert incs[0]["outcome"] == "open"

    def test_slo_series_in_interval_order(self):
        series = slo_series(sample_journal())
        assert [s["interval"] for s in series] == [3]

    def test_summary_sections(self):
        text = format_event_summary(sample_journal())
        assert "event kinds" in text
        assert "incident report (2 revocation warnings)" in text
        assert "outcomes: failed=1, migrated=1" in text
        assert "SLO compliance" in text

    def test_summarize_file_of_a_journal_is_the_plain_report(self, tmp_path):
        # Only a bundle's header (one carrying a reason) adds the
        # reason, trigger, alert and metrics lines.
        path = write_events(sample_journal(), tmp_path / "events.jsonl")
        assert summarize_events_file(path) == format_event_summary(
            sample_journal()
        )

    def test_summary_empty_journal(self):
        assert "no events" in format_event_summary([])

    def test_timeline_matches_golden(self):
        rendered = format_timeline(sample_journal()) + "\n"
        assert rendered == GOLDEN.read_text()

    def test_timeline_collapses_long_same_kind_runs(self):
        log = EventLog(enabled=True)
        wid = log.open_warning(1, t=0.0)
        for i in range(40):
            log.emit("admission.flip", t=float(i), cause=wid,
                     state="rejecting" if i % 2 == 0 else "accepting")
        log.resolve_warning(wid, t=50.0)
        text = format_timeline(log.records())
        assert "... (38 more admission.flip)" in text
        assert text.count("admission.flip") == 3  # 2 shown + elision row


def hybrid_journal() -> list[dict]:
    """A journal with tier switches: start fluid, warning window, settle."""
    log = EventLog(enabled=True)
    log.emit("sim.tier_switch", t=0.0, tier="fluid", trigger="start", moved=0)
    w0 = log.open_warning(2, t=60.0, capacity_rps=80.0, warning_seconds=5.0)
    log.emit(
        "sim.tier_switch", t=60.0, cause=w0, tier="request",
        trigger="warning", moved=17,
    )
    log.emit("server.killed", t=65.0, cause=w0, backend=2, lost=0)
    log.resolve_warning(w0, t=65.0, lost=0)
    log.emit(
        "sim.tier_switch", t=70.0, tier="fluid", trigger="settled", moved=12
    )
    log.emit("slo.interval", t=120.0, requests=10, compliance=1.0, burn=0.0,
             p50=0.1, p95=0.2, p99=0.3)
    return log.records()


class TestTierSpans:
    def test_spans_cover_journal_in_order(self):
        spans = tier_spans(hybrid_journal())
        assert [s["tier"] for s in spans] == ["fluid", "request", "fluid"]
        assert [s["t_start"] for s in spans] == [0.0, 60.0, 70.0]
        # Each span ends where the next begins; the last at the final event.
        assert [s["t_end"] for s in spans] == [60.0, 70.0, 120.0]

    def test_spans_carry_trigger_cause_and_moved(self):
        spans = tier_spans(hybrid_journal())
        assert spans[1]["trigger"] == "warning"
        assert spans[1]["cause"] == "w0"
        assert spans[1]["moved"] == 17
        assert spans[2]["trigger"] == "settled"
        assert spans[2]["cause"] is None

    def test_plain_journal_yields_no_spans(self):
        assert tier_spans(sample_journal()) == []

    def test_timeline_prepends_span_table(self):
        text = format_timeline(hybrid_journal())
        assert text.startswith("engine tier spans (3 spans)")
        # The incident timeline still follows.
        assert "w0 warning.issued" in text

    def test_timeline_unchanged_without_switches(self):
        rendered = format_timeline(sample_journal()) + "\n"
        assert rendered == GOLDEN.read_text()

    def test_span_table_without_incidents(self):
        log = EventLog(enabled=True)
        log.emit(
            "sim.tier_switch", t=0.0, tier="fluid", trigger="start", moved=0
        )
        log.emit("slo.interval", t=60.0, requests=5, compliance=1.0, burn=0.0,
                 p50=0.1, p95=0.2, p99=0.3)
        text = format_timeline(log.records())
        assert "engine tier spans (1 spans)" in text
        assert "warning" not in text


class TestDiff:
    def test_identical_journals(self):
        result = diff_journals(sample_journal(), sample_journal())
        assert result["identical"]
        assert result["first"] is None
        assert "zero divergence" in format_diff(result)

    def test_reseq_only_difference_compares_clean(self):
        a = sample_journal()
        b = [dict(rec, seq=rec["seq"] + 5) for rec in a]
        assert diff_journals(a, b)["identical"]

    def test_divergence_located_to_bucket(self):
        a = sample_journal()
        b = sample_journal()
        b[1] = dict(b[1], attrs=dict(b[1]["attrs"], action="drain_now"))
        result = diff_journals(a, b)
        assert not result["identical"]
        assert result["first"] == "t[180s)"
        text = format_diff(result, name_a="a", name_b="b")
        assert "divergent bucket" in text
        assert "first divergence sample" in text

    def test_extra_event_counts(self):
        a = sample_journal()
        b = sample_journal()[:-1]
        result = diff_journals(a, b)
        [bucket] = result["buckets"]
        assert bucket["count_a"] == bucket["count_b"] + 1
        assert len(bucket["only_a"]) == 1
        assert bucket["only_b"] == []

    def test_interval_buckets_sort_before_time_buckets(self):
        a = sample_journal()
        result = diff_journals(a, [])
        labels = [b["bucket"] for b in result["buckets"]]
        assert labels == sorted(
            labels, key=lambda s: (0 if s.startswith("interval") else 1, s)
        )

    def test_diff_files(self, tmp_path):
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_events(sample_journal(), pa)
        write_events(sample_journal(), pb)
        result, text = diff_files(pa, pb)
        assert result["identical"]
        assert "a.jsonl" in text and "b.jsonl" in text


class TestPrometheusText:
    def test_counter_gauge_summary(self):
        snap = {
            "des.events": 120,
            "lb.spare-rps": 1.5,
            "controller.solve_ms": {
                "count": 4, "p50": 1.0, "p95": 2.0, "max": 3.0, "total": 5.0,
            },
        }
        text = prometheus_text(snap)
        assert "# TYPE spotweb_des_events_total counter" in text
        assert "spotweb_des_events_total 120" in text
        assert "# HELP spotweb_des_events_total" in text
        assert "# TYPE spotweb_lb_spare_rps gauge" in text
        assert 'spotweb_controller_solve_ms{quantile="0.5"} 1.0' in text
        assert "spotweb_controller_solve_ms_count 4" in text
        assert text.endswith("\n")

    def test_empty_snapshot(self):
        assert prometheus_text({}) == ""

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            prometheus_text({"flag": True})
