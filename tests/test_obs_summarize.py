"""Tests for trace summarization: aggregation, critical path, coverage."""

import pytest

from repro.obs.summarize import (
    aggregate_by_name,
    child_coverage,
    critical_path,
    format_summary,
    interval_spans,
    span_children,
    summarize_file,
)
from repro.obs.tracer import write_trace


def _rec(id, parent, name, depth, start, dur, **attrs):
    return {
        "id": id,
        "parent": parent,
        "name": name,
        "depth": depth,
        "start": start,
        "dur": dur,
        "attrs": attrs,
    }


@pytest.fixture
def records():
    """root(100ms) -> [observe(10ms), solve(85ms) -> iterate(80ms)]."""
    return [
        _rec(0, None, "controller.step", 0, 0.0, 0.100),
        _rec(1, 0, "controller.observe", 1, 0.000, 0.010),
        _rec(2, 0, "controller.solve", 1, 0.012, 0.085),
        _rec(3, 2, "qp.iterate", 2, 0.013, 0.080),
    ]


class TestStructure:
    def test_span_children(self, records):
        children = span_children(records)
        assert [r["id"] for r in children[None]] == [0]
        assert [r["id"] for r in children[0]] == [1, 2]
        assert [r["id"] for r in children[2]] == [3]

    def test_aggregate_by_name_self_time(self, records):
        aggs = {a["name"]: a for a in aggregate_by_name(records)}
        # solve's self time excludes its iterate child.
        assert aggs["controller.solve"]["self"] == pytest.approx(0.005)
        assert aggs["controller.step"]["self"] == pytest.approx(0.005)
        assert aggs["qp.iterate"]["self"] == pytest.approx(0.080)
        # Sorted by total descending: the root first.
        assert aggregate_by_name(records)[0]["name"] == "controller.step"

    def test_critical_path_follows_longest_children(self, records):
        path = critical_path(records)
        assert [p["name"] for p in path] == [
            "controller.step",
            "controller.solve",
            "qp.iterate",
        ]
        assert path[0]["share"] == 1.0
        assert path[1]["share"] == pytest.approx(0.85)
        assert path[2]["share"] == pytest.approx(0.080 / 0.085)

    def test_child_coverage(self, records):
        coverage = child_coverage(records)
        assert coverage[0] == pytest.approx(0.95)
        assert coverage[2] == pytest.approx(0.080 / 0.085)
        assert 3 not in coverage  # leaf spans have no coverage entry

    def test_interval_spans_ordered(self, records):
        more = records + [_rec(4, None, "controller.step", 0, 0.2, 0.05)]
        steps = interval_spans(more)
        assert [s["id"] for s in steps] == [0, 4]

    def test_empty_trace(self):
        assert critical_path([]) == []
        assert format_summary([]) == "trace contains no spans"


class TestFormatting:
    def test_format_summary_sections(self, records):
        text = format_summary(records)
        assert "top spans" in text
        assert "critical path" in text
        assert "95.0% covered by child spans" in text
        assert "interval timeline" in text
        assert "per-interval phase breakdown" in text

    def test_top_limits_rows(self, records):
        text = format_summary(records, top=1)
        # Only the root row survives in the top-spans table.
        assert "qp.iterate" in text  # still on the critical path
        lines = text.splitlines()
        top_table = lines[: lines.index("")]
        assert sum("controller.observe" in ln for ln in top_table) == 0

    def test_summarize_file_round_trip(self, records, tmp_path):
        path = write_trace(records, tmp_path / "t.jsonl")
        assert "critical path" in summarize_file(path)


class TestTracedRunCoverage:
    def test_cell_spans_cover_sim_run(self):
        """An instrumented run's sim.run span is covered by its intervals."""
        from repro.experiments.fig6a_constant import run_fig6a
        from repro.obs.recording import current
        from repro.obs.tracer import Tracer

        tracer = Tracer(enabled=True)
        with current().replace(tracer=tracer):
            run_fig6a(hours=6, horizons=(2,))
        records = tracer.records()
        by_id = {r["id"]: r for r in records}
        coverage = child_coverage(records)
        run_ids = [r["id"] for r in records if r["name"] == "sim.run"]
        assert run_ids, "no sim.run spans recorded"
        for rid in run_ids:
            assert coverage[rid] > 0.5, by_id[rid]
