"""Tests for repro.obs tracing: nesting, timing, no-op overhead, JSONL IO."""

import time

import numpy as np
import pytest

from repro.obs.recording import current
from repro.obs.tracer import (
    TRACE_SCHEMA,
    NullSpan,
    Tracer,
    get_tracer,
    load_trace,
    validate_trace,
    write_trace,
)


@pytest.fixture
def tracer():
    return Tracer(enabled=True)


@pytest.fixture
def global_tracer():
    """Put a fresh enabled tracer in force; restore the old one after."""
    with current().replace(tracer=Tracer(enabled=True)) as rec:
        yield rec.tracer


class TestSpanNesting:
    def test_parent_child_links(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grand:
                    pass
        assert root.parent is None and root.depth == 0
        assert child.parent == root.id and child.depth == 1
        assert grand.parent == child.id and grand.depth == 2

    def test_siblings_share_parent(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent == root.id and b.parent == root.id
        assert a.depth == b.depth == 1
        assert a.id != b.id

    def test_sequential_roots(self, tracer):
        with tracer.span("first") as first:
            pass
        with tracer.span("second") as second:
            pass
        assert first.parent is None and second.parent is None
        assert tracer.open_spans == 0

    def test_timing_nested_within_parent(self, tracer):
        with tracer.span("root") as root:
            time.sleep(0.002)
            with tracer.span("child") as child:
                time.sleep(0.002)
            time.sleep(0.002)
        assert child.start >= root.start
        assert child.dur > 0
        assert root.dur >= child.dur
        assert child.start + child.dur <= root.start + root.dur + 1e-6

    def test_tag_merges_attrs(self, tracer):
        with tracer.span("s", a=1) as sp:
            sp.tag(b=2).tag(a=3)
        assert sp.attrs == {"a": 3, "b": 2}

    def test_exception_still_finishes_spans(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("child"):
                    raise RuntimeError("boom")
        assert tracer.open_spans == 0
        names = [r["name"] for r in tracer.records()]
        assert sorted(names) == ["child", "root"]

    def test_dangling_child_popped_by_parent_exit(self, tracer):
        root = tracer.span("root")
        root.__enter__()
        tracer.span("dangling").__enter__()  # never exited directly
        root.__exit__(None, None, None)
        assert tracer.open_spans == 0
        assert len(tracer.records()) == 2

    def test_records_are_schema_valid_and_start_ordered(self, tracer):
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        records = tracer.records()
        validate_trace(records)
        starts = [r["start"] for r in records]
        assert starts == sorted(starts)

    def test_clear_resets_ids_and_epoch(self, tracer):
        with tracer.span("one"):
            pass
        tracer.clear()
        assert tracer.records() == []
        with tracer.span("two") as sp:
            pass
        assert sp.id == 0


class TestDisabledTracer:
    def test_span_is_shared_null(self):
        t = Tracer(enabled=False)
        a, b = t.span("a"), t.span("b", attr=1)
        assert isinstance(a, NullSpan)
        assert a is b  # shared instance: the disabled path allocates nothing

    def test_null_span_api(self):
        t = Tracer(enabled=False)
        with t.span("x") as sp:
            assert sp.tag(iterations=3) is sp
        assert t.records() == []

    def test_global_toggle(self, global_tracer):
        # Tracing is on for the recording's extent and off outside it.
        assert get_tracer() is global_tracer and global_tracer.enabled
        with current().replace(tracer=Tracer(enabled=False)):
            assert isinstance(get_tracer().span("x"), NullSpan)
        assert get_tracer() is global_tracer
        with global_tracer.span("x"):
            pass
        assert [r["name"] for r in global_tracer.records()] == ["x"]


class TestNoopOverhead:
    def test_disabled_overhead_below_one_percent_of_solve(self, global_tracer):
        """Disabled tracing must cost <1% of a 48-market x H=6 solve.

        Direct A/B wall-clock comparison of two solves is noise-dominated,
        so instead: count the spans an enabled solve emits, measure the
        disabled per-call cost over many calls, and bound their product.
        """
        from repro.core import CostModel, MPOOptimizer
        from repro.markets import generate_market_dataset, market_universe

        markets = market_universe(48)
        dataset = generate_market_dataset(markets, intervals=3, seed=0)
        covariance = dataset.event_covariance()
        optimizer = MPOOptimizer(
            markets, horizon=6, cost_model=CostModel(churn_penalty=0.2)
        )
        inputs = (
            np.full(6, 10_000.0),
            np.tile(dataset.prices[0], (6, 1)),
            np.tile(dataset.failure_probs[0], (6, 1)),
            covariance,
        )
        optimizer.optimize(*inputs)  # warm up (cold factorization)

        tracer = get_tracer()
        tracer.clear()
        t0_s = time.perf_counter()
        optimizer.optimize(*inputs)
        solve_seconds = time.perf_counter() - t0_s
        spans_per_solve = len(tracer.records())
        assert spans_per_solve > 0

        tracer.enabled = False
        calls = 200_000
        t0_s = time.perf_counter()
        for _ in range(calls):
            tracer.span("noop")
        per_call = (time.perf_counter() - t0_s) / calls

        overhead = spans_per_solve * per_call
        assert overhead < 0.01 * solve_seconds, (
            f"{spans_per_solve} spans x {per_call * 1e9:.0f} ns "
            f"= {1000 * overhead:.4f} ms vs solve {1000 * solve_seconds:.2f} ms"
        )


class TestTraceIO:
    def test_round_trip(self, tracer, tmp_path):
        with tracer.span("root", kind="test"):
            with tracer.span("child", n=48):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.write(path)
        loaded = load_trace(path)
        assert loaded == tracer.records()

    def test_header_line_carries_schema(self, tracer, tmp_path):
        import json

        with tracer.span("root"):
            pass
        path = tracer.write(tmp_path / "t.jsonl")
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"schema": TRACE_SCHEMA, "kind": "header"}

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "spotweb-trace/99", "kind": "header"}\n')
        with pytest.raises(ValueError, match="unknown trace schema"):
            load_trace(path)

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_trace(path)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="JSONL"):
            load_trace(path)


def _record(**overrides):
    base = {
        "id": 0,
        "parent": None,
        "name": "root",
        "depth": 0,
        "start": 0.0,
        "dur": 1.0,
        "attrs": {},
    }
    base.update(overrides)
    return base


class TestValidateTrace:
    def test_accepts_valid_nested(self):
        validate_trace(
            [
                _record(),
                _record(id=1, parent=0, name="child", depth=1, start=0.1,
                        dur=0.5),
            ]
        )

    def test_rejects_missing_field(self):
        rec = _record()
        del rec["name"]
        with pytest.raises(ValueError, match="missing field"):
            validate_trace([rec])

    def test_rejects_mistyped_field(self):
        with pytest.raises(ValueError, match="has type"):
            validate_trace([_record(id="zero")])

    def test_rejects_bool_masquerading_as_int(self):
        with pytest.raises(ValueError, match="has type"):
            validate_trace([_record(id=True)])

    def test_rejects_duplicate_id(self):
        with pytest.raises(ValueError, match="duplicate span id"):
            validate_trace([_record(), _record()])

    def test_rejects_unknown_parent(self):
        with pytest.raises(ValueError, match="unknown parent"):
            validate_trace([_record(id=1, parent=42, depth=1)])

    def test_rejects_depth_mismatch(self):
        with pytest.raises(ValueError, match="depth"):
            validate_trace([_record(), _record(id=1, parent=0, depth=5)])

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="negative duration"):
            validate_trace([_record(dur=-0.5)])

    def test_rejects_child_starting_before_parent(self):
        with pytest.raises(ValueError, match="starts before"):
            validate_trace(
                [
                    _record(start=1.0),
                    _record(id=1, parent=0, depth=1, start=0.0),
                ]
            )

    def test_write_trace_accepts_plain_records(self, tmp_path):
        path = write_trace([_record()], tmp_path / "t.jsonl")
        assert load_trace(path) == [_record()]
