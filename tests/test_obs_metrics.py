"""Tests for the repro.obs metrics registry and snapshot determinism."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
)
from repro.obs.recording import current


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_increments(self):
        c = Counter("n")
        c.inc()
        c.inc(3)
        assert c.snapshot() == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("n").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("g")
        g.set(1.5)
        g.set(2.5)
        assert g.snapshot() == 2.5


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram("h")
        for v in [4.0, 1.0, 3.0, 2.0, 5.0]:
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["total"] == 15.0
        assert snap["min"] == 1.0 and snap["max"] == 5.0
        assert snap["p50"] == 3.0
        assert snap["p95"] == pytest.approx(4.8)

    def test_empty_summary(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0 and snap["p95"] == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            Histogram("h").observe(float("nan"))

    def test_single_observation(self):
        h = Histogram("h")
        h.observe(7.0)
        snap = h.snapshot()
        assert snap["p50"] == snap["p95"] == 7.0


class TestRegistry:
    def test_create_on_first_use(self, registry):
        registry.counter("a").inc()
        assert registry.counter("a").snapshot() == 1
        assert len(registry) == 1

    def test_kind_clash_raises(self, registry):
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_sorted_and_deterministic(self):
        def populate(reg):
            reg.counter("z.last").inc(2)
            reg.histogram("m.lat").observe(1.0)
            reg.histogram("m.lat").observe(3.0)
            reg.gauge("a.first").set(0.5)

        r1, r2 = MetricsRegistry(), MetricsRegistry()
        populate(r1)
        populate(r2)
        assert r1.snapshot() == r2.snapshot()
        assert list(r1.snapshot()) == ["a.first", "m.lat", "z.last"]
        # JSON-diffable: identical serialized form, no unstable floats.
        assert json.dumps(r1.snapshot()) == json.dumps(r2.snapshot())

    def test_fold_adds_counters_appends_samples_takes_last_gauge(self):
        # Recording into one registry and folding two are the same.
        def record(reg, n, sample, level):
            reg.counter("c").inc(n)
            reg.histogram("h").observe(sample)
            reg.gauge("g").set(level)

        shared, first, second = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for reg in (shared, first):
            record(reg, 2, 1.0, 0.5)
        for reg in (shared, second):
            record(reg, 3, 4.0, 0.25)
            reg.counter("only.second").inc()
        folded = MetricsRegistry()
        folded.fold(first)
        folded.fold(second)
        assert folded.snapshot() == shared.snapshot()
        assert folded.histogram("h").values == [1.0, 4.0]
        clash = MetricsRegistry()
        clash.gauge("c")
        with pytest.raises(TypeError, match="already registered"):
            clash.fold(first)

    def test_sim_snapshot_cuts_wall_clock_histograms_to_count(self, registry):
        registry.histogram("controller.solve_ms").observe(12.5)
        registry.histogram("mpo.iterations").observe(40.0)
        registry.counter("lb.warnings").inc()
        sim = registry.sim_snapshot()
        assert sim["controller.solve_ms"] == {"count": 1}
        assert sim["mpo.iterations"] == registry.snapshot()["mpo.iterations"]
        assert sim["lb.warnings"] == 1
        assert list(sim) == list(registry.snapshot())

    def test_iter_is_sorted(self, registry):
        registry.counter("b")
        registry.counter("a")
        assert list(registry) == ["a", "b"]


class TestGlobalRegistry:
    def test_set_and_reset(self):
        before = get_metrics()
        with current().replace(metrics=MetricsRegistry()) as rec:
            get_metrics().counter("t").inc(5)
            assert rec.metrics.snapshot() == {"t": 5}
        assert get_metrics() is before

    def test_instrumented_run_populates_expected_metrics(self):
        """A tiny end-to-end sim populates the documented metric names."""
        from repro.experiments.fig6a_constant import run_fig6a

        with current().replace(metrics=MetricsRegistry()):
            run_fig6a(hours=6, horizons=(2,))
            snap = get_metrics().snapshot()
        for name in (
            "controller.steps",
            "controller.solve_ms",
            "mpo.solves",
            "sim.intervals",
        ):
            assert name in snap, f"missing metric {name}"
        assert snap["sim.intervals"] == 12  # 6 hours x 2 policies
        assert snap["controller.solve_ms"]["count"] == snap["controller.steps"]

    def test_identical_runs_snapshot_identically(self):
        """Event-derived metrics are bitwise reproducible across runs.

        Latency histograms (``*_ms``) measure the wall clock and are the
        one intentionally nondeterministic family: compare their sample
        counts, and everything else exactly.
        """
        from repro.experiments.fig6a_constant import run_fig6a

        snaps = []
        for _ in range(2):
            with current().replace(metrics=MetricsRegistry()):
                run_fig6a(hours=4, horizons=(2,))
                snaps.append(get_metrics().snapshot())

        def normalize(snap):
            return {
                name: value["count"] if name.endswith("_ms") else value
                for name, value in snap.items()
            }

        assert normalize(snaps[0]) == normalize(snaps[1])


class TestPrometheusExport:
    """Exporter edge cases: registry-typed kinds, mangling, atomic write."""

    def test_registry_types_beat_value_inference(self, registry):
        from repro.obs.metrics import prometheus_text

        # An int-valued gauge would be mis-inferred as a counter from a
        # bare snapshot dict; the registry knows its class.
        registry.gauge("fleet.size").set(4)
        text = prometheus_text(registry)
        assert "# TYPE spotweb_fleet_size gauge" in text
        assert "spotweb_fleet_size 4" in text
        assert "_total" not in text

    def test_counters_get_total_suffix_and_help(self, registry):
        from repro.obs.metrics import prometheus_text

        registry.counter("des.events").inc(3)
        text = prometheus_text(registry)
        assert "# HELP spotweb_des_events_total SpotWeb counter des.events" in text
        assert "# TYPE spotweb_des_events_total counter" in text
        assert "spotweb_des_events_total 3" in text

    def test_empty_registry_exports_empty(self, registry):
        from repro.obs.metrics import prometheus_text

        assert prometheus_text(registry) == ""
        assert prometheus_text(registry, openmetrics=True) == ""

    def test_zero_count_histogram_exports_zeroes(self, registry):
        from repro.obs.metrics import prometheus_text

        registry.histogram("solve.lat")
        text = prometheus_text(registry)
        assert "# TYPE spotweb_solve_lat summary" in text
        assert "spotweb_solve_lat_count 0" in text
        assert "spotweb_solve_lat_sum 0.0" in text

    def test_name_mangling_collisions_deduped(self, registry):
        from repro.obs.metrics import prometheus_text

        # Both mangle to spotweb_lb_spare_rps; dedupe must keep them
        # distinct instead of exporting one family twice.  Sorted name
        # order decides who keeps the bare name ("-" sorts before ".").
        registry.gauge("lb.spare.rps").set(1.0)
        registry.gauge("lb.spare-rps").set(2.0)
        text = prometheus_text(registry)
        assert "spotweb_lb_spare_rps 2.0" in text
        assert "spotweb_lb_spare_rps_2 1.0" in text

    def test_bool_snapshot_value_rejected(self):
        from repro.obs.metrics import prometheus_text

        with pytest.raises(TypeError, match="non-metric value True"):
            prometheus_text({"flag": True})

    def test_openmetrics_terminates_with_eof(self, registry):
        from repro.obs.metrics import prometheus_text

        registry.counter("a").inc()
        text = prometheus_text(registry, openmetrics=True)
        assert text.endswith("# EOF\n")
        assert not prometheus_text(registry).endswith("# EOF\n")

    def test_write_prometheus_is_atomic(self, tmp_path, registry):
        from repro.obs.metrics import write_prometheus

        registry.counter("a").inc()
        path = tmp_path / "metrics.prom"
        out = write_prometheus(path, registry)
        assert out == path
        assert "spotweb_a_total 1" in path.read_text()
        # The temp file was renamed away, never left beside the target.
        assert list(tmp_path.iterdir()) == [path]

    def test_write_prometheus_defaults_to_global_registry(self, tmp_path):
        from repro.obs.metrics import write_prometheus

        with current().replace(metrics=MetricsRegistry()):
            get_metrics().counter("g").inc(2)
            path = write_prometheus(tmp_path / "m.prom")
        assert "spotweb_g_total 2" in path.read_text()
