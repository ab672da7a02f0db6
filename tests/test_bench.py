"""Tests for the repro.bench benchmark/baseline layer."""

from pathlib import Path

import numpy as np
import pytest

from repro.bench.mpo import bench_mpo
from repro.bench.report import (
    SCHEMA_MPO,
    SCHEMA_SIM,
    SESSION_SCALING_CEILING,
    bench_regressions,
    crossover_violations,
    format_bench_mpo,
    format_bench_sim,
    hybrid_speedup_violations,
    load_bench,
    sim_regressions,
    write_bench,
)
from repro.bench.sim import bench_sim, check_session_scaling
from repro.cli import main


@pytest.fixture(scope="module")
def tiny_mpo():
    return bench_mpo(
        market_counts=(4,), horizons=(2,), repeats=2, seed=0
    )


class TestBenchMPO:
    def test_grid_and_schema(self, tiny_mpo):
        assert tiny_mpo["schema"] == SCHEMA_MPO
        assert len(tiny_mpo["cells"]) == 2  # one per backend
        backends = {c["backend"] for c in tiny_mpo["cells"]}
        assert backends == {"admm", "structured"}
        for cell in tiny_mpo["cells"]:
            assert cell["variables"] == 8
            assert cell["cold_ms"] > 0
            assert cell["warm_median_ms"] > 0
            assert cell["warm_max_ms"] >= cell["warm_median_ms"]

    def test_backends_land_on_same_objective(self, tiny_mpo):
        (speedup,) = tiny_mpo["speedups"]
        assert speedup["objective_gap"] < 1e-6
        assert speedup["warm_speedup"] > 0

    def test_format_renders(self, tiny_mpo):
        out = format_bench_mpo(tiny_mpo)
        assert "structured" in out and "cold_ms" in out

    def test_cells_record_the_warm_solves_work(self, tiny_mpo):
        for cell in tiny_mpo["cells"]:
            assert cell["warm_iters_mean"] >= 1
            assert cell["warm_us_per_iter"] > 0

    def test_cells_recorded_without_the_work_keys_still_render(self, tiny_mpo):
        work_keys = ("warm_iters_mean", "warm_us_per_iter")
        old = {
            **tiny_mpo,
            "cells": [
                {k: v for k, v in c.items() if k not in work_keys}
                for c in tiny_mpo["cells"]
            ],
        }
        rows = format_bench_mpo(old).splitlines()[3:5]
        assert all(row.split("|")[-1].strip() == "-" for row in rows)


class TestBenchSim:
    def test_throughput_positive(self):
        # Test-sized cluster cells: low rate, short horizons, single repeat.
        data = bench_sim(
            num_markets=4,
            weeks=1,
            peak_rps=500.0,
            repeats=2,
            seed=0,
            cluster_repeats=1,
            request_seconds=2.0,
            hybrid_seconds=10.0,
            include_huge=False,
        )
        assert data["schema"] == SCHEMA_SIM
        interval_cell, request_cell, hybrid_cell = data["cells"]
        assert interval_cell["intervals"] == 7 * 24
        assert interval_cell["intervals_per_sec_median"] > 0
        assert np.isfinite(interval_cell["total_cost"])
        assert request_cell["engine"] == "request"
        assert request_cell["tier_steps"]["fluid"] == 0
        assert hybrid_cell["engine"] == "hybrid"
        assert hybrid_cell["tier_steps"]["fluid"] > 0
        for cell in (request_cell, hybrid_cell):
            assert cell["intervals_per_sec_median"] > 0
            assert cell["served"] > 0
            assert np.isfinite(cell["p99_s"])
        out = format_bench_sim(data)
        assert "intervals/sec" in out and "sim-intervals/sec" in out


class TestPersistence:
    def test_roundtrip(self, tiny_mpo, tmp_path):
        path = write_bench(tiny_mpo, tmp_path / "BENCH_mpo.json")
        loaded = load_bench(path)
        assert loaded == tiny_mpo

    def test_unknown_schema_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="schema"):
            write_bench({"schema": "nope", "cells": []}, tmp_path / "x.json")
        (tmp_path / "y.json").write_text('{"schema": "nope", "cells": []}')
        with pytest.raises(ValueError, match="schema"):
            load_bench(tmp_path / "y.json")

    def test_committed_baselines_are_valid(self):
        # The repo-root BENCH files are part of the perf contract.
        root = Path(__file__).resolve().parents[1]
        mpo = load_bench(root / "BENCH_mpo.json")
        sim = load_bench(root / "BENCH_sim.json")
        assert mpo["schema"] == SCHEMA_MPO
        assert sim["schema"] == SCHEMA_SIM
        assert crossover_violations(mpo) == []


class TestCrossover:
    def _data(self, entries):
        return {"schema": SCHEMA_MPO, "cells": [], "speedups": entries}

    def test_flags_slow_cells_past_threshold(self):
        entries = [
            {"markets": 48, "horizon": 10, "variables": 480, "warm_speedup": 0.8},
            {"markets": 144, "horizon": 10, "variables": 1440, "warm_speedup": 4.0},
            {"markets": 12, "horizon": 4, "variables": 48, "warm_speedup": 0.5},
        ]
        bad = crossover_violations(self._data(entries))
        assert [v["variables"] for v in bad] == [480]

    def test_requires_mpo_schema(self):
        with pytest.raises(ValueError):
            crossover_violations({"schema": SCHEMA_SIM, "speedups": []})

    def test_bench_exits_past_crossover(self, bench_stubs, tmp_path):
        # The quick grid's 288-variable cell: structured just lost to dense.
        bench_stubs["mpo"]["speedups"][0]["warm_speedup"] = 0.99
        with pytest.raises(SystemExit, match="CROSSOVER_VARS.*N=48 H=6"):
            main(["bench", "--quick", "--out-dir", str(tmp_path)])


class TestBenchRegressions:
    def _data(self, cells):
        return {"schema": SCHEMA_MPO, "cells": cells, "speedups": []}

    def _cell(self, markets, horizon, backend, warm):
        return {
            "markets": markets,
            "horizon": horizon,
            "backend": backend,
            "warm_median_ms": warm,
        }

    def test_clean_when_within_factor(self):
        base = self._data([self._cell(12, 4, "admm", 2.0)])
        fresh = self._data([self._cell(12, 4, "admm", 4.0)])
        assert bench_regressions(fresh, base) == []

    def test_flags_cells_beyond_factor(self):
        base = self._data(
            [self._cell(12, 4, "admm", 2.0), self._cell(48, 4, "structured", 8.0)]
        )
        fresh = self._data(
            [self._cell(12, 4, "admm", 6.0), self._cell(48, 4, "structured", 9.0)]
        )
        bad = bench_regressions(fresh, base)
        assert len(bad) == 1
        assert bad[0]["markets"] == 12 and bad[0]["backend"] == "admm"
        assert bad[0]["ratio"] == pytest.approx(3.0)
        assert bad[0]["baseline_warm_median_ms"] == 2.0

    def test_ignores_unmatched_cells_but_needs_overlap(self):
        base = self._data(
            [self._cell(12, 4, "admm", 2.0), self._cell(144, 10, "admm", 50.0)]
        )
        fresh = self._data(
            [self._cell(12, 4, "admm", 2.1), self._cell(48, 6, "admm", 9.0)]
        )
        assert bench_regressions(fresh, base) == []
        disjoint = self._data([self._cell(96, 8, "admm", 1.0)])
        with pytest.raises(ValueError, match="no overlapping cells"):
            bench_regressions(disjoint, base)

    def test_rejects_bad_inputs(self):
        good = self._data([self._cell(12, 4, "admm", 2.0)])
        with pytest.raises(ValueError, match="bench-mpo"):
            bench_regressions({"schema": SCHEMA_SIM, "cells": []}, good)

    def test_quick_grid_overlaps_committed_baseline(self):
        """The CI --quick grid must share cells with BENCH_mpo.json."""
        root = Path(__file__).resolve().parents[1]
        base = load_bench(root / "BENCH_mpo.json")
        keys = {(c["markets"], c["horizon"]) for c in base["cells"]}
        # _cmd_bench --quick runs market_counts=(12, 48), horizons=(4, 6).
        assert {(12, 4), (48, 4)} <= keys


class TestSimRegressions:
    def _data(self, cells):
        return {"schema": SCHEMA_SIM, "cells": cells}

    def _interval(self, markets, ips):
        return {
            "policy": "uniform",
            "markets": markets,
            "intervals_per_sec_median": ips,
        }

    def _engine(self, engine, rps, ips):
        return {
            "engine": engine,
            "peak_rps": rps,
            "intervals_per_sec_median": ips,
        }

    def test_clean_within_factor(self):
        base = self._data([self._interval(12, 100.0)])
        fresh = self._data([self._interval(12, 50.0)])
        assert sim_regressions(fresh, base) == []

    def test_flags_slow_cells_of_both_kinds(self):
        base = self._data(
            [self._interval(12, 100.0), self._engine("hybrid", 2e4, 30.0)]
        )
        fresh = self._data(
            [self._interval(12, 10.0), self._engine("hybrid", 2e4, 5.0)]
        )
        bad = sim_regressions(fresh, base)
        assert {v["cell"][0] for v in bad} == {"policy", "engine"}
        assert bad[0]["slowdown"] == pytest.approx(10.0)

    def test_zero_overlap_rejected(self):
        base = self._data([self._interval(12, 100.0)])
        fresh = self._data([self._engine("hybrid", 2e4, 30.0)])
        with pytest.raises(ValueError, match="no overlapping"):
            sim_regressions(fresh, base)

    def test_rejects_bad_inputs(self):
        good = self._data([self._interval(12, 100.0)])
        with pytest.raises(ValueError, match="bench-sim"):
            sim_regressions({"schema": SCHEMA_MPO, "cells": []}, good)


class TestHybridSpeedup:
    def _data(self, cells):
        return {"schema": SCHEMA_SIM, "cells": cells}

    def _cell(self, engine, rps, ips):
        return {
            "engine": engine,
            "peak_rps": rps,
            "intervals_per_sec_median": ips,
        }

    def test_clean_when_fast_enough(self):
        data = self._data(
            [self._cell("request", 2e4, 0.3), self._cell("hybrid", 2e4, 30.0)]
        )
        assert hybrid_speedup_violations(data) == []

    def test_flags_insufficient_speedup(self):
        data = self._data(
            [self._cell("request", 2e4, 1.0), self._cell("hybrid", 2e4, 20.0)]
        )
        bad = hybrid_speedup_violations(data)
        assert len(bad) == 1
        assert bad[0]["speedup"] == pytest.approx(20.0)

    def test_reference_from_baseline_and_unpaired_skipped(self):
        # The 500k hybrid cell has no request reference and is skipped;
        # the 20k pair resolves against the request cell of the same run.
        fresh = self._data(
            [
                self._cell("request", 2e4, 0.5),
                self._cell("hybrid", 2e4, 30.0),
                self._cell("hybrid", 5e5, 600.0),
            ]
        )
        assert hybrid_speedup_violations(fresh) == []

    def test_zero_pairs_rejected(self):
        fresh = self._data([self._cell("hybrid", 5e5, 600.0)])
        with pytest.raises(ValueError, match="no hybrid/request"):
            hybrid_speedup_violations(fresh)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="bench-sim"):
            hybrid_speedup_violations({"schema": SCHEMA_MPO, "cells": []})

    def test_committed_baseline_meets_floor(self):
        """The repo-root BENCH_sim.json is part of the perf contract."""
        root = Path(__file__).resolve().parents[1]
        sim = load_bench(root / "BENCH_sim.json")
        assert hybrid_speedup_violations(sim) == []


class TestSessionScaling:
    def test_real_draw_reports_both_counts(self):
        result = check_session_scaling(draws=200, repeats=3, seed=0)
        assert result["sessions"] == [1000, 10000]
        assert all(us > 0 for us in result["draw_us"])
        assert result["ratio"] == pytest.approx(
            result["draw_us"][1] / result["draw_us"][0]
        )

    def test_bench_prints_the_draw(self, bench_stubs, tmp_path, capsys):
        assert main(["bench", "--quick", "--out-dir", str(tmp_path)]) == 0
        assert "session draw: 4.00 us at 1000 live sessions, 4.40 us at 10000 -> 1.10x" in (
            capsys.readouterr().out
        )

    def test_bench_exits_past_the_ceiling(self, bench_stubs, tmp_path):
        # Just past the bound: a draw that grows with the live sessions.
        bench_stubs["sessions"]["ratio"] = SESSION_SCALING_CEILING + 0.01
        with pytest.raises(SystemExit, match="SESSION_SCALING_CEILING.*3.01x"):
            main(["bench", "--quick", "--out-dir", str(tmp_path)])

