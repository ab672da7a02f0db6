"""Tests for the hybrid-engine gates of ``repro bench``: the P99 accuracy
grid, the 2k req/s speedup smoke cell and the 50x floor."""

import pytest

from repro.bench import sim
from repro.cli import main

#: One cheap cell (the committed ACCURACY_GRID runs 180 s horizons; this
#: keeps unit-test wall time down while exercising the same code path).
TINY_GRID = (
    {
        "peak_rps": 300.0,
        "servers": 5,
        "capacity_rps": 100.0,
        "sim_seconds": 40.0,
        "revoke": True,
    },
)


class TestChecks:
    def test_accuracy_cells_report_both_engines(self):
        (cell,) = sim.check_hybrid_accuracy(scenarios=TINY_GRID, seed=0)
        assert cell["revoke"] is True
        assert cell["p99_hybrid_s"] > 0
        assert cell["p99_request_s"] > 0
        assert cell["rel_error"] >= 0
        # The revocation opens a fidelity window: both tiers must run.
        assert cell["tier_steps"]["fluid"] > 0
        assert cell["tier_steps"]["request"] > 0

    def test_speedup_smoke_reports_positive_ratio(self):
        smoke = sim.check_hybrid_speedup(
            peak_rps=400.0, servers=5, sim_seconds=30.0, seed=0
        )
        assert smoke["hybrid_intervals_per_sec"] > 0
        assert smoke["request_intervals_per_sec"] > 0
        assert smoke["speedup"] > 0

    def test_committed_grid_stays_below_saturation(self):
        # At rho >= 1 the P99 comparison measures noise, not accuracy; the
        # grid must keep post-kill utilization under 1 by construction.
        for scenario in sim.ACCURACY_GRID:
            alive = scenario["servers"] - (1 if scenario["revoke"] else 0)
            rho = scenario["peak_rps"] / (alive * scenario["capacity_rps"])
            assert rho < 0.9


class TestMain:
    @pytest.fixture
    def argv(self, tmp_path):
        return ["bench", "--quick", "--out-dir", str(tmp_path)]

    def test_exit_zero_when_accurate_and_fast(self, bench_stubs, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "rel err 5.0%" in out and "40.0x" in out
        assert "every perf gate holds" in out

    def test_exit_one_on_accuracy_failure(self, bench_stubs, argv):
        bench_stubs["accuracy"][0]["rel_error"] = 0.26
        with pytest.raises(SystemExit, match="P99_TOLERANCE.*beyond 25%"):
            main(argv)

    def test_exit_one_on_slow_hybrid(self, bench_stubs, argv):
        bench_stubs["smoke"]["speedup"] = 9.9
        with pytest.raises(SystemExit, match="SMOKE_SPEEDUP_FLOOR.*only 9.9x"):
            main(argv)

    def test_exit_one_below_the_fresh_request_cell_floor(self, bench_stubs, argv):
        # 49.9 hybrid intervals/s over the same run's 1.0 request cell.
        bench_stubs["sim"]["cells"][1]["intervals_per_sec_median"] = 49.9
        with pytest.raises(SystemExit, match="HYBRID_SPEEDUP_FLOOR.*49.9x"):
            main(argv)

    def test_seed_reaches_checks(self, bench_stubs, argv):
        assert main(argv + ["--seed", "7"]) == 0
        seen = bench_stubs["seen"]
        assert {name: kwargs["seed"] for name, kwargs in seen.items()} == {
            "bench_mpo": 7,
            "bench_sim": 7,
            "check_hybrid_accuracy": 7,
            "check_hybrid_speedup": 7,
            "check_parallel_speedup": 7,
            "check_session_scaling": 7,
        }
