"""Tests for the parallel-sweep gate of ``repro bench``: four workers at
least 2x faster than serial, with bitwise-equal results."""

import pytest

from repro.bench import sim
from repro.cli import main


class _FakeReport:
    def __init__(self, total_cost):
        self.total_cost = total_cost


class _FakeSweep:
    def __init__(self, costs):
        self.reports = {k: _FakeReport(v) for k, v in costs.items()}


class TestCheckParallelSpeedup:
    def test_real_tiny_sweep_matches_bitwise(self):
        result = sim.check_parallel_speedup(
            reps=2, num_markets=4, seed=0, max_workers=2
        )
        assert result["mismatches"] == []
        assert result["serial_seconds"] > 0
        assert result["parallel_seconds"] > 0
        assert result["speedup"] > 0
        assert result["workers"] == 2 and result["cpus"] >= 1

    def test_detects_mismatch(self, monkeypatch):
        outputs = iter(
            [
                _FakeSweep({("spotweb", 0): 10.0, ("qu", 0): 20.0}),
                _FakeSweep({("spotweb", 0): 10.0, ("qu", 0): 20.5}),
            ]
        )
        from repro.experiments import table1

        monkeypatch.setattr(
            table1, "run_table1_costs", lambda **kwargs: next(outputs)
        )
        result = sim.check_parallel_speedup(reps=1)
        assert result["mismatches"] == [("qu", 0)]


class TestMain:
    @pytest.fixture
    def argv(self, tmp_path):
        return ["bench", "--quick", "--out-dir", str(tmp_path)]

    def test_exit_zero_when_fast_and_equal(self, bench_stubs, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 workers 1.0s -> 4.00x" in out
        assert "not applied" not in out

    def test_exit_one_on_slow_pool(self, bench_stubs, argv):
        bench_stubs["sweep"]["speedup"] = 1.99
        with pytest.raises(SystemExit, match="PARALLEL_SPEEDUP_FLOOR.*1.99x"):
            main(argv)

    def test_floor_not_applied_below_four_cpus(self, bench_stubs, argv, capsys):
        bench_stubs["sweep"].update(speedup=1.0, cpus=2)
        assert main(argv) == 0
        assert "floor (2x) not applied: 2 CPUs < 4 workers" in (
            capsys.readouterr().out
        )

    def test_exit_one_on_mismatch(self, bench_stubs, argv):
        # The bitwise check gates on any host, however few its CPUs.
        bench_stubs["sweep"].update(mismatches=[("spotweb", 1)], cpus=2)
        with pytest.raises(SystemExit, match="parallel sweep != serial"):
            main(argv)
