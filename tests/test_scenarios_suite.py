"""Registry, runner, oracle, and CLI tests for the scenario suite."""

import numpy as np
import pytest

from repro.cli import main
from repro.obs.events import write_events
from repro.scenarios import (
    CappedPolicy,
    PortfolioSpec,
    SCENARIOS,
    check_journals,
    check_runs,
    engines_for,
    format_check_report,
    get_scenario,
    journal_filename,
    load_run,
    run_portfolio,
    run_suite,
    scenario_names,
    write_run,
)

FIXTURES = "tests/fixtures/scenarios"
VIOLATING = [
    f"{FIXTURES}/events_violating_storm_az.jsonl",
    f"{FIXTURES}/events_violating_price_war.jsonl",
]


class TestRegistry:
    def test_at_least_five_families(self):
        assert len(SCENARIOS) >= 5

    def test_expected_families_present(self):
        assert {
            "storm_az",
            "flash_crowd",
            "storm_in_crowd",
            "price_war",
            "capacity_drought",
            "long_drift",
        } <= set(SCENARIOS)

    def test_quick_pack_excludes_long_drift(self):
        quick = scenario_names("quick")
        assert "long_drift" not in quick
        assert "long_drift" in scenario_names("full")
        assert set(quick) < set(scenario_names("full"))

    def test_pack_name_validated(self):
        with pytest.raises(ValueError):
            scenario_names("hourly")

    def test_cluster_scenarios_gate_engine_agreement(self):
        for s in SCENARIOS.values():
            if s.kind == "cluster":
                assert s.engine_agreement_tol is not None

    def test_get_scenario_unknown(self):
        with pytest.raises(KeyError, match="storm_az"):
            get_scenario("nope")

    def test_engines_for(self):
        assert engines_for("storm_az", ("request", "hybrid")) == [
            "request",
            "hybrid",
        ]
        assert engines_for("price_war", ("request", "hybrid")) == [
            "interval"
        ]

    def test_journal_filename(self):
        assert (
            journal_filename("storm_az", "hybrid")
            == "events_scenario_storm_az_hybrid.jsonl"
        )


class TestRunnerAndOracle:
    def test_serial_equals_parallel(self):
        serial = run_suite(
            names=["storm_az"], engines=("hybrid",), workers=1
        )
        parallel = run_suite(
            names=["storm_az"], engines=("hybrid",), workers=2
        )
        assert [r.label for r in serial] == [r.label for r in parallel]
        assert [r.records for r in serial] == [r.records for r in parallel]

    def test_real_run_passes_pack(self):
        runs = run_suite(names=["storm_az"], engines=("hybrid",))
        assert check_runs(runs) == []
        report = format_check_report(runs, [])
        assert "all invariants hold" in report
        assert "storm_az[hybrid]" in report

    def test_journal_round_trip(self, tmp_path):
        run = run_suite(names=["storm_az"], engines=("hybrid",))[0]
        path = write_run(run, tmp_path)
        assert path.name == journal_filename("storm_az", "hybrid")
        loaded = load_run(path)
        assert loaded.scenario == run.scenario
        assert loaded.engine == run.engine
        assert loaded.records == run.records

    def test_violating_fixtures_fail_oracle(self):
        violations = check_journals(VIOLATING)
        scenarios = {v.scenario for v in violations}
        invariants = {v.invariant for v in violations}
        assert any("storm_az" in s for s in scenarios)
        assert any("price_war" in s for s in scenarios)
        assert {"slo_floor", "cost_ceiling"} <= invariants
        report_runs = [load_run(p) for p in VIOLATING]
        report = format_check_report(report_runs, violations)
        assert "FAIL" in report

    def test_load_run_rejects_anonymous_journal(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(
            [
                {
                    "seq": 0,
                    "t": 0.0,
                    "interval": None,
                    "kind": "slo.interval",
                    "id": None,
                    "cause": None,
                    "attrs": {"requests": 1.0, "compliance": 1.0},
                }
            ],
            path,
        )
        with pytest.raises(ValueError, match="scenario.begin"):
            load_run(path)

    def test_load_run_rejects_unknown_scenario(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(
            [
                {
                    "seq": 0,
                    "t": 0.0,
                    "interval": None,
                    "kind": "scenario.begin",
                    "id": "scn-1",
                    "cause": None,
                    "attrs": {"scenario": "made_up", "engine": "request"},
                }
            ],
            path,
        )
        with pytest.raises(ValueError, match="made_up"):
            load_run(path)


class TestPortfolioRunner:
    def test_outcome_fields(self):
        spec = PortfolioSpec(
            name="price_war", weeks=1, num_markets=4, mean_rps=500.0
        )
        records = run_portfolio(spec, seed=0)
        assert records[0]["kind"] == "scenario.begin"
        outcome = records[-1]["attrs"]
        assert records[-1]["kind"] == "scenario.outcome"
        assert outcome["cost"] > 0
        assert 0.0 <= outcome["compliance"] <= 1.0
        assert outcome["stranded"] == 0

    def test_deterministic(self):
        spec = PortfolioSpec(
            name="price_war", weeks=1, num_markets=4, mean_rps=500.0
        )
        assert run_portfolio(spec, seed=1) == run_portfolio(spec, seed=1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PortfolioSpec(name="x", weeks=0)
        with pytest.raises(ValueError):
            PortfolioSpec(name="x", workload="batch")
        with pytest.raises(ValueError):
            PortfolioSpec(name="x", num_markets=4, policy_markets=5)


class TestCappedPolicy:
    class _Inner:
        def decide(self, t, observed_rps, prices, failure_probs):
            return np.array([7, 0, 3])

    def test_caps_counts(self):
        policy = CappedPolicy(self._Inner(), 2)
        counts = policy.decide(0, 100.0, np.zeros(3), np.zeros(3))
        assert counts.tolist() == [2, 0, 2]

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            CappedPolicy(self._Inner(), -1)


class TestScenariosCli:
    def test_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "storm_az" in out and "long_drift" in out

    def test_run_and_check_roundtrip(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        assert (
            main(
                [
                    "scenarios",
                    "run",
                    "--scenario",
                    "storm_az",
                    "--engine",
                    "hybrid",
                    "--out-dir",
                    out_dir,
                    "--check",
                ]
            )
            == 0
        )
        journal = tmp_path / journal_filename("storm_az", "hybrid")
        assert journal.exists()
        capsys.readouterr()
        assert main(["scenarios", "check", "--dir", out_dir]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_check_violating_fixture_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenarios", "check", VIOLATING[0]])

    def test_check_without_journals_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["scenarios", "check", "--dir", str(tmp_path)])
