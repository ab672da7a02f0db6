"""Unit tests for report formatting and the cost ledger."""

import numpy as np
import pytest

from repro.simulator.runner import CostLedger, SimulationReport
from repro.textfmt import format_histogram, format_table


def make_report(name, prov, sla=0.0):
    return SimulationReport(
        name=name,
        provisioning_cost=prov,
        sla_penalty_cost=sla,
        unserved_requests=0.0,
        total_requests=1000.0,
        revocation_events=0,
        decision_seconds=0.1,
        interval_costs=np.zeros(3),
        counts=np.zeros((3, 2), dtype=np.int64),
        capacity_rps=np.zeros(3),
        demand_rps=np.zeros(3),
    )


class TestFormatTable:
    def test_alignment_and_title(self):
        out = format_table(
            ["name", "value"], [["a", 1.0], ["bb", 22.5]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert all("|" in ln for ln in lines[1:] if "-+-" not in ln)

    def test_number_formatting(self):
        out = format_table(["x"], [[123456.789], [0.0001]])
        assert "1.23e+05" in out
        assert "0.0001" in out

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out


class TestFormatHistogram:
    def test_bars_scale(self):
        edges = np.array([0.0, 1.0, 2.0])
        out = format_histogram(edges, np.array([10, 5]), width=10)
        lines = out.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            format_histogram(np.array([0.0, 1.0]), np.array([1, 2]))


class TestCostLedger:
    def test_add_and_savings(self):
        ledger = CostLedger()
        ledger.add(make_report("a", 100.0))
        ledger.add(make_report("b", 50.0))
        assert ledger.savings("b", "a") == pytest.approx(0.5)
        assert list(ledger.reports) == ["a", "b"]
        assert ledger.reports["b"].total_cost == 50.0

    def test_duplicate_rejected(self):
        ledger = CostLedger()
        ledger.add(make_report("a", 1.0))
        with pytest.raises(KeyError):
            ledger.add(make_report("a", 2.0))

    def test_rows_with_baseline(self):
        ledger = CostLedger()
        ledger.add(make_report("base", 100.0))
        ledger.add(make_report("new", 80.0))
        rows = ledger.rows(baseline="base")
        assert len(rows) == 2
        headers = CostLedger.headers(baseline=True)
        assert len(headers) == len(rows[0])
        # The savings column of "new" is 20%.
        new_row = [r for r in rows if r[0] == "new"][0]
        assert new_row[-1] == pytest.approx(20.0)
