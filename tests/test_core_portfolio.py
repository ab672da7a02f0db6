"""Unit and property tests for portfolio data types."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import Allocation, PortfolioPlan, allocation_to_counts


class TestAllocation:
    def test_weights_normalize(self, small_markets):
        a = Allocation(small_markets, [0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        w = a.weights()
        assert w.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(w[:2], [0.5, 0.5])

    def test_zero_allocation_weights(self, small_markets):
        a = Allocation(small_markets, np.zeros(6))
        assert np.all(a.weights() == 0.0)

    def test_active_markets(self, small_markets):
        a = Allocation(small_markets, [0.7, 0.0, 0.3, 0.0, 0.0, 0.0])
        active = a.active_markets()
        assert [m.name for m in active] == [
            small_markets[0].name,
            small_markets[2].name,
        ]

    def test_total(self, small_markets):
        a = Allocation(small_markets, [0.6, 0.6, 0.0, 0.0, 0.0, 0.0])
        assert a.total == pytest.approx(1.2)

    def test_length_mismatch(self, small_markets):
        with pytest.raises(ValueError):
            Allocation(small_markets, [0.5, 0.5])

    def test_negative_rejected(self, small_markets):
        with pytest.raises(ValueError):
            Allocation(small_markets, [-0.5, 0, 0, 0, 0, 0])

    def test_rounded_capacity_covers_plan(self, small_markets):
        a = Allocation(small_markets, np.full(6, 0.2))
        assert a.capacity_rps(1000.0) >= 0.2 * 6 * 1000.0 - 1e-6


class TestAllocationToCounts:
    def test_ceil_covers_demand(self):
        counts = allocation_to_counts(
            np.array([1.0]), 250.0, np.array([100.0])
        )
        assert counts[0] == 3

    def test_exact_boundary(self):
        counts = allocation_to_counts(np.array([1.0]), 200.0, np.array([100.0]))
        assert counts[0] == 2

    def test_zero_fraction_zero_count(self):
        counts = allocation_to_counts(
            np.array([0.0, 1.0]), 100.0, np.array([10.0, 10.0])
        )
        assert counts[0] == 0 and counts[1] == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            allocation_to_counts(np.ones(2), 10.0, np.ones(3))
        with pytest.raises(ValueError):
            allocation_to_counts(np.ones(1), -1.0, np.ones(1))
        with pytest.raises(ValueError):
            allocation_to_counts(np.ones(1), 1.0, np.zeros(1))


class TestPortfolioPlan:
    def test_first_and_indexing(self, small_markets):
        fr = np.tile(np.linspace(0.1, 0.6, 6), (3, 1))
        plan = PortfolioPlan(small_markets, fr, np.array([100.0, 120.0, 140.0]))
        assert plan.horizon == 3
        np.testing.assert_array_equal(plan.first.fractions, fr[0])
        np.testing.assert_array_equal(plan.allocation(2).fractions, fr[2])

    def test_churn(self, small_markets):
        fr = np.zeros((2, 6))
        fr[1, 0] = 0.5
        plan = PortfolioPlan(small_markets, fr, np.array([1.0, 1.0]))
        assert plan.churn() == pytest.approx(0.5)
        single = PortfolioPlan(small_markets, fr[:1], np.array([1.0]))
        assert single.churn() == 0.0

    def test_validation(self, small_markets):
        with pytest.raises(ValueError):
            PortfolioPlan(small_markets, np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            PortfolioPlan(small_markets, np.ones((2, 6)), np.ones(3))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    workload=st.floats(0.0, 1e6),
)
@example(seed=62, workload=3.5e-4)  # every market's demand floors to zero
def test_counts_always_cover_planned_capacity(seed, workload):
    """Deployed capacity (counts x r) never falls below the fractional plan."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    fractions = rng.uniform(0.0, 1.0, size=n)
    capacities = rng.uniform(10.0, 2000.0, size=n)
    counts = allocation_to_counts(fractions, workload, capacities)
    assert np.all(counts >= 0)
    deployed = counts @ capacities
    planned = fractions.sum() * workload
    assert deployed >= planned - 1e-6 * max(planned, 1.0) - 1e-3
