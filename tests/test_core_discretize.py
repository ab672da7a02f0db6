"""Unit and property tests for integer-count refinement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import allocation_to_counts, refine_counts


class TestRefineCounts:
    def test_covers_target(self):
        counts = refine_counts(
            np.array([0.5, 0.5]), 300.0, np.array([100.0, 100.0]), np.ones(2)
        )
        assert counts @ np.array([100.0, 100.0]) >= 300.0

    def test_never_more_expensive_than_ceil(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            fractions = rng.uniform(0, 0.5, size=n)
            fractions *= rng.uniform(1.0, 1.5) / max(fractions.sum(), 1e-9)
            caps = rng.uniform(20, 2000, size=n)
            prices = rng.uniform(0.01, 5.0, size=n)
            target = float(rng.uniform(100, 50_000))
            naive = allocation_to_counts(fractions, target, caps)
            refined = refine_counts(fractions, target, caps, prices)
            assert refined @ caps >= target - 1e-6
            assert refined @ prices <= naive @ prices + 1e-9

    def test_costs_more_than_ceil_when_ceil_falls_short(self):
        # Hypothesis's shrunk counterexample to "never costs more than
        # ceil" (seed=450, target=1770.0 in the property below): a plan for
        # a twentieth of the target, where ceil's one server (1,769.7
        # req/s) falls short of 1,770 req/s and covering the target takes
        # two.
        fractions = np.array([0.04473365])
        caps = np.array([1769.74673513])
        prices = np.array([1.39079023])
        naive = allocation_to_counts(fractions, 1770.0, caps)
        refined = refine_counts(fractions, 1770.0, caps, prices)
        assert naive @ caps < 1770.0
        np.testing.assert_array_equal(naive, [1])
        np.testing.assert_array_equal(refined, [2])

    def test_costs_more_than_ceil_when_greedy_cover_overshoots(self):
        # A covering ceil can be cheaper too.  From the floor (0, 2) the
        # greedy cover adds three of the cheaper-per-req/s servers, and the
        # trim can drop none: 5.493 $/h against ceil's 5.282.
        fractions = np.array([0.0926, 0.7009])
        caps = np.array([228.5, 259.5])
        prices = np.array([0.845, 1.479])
        naive = allocation_to_counts(fractions, 994.7, caps)
        refined = refine_counts(fractions, 994.7, caps, prices)
        assert naive @ caps >= 994.7
        np.testing.assert_array_equal(naive, [1, 3])
        np.testing.assert_array_equal(refined, [3, 2])
        assert refined @ prices > naive @ prices

    def test_zero_target(self):
        counts = refine_counts(np.array([1.0]), 0.0, np.array([10.0]), np.ones(1))
        assert counts[0] == 0

    def test_repairs_with_cheapest_market(self):
        # Fractions cover nothing; the repair should pick the cheap market.
        counts = refine_counts(
            np.zeros(2), 100.0, np.array([100.0, 100.0]), np.array([5.0, 1.0])
        )
        np.testing.assert_array_equal(counts, [0, 1])

    def test_trims_expensive_waste(self):
        # Implied counts massively overshoot in the pricey market.
        counts = refine_counts(
            np.array([2.0, 1.0]),
            100.0,
            np.array([100.0, 100.0]),
            np.array([10.0, 1.0]),
        )
        # One cheap server suffices.
        assert counts[0] == 0
        assert counts[1] >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            refine_counts(np.ones(2), 10.0, np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            refine_counts(np.ones(1), -1.0, np.ones(1), np.ones(1))
        with pytest.raises(ValueError):
            refine_counts(np.ones(1), 1.0, np.zeros(1), np.ones(1))
        with pytest.raises(ValueError):
            refine_counts(np.ones(1), 1.0, np.ones(1), -np.ones(1))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    target=st.floats(1.0, 1e5),
)
def test_refine_always_covers_and_is_minimal_ish(seed, target):
    """Coverage invariant + no single removable server remains."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    fractions = rng.uniform(0, 1, size=n)
    caps = rng.uniform(10, 2000, size=n)
    prices = rng.uniform(0.01, 10.0, size=n)
    counts = refine_counts(fractions, target, caps, prices)
    deployed = counts @ caps
    assert deployed >= target - 1e-6
    # Minimality: no server can be removed without breaking coverage.
    for j in range(n):
        if counts[j] > 0:
            assert deployed - caps[j] < target
    # Where ceil covers the target too, never dearer than ceil by a whole
    # server of the dearest market.  Not "never dearer": see the two
    # test_costs_more_than_ceil_* cases.
    naive_ceil = allocation_to_counts(fractions, target, caps)
    if naive_ceil @ caps >= target - 1e-6:
        assert counts @ prices < naive_ceil @ prices + prices.max()


class TestControllerIntegration:
    def test_refine_mode_cheaper_or_equal(self, small_markets, small_dataset, wiki_week):
        from repro.core import CostModel, SpotWebController
        from repro.core.policy import SpotWebPolicy
        from repro.predictors import (
            ReactiveFailurePredictor,
            ReactivePricePredictor,
            SplinePredictor,
        )
        from repro.simulator import CostSimulator

        def build(mode):
            return SpotWebPolicy(
                SpotWebController(
                    small_markets,
                    SplinePredictor(24),
                    ReactivePricePredictor(6),
                    ReactiveFailurePredictor(6),
                    horizon=3,
                    cost_model=CostModel(churn_penalty=0.2),
                    discretization=mode,
                )
            )

        sim = CostSimulator(small_dataset, wiki_week, seed=9)
        ceil_rep = sim.run(build("ceil"), name="ceil")
        refine_rep = sim.run(build("refine"), name="refine")
        # Refined discretization must not serve less...
        assert refine_rep.unserved_fraction <= ceil_rep.unserved_fraction + 0.01
        # ...and should not cost meaningfully more.
        assert refine_rep.provisioning_cost <= ceil_rep.provisioning_cost * 1.05

    def test_invalid_mode_rejected(self, small_markets):
        from repro.core import SpotWebController
        from repro.predictors import (
            ReactiveFailurePredictor,
            ReactivePredictor,
            ReactivePricePredictor,
        )

        with pytest.raises(ValueError, match="discretization"):
            SpotWebController(
                small_markets,
                ReactivePredictor(),
                ReactivePricePredictor(6),
                ReactiveFailurePredictor(6),
                discretization="round",
            )
