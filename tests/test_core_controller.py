"""Unit tests for the SpotWeb controller loop."""

import numpy as np
import pytest

from repro.core import CostModel, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.predictors import (
    ReactiveFailurePredictor,
    ReactivePricePredictor,
    SplinePredictor,
)


def make_controller(markets, **kwargs):
    n = len(markets)
    defaults = dict(horizon=3)
    defaults.update(kwargs)
    return SpotWebController(
        markets,
        SplinePredictor(24),
        ReactivePricePredictor(n),
        ReactiveFailurePredictor(n),
        **defaults,
    )


class TestStep:
    def test_decision_covers_target(self, small_markets, small_dataset):
        ctrl = make_controller(small_markets)
        d = ctrl.step(
            800.0, small_dataset.prices[0], small_dataset.failure_probs[0]
        )
        assert d.target_rps >= 800.0 * 0.9
        assert d.provisioned_rps >= d.target_rps * ctrl.optimizer.constraints.a_total_min - 1e-6
        assert d.weights.sum() == pytest.approx(1.0, abs=1e-6)

    def test_counts_match_allocation(self, small_markets, small_dataset):
        ctrl = make_controller(small_markets)
        d = ctrl.step(500.0, small_dataset.prices[0], small_dataset.failure_probs[0])
        np.testing.assert_array_equal(
            d.counts, d.allocation.counts(d.target_rps)
        )

    def test_current_fractions_updated(self, small_markets, small_dataset):
        ctrl = make_controller(small_markets)
        assert np.all(ctrl.current_fractions == 0.0)
        d = ctrl.step(500.0, small_dataset.prices[0], small_dataset.failure_probs[0])
        np.testing.assert_array_equal(
            ctrl.current_fractions, d.allocation.fractions
        )

    def test_shortfall_learned_across_steps(self, small_markets, small_dataset):
        ctrl = make_controller(small_markets)
        ctrl.step(100.0, small_dataset.prices[0], small_dataset.failure_probs[0])
        # Demand doubles: the previous target under-predicted.
        ctrl.step(
            1000.0, small_dataset.prices[1], small_dataset.failure_probs[1]
        )
        assert ctrl.shortfall.expected_shortfall_rps > 0.0

    def test_input_validation(self, small_markets, small_dataset):
        ctrl = make_controller(small_markets)
        with pytest.raises(ValueError):
            ctrl.step(-1.0, small_dataset.prices[0], small_dataset.failure_probs[0])
        with pytest.raises(ValueError):
            ctrl.step(1.0, small_dataset.prices[0][:2], small_dataset.failure_probs[0])

    def test_constructor_validation(self, small_markets):
        with pytest.raises(ValueError):
            make_controller(small_markets, covariance_refresh=0)


class TestCovarianceRefresh:
    def test_refresh_cadence(self, small_markets, small_dataset):
        ctrl = make_controller(small_markets, covariance_refresh=4)
        for t in range(3):
            ctrl.step(
                500.0, small_dataset.prices[t], small_dataset.failure_probs[t]
            )
        cov_before = ctrl._covariance
        ctrl.step(500.0, small_dataset.prices[3], small_dataset.failure_probs[3])
        # Step counter hit the refresh boundary -> recomputed matrix object.
        ctrl.step(500.0, small_dataset.prices[4], small_dataset.failure_probs[4])
        assert ctrl._covariance is not cov_before


class TestPolicyAdapter:
    def test_policy_returns_counts(self, small_markets, small_dataset):
        policy = SpotWebPolicy(make_controller(small_markets))
        counts = policy.decide(
            0, 700.0, small_dataset.prices[0], small_dataset.failure_probs[0]
        )
        assert counts.shape == (len(small_markets),)
        assert counts.dtype.kind in "iu"
        assert policy.last_decision is not None


class TestLongRun:
    def test_tracks_diurnal_workload(self, small_markets, small_dataset, wiki_week):
        """Capacity follows demand over a week without violations at the
        fluid level (padding >= demand most of the time)."""
        ctrl = make_controller(
            small_markets, cost_model=CostModel(churn_penalty=0.2)
        )
        covered = 0
        for t in range(len(wiki_week)):
            d = ctrl.step(
                wiki_week.rates[t],
                small_dataset.prices[t],
                small_dataset.failure_probs[t],
            )
            nxt = wiki_week.rates[min(t + 1, len(wiki_week) - 1)]
            covered += d.provisioned_rps >= nxt
        assert covered / len(wiki_week) > 0.9
