"""Closed-loop system tests: controller + cloud + LB + request-level DES."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import CostModel, SpotWebController
from repro.markets import generate_market_dataset
from repro.predictors import (
    ReactiveFailurePredictor,
    ReactivePredictor,
    ReactivePricePredictor,
)
from repro.simulator import SpotWebSystem, SystemConfig
from repro.workloads import constant_workload, step_workload


INTERVAL = 300.0  # 5-minute control intervals keep request counts small


def build_system(markets, *, intervals=8, seed=2, rate_padding=0.2):
    n = len(markets)
    dataset = generate_market_dataset(
        markets, intervals=intervals, seed=seed, interval_seconds=INTERVAL
    )
    controller = SpotWebController(
        markets,
        ReactivePredictor(padding_fraction=rate_padding),
        ReactivePricePredictor(n),
        ReactiveFailurePredictor(n),
        horizon=3,
        cost_model=CostModel(churn_penalty=0.2),
    )
    config = SystemConfig(interval_seconds=INTERVAL, seed=seed)
    return SpotWebSystem(controller, dataset, config)


class _ScriptedController:
    """Stands in for the controller: one fixed fleet decision per interval."""

    def __init__(self, markets, counts_per_interval):
        self.markets = markets
        self._counts = iter(counts_per_interval)

    def step(self, *_feeds):
        return SimpleNamespace(counts=np.asarray(next(self._counts)))


class TestClosedLoop:
    def test_steady_load_served_within_slo(self, small_markets):
        system = build_system(small_markets)
        trace = constant_workload(8, 80.0, interval_seconds=INTERVAL)
        report = system.run(trace)
        assert report.recorder.served > 8 * INTERVAL * 80.0 * 0.9
        assert report.recorder.drop_rate() < 0.05
        assert report.recorder.percentile(90) < 1.0
        assert report.total_cost > 0.0

    def test_fleet_scales_with_demand(self, catalog):
        # Small instance types only, so fleet capacity is commensurate with
        # the offered load (big instances would mask scaling via rounding).
        markets = catalog.subset(
            ["m4.large", "m4.xlarge", "m5.large", "m5.xlarge", "c5.large"]
        ).spot_markets()
        system = build_system(markets)
        trace = step_workload(8, 40.0, 300.0, 4, interval_seconds=INTERVAL)
        report = system.run(trace)
        capacities = [cap for _, _, cap in report.fleet_timeline]
        # Fleet capacity after the step must exceed capacity before it (the
        # optimizer may scale with bigger instances rather than more of them).
        early = max(capacities[:3]) if capacities[:3] else 0.0
        late = max(capacities[-3:])
        assert late > early
        # Observed workload tracked the step.
        assert report.interval_observed_rps[-1] > 2 * report.interval_observed_rps[1]

    def test_revocations_survivable(self, small_markets):
        """Force heavy revocation weather; the loop must keep serving."""
        dataset = generate_market_dataset(
            small_markets, intervals=8, seed=3, interval_seconds=INTERVAL
        )
        dataset.failure_probs[:] = 0.4  # storms every interval
        n = len(small_markets)
        controller = SpotWebController(
            small_markets,
            ReactivePredictor(padding_fraction=0.3),
            ReactivePricePredictor(n),
            ReactiveFailurePredictor(n),
            horizon=3,
        )
        system = SpotWebSystem(
            controller, dataset, SystemConfig(interval_seconds=INTERVAL, seed=3)
        )
        trace = constant_workload(8, 60.0, interval_seconds=INTERVAL)
        report = system.run(trace)
        assert report.revocation_events > 3
        # Requests keep flowing: the vast majority served despite the storm.
        assert report.recorder.drop_rate() < 0.25
        assert report.recorder.served > 8 * INTERVAL * 60.0 * 0.6

    def test_billing_accumulates(self, small_markets):
        system = build_system(small_markets)
        trace = constant_workload(4, 50.0, interval_seconds=INTERVAL)
        report = system.run(trace, intervals=4)
        # Cost is bounded by (fleet x max price x time) and positive.
        assert 0.0 < report.total_cost < 100.0

    def test_market_mismatch_rejected(self, small_markets, catalog):
        other = catalog.spot_markets(5)
        dataset = generate_market_dataset(other, intervals=4, seed=0)
        n = len(small_markets)
        controller = SpotWebController(
            small_markets,
            ReactivePredictor(),
            ReactivePricePredictor(n),
            ReactiveFailurePredictor(n),
        )
        with pytest.raises(ValueError, match="markets must match"):
            SpotWebSystem(controller, dataset)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(interval_seconds=0.0)
        with pytest.raises(ValueError):
            SystemConfig(warning_seconds=-1.0)

    def test_scale_down_spares_a_server_draining_under_warning(self, small_markets):
        """One warned and one running server, and the controller wants none:
        the running server is drained and released, the warned VM lives
        until its deadline."""
        dataset = generate_market_dataset(
            small_markets, intervals=2, seed=0, interval_seconds=INTERVAL
        )
        dataset.failure_probs[:] = 0.0  # only the scripted warning below
        two = [2] + [0] * (len(small_markets) - 1)
        none = [0] * len(small_markets)
        config = SystemConfig(interval_seconds=INTERVAL, seed=0)
        system = SpotWebSystem(
            _ScriptedController(small_markets, [two, none]), dataset, config
        )
        # Warn the first VM 50 s before the scale-down at t = INTERVAL.
        warn_at = INTERVAL - 50.0
        system.sim.schedule_at(
            warn_at, lambda: system.cloud.revoke_vm(system.cloud.vms[0], warn_at)
        )
        system.run(constant_workload(2, 0.0, interval_seconds=INTERVAL))
        warned, running = system.cloud.vms
        assert warned.warning_deadline == warn_at + config.warning_seconds
        assert warned.terminated_at == warned.warning_deadline
        assert running.terminated_at == (
            INTERVAL + config.drain_before_terminate_seconds
        )
