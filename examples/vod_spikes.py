#!/usr/bin/env python3
"""Spiky VoD workload with reactive fallback provisioning.

The TV4-style workload has hard-to-predict evening spikes — the case the
paper's Sec. 6.2 reactive algorithm exists for: when realized demand blows
through the CI padding, SpotWeb tops up with non-revocable on-demand
capacity for the next interval and decays the boost once the spike passes.

The example runs two weeks of the VoD trace with and without the fallback
and prints the violation/cost trade plus an ASCII view of demand vs
provisioned capacity.
"""

import numpy as np

from repro.core import CostModel, ReactiveFallback, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.markets import PurchaseOption, default_catalog, generate_market_dataset
from repro.predictors import (
    AR1PricePredictor,
    ReactiveFailurePredictor,
    SplinePredictor,
)
from repro.simulator import CostSimulator
from repro.textfmt import format_table, sparkline
from repro.workloads import vod_like

WEEKS = 2
PEAK_RPS = 30_000.0
SEED = 11


def build_policy(markets, fallback):
    n = len(markets)
    controller = SpotWebController(
        markets,
        SplinePredictor(24),
        AR1PricePredictor(n),
        ReactiveFailurePredictor(n),
        horizon=4,
        cost_model=CostModel(churn_penalty=0.2),
        fallback=fallback,
    )
    return SpotWebPolicy(controller)


def main() -> None:
    catalog = default_catalog()
    spot = catalog.spot_markets(12)
    ondemand = [
        catalog.market(m.instance.name, PurchaseOption.ON_DEMAND) for m in spot
    ]
    markets = spot + ondemand

    dataset = generate_market_dataset(markets, intervals=WEEKS * 7 * 24, seed=SEED)
    trace = vod_like(WEEKS, seed=SEED).scaled(PEAK_RPS)
    sim = CostSimulator(dataset, trace, seed=SEED)

    plain = sim.run(build_policy(markets, None), name="no-fallback")
    fallback = ReactiveFallback(markets, trigger_fraction=0.01, boost_factor=1.5)
    boosted = sim.run(build_policy(markets, fallback), name="with-fallback")

    print("=== Spiky VoD workload, reactive fallback on/off ===\n")
    rows = [
        [r.name, r.total_cost, r.provisioning_cost, 100 * r.unserved_fraction]
        for r in (plain, boosted)
    ]
    print(format_table(["policy", "total_$", "prov_$", "unserved_%"], rows))
    print(f"\nfallback activations: {fallback.activations}")

    print("\ndemand      ", sparkline(trace.rates, width=72))
    print("capacity    ", sparkline(boosted.capacity_rps, width=72))
    ratio = boosted.capacity_rps / np.maximum(trace.rates[: len(boosted.capacity_rps)], 1)
    print("cap/demand  ", sparkline(np.clip(ratio, 0, 3), width=72))


if __name__ == "__main__":
    main()
