#!/usr/bin/env python3
"""Quickstart: run a SpotWeb-managed web cluster on synthetic spot markets.

Builds the full pipeline in ~30 lines:

1. a market universe (12 EC2-like spot markets with synthetic price and
   revocation traces),
2. a week of Wikipedia-like traffic,
3. the SpotWeb controller (spline+CI workload predictor, AR(1) price
   predictor, reactive failure predictor, 4-interval look-ahead),
4. the interval-level cost simulator,

then prints the cost/SLO report and the final portfolio.
"""

from repro.core import CostModel, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.markets import default_catalog, generate_market_dataset
from repro.predictors import (
    AR1PricePredictor,
    ReactiveFailurePredictor,
    SplinePredictor,
)
from repro.simulator import CostSimulator
from repro.textfmt import format_table
from repro.workloads import wikipedia_like


def main() -> None:
    markets = default_catalog().spot_markets(12)
    n = len(markets)

    dataset = generate_market_dataset(markets, intervals=7 * 24, seed=42)
    trace = wikipedia_like(1, seed=42).scaled(20_000.0)

    controller = SpotWebController(
        markets,
        SplinePredictor(intervals_per_day=24),
        AR1PricePredictor(n),
        ReactiveFailurePredictor(n),
        horizon=4,
        cost_model=CostModel(penalty=0.02, risk_aversion=5.0, churn_penalty=0.2),
    )
    policy = SpotWebPolicy(controller)

    simulator = CostSimulator(dataset, trace, seed=42)
    report = simulator.run(policy, name="spotweb")

    print("=== SpotWeb quickstart: one week, 12 spot markets ===\n")
    rows = [[k, v] for k, v in report.summary().items()]
    print(format_table(["metric", "value"], rows))

    decision = policy.last_decision
    assert decision is not None
    print("\nFinal portfolio (last interval):")
    active = [
        (m.name, int(c))
        for m, c in zip(markets, decision.counts)
        if c > 0
    ]
    print(format_table(["market", "servers"], active))
    print(f"\nTarget capacity: {decision.target_rps:.0f} req/s "
          f"(provisioned {decision.provisioned_rps:.0f} req/s)")


if __name__ == "__main__":
    main()
