#!/usr/bin/env python3
"""A Wikipedia-scale cluster over two weeks: SpotWeb vs every baseline.

The paper's motivating deployment: a read-heavy wiki cluster whose traffic
is strongly diurnal, hosted entirely on transient servers.  This example
runs the interval-level simulation over 24 spot markets + the matching
on-demand markets, comparing:

- SpotWeb (multi-period optimization, CI padding, churn penalty),
- ExoSphere re-run in a loop (single-period, backward-looking),
- a constant portfolio with an oracle autoscaler,
- Qu et al. threshold over-provisioning (survive 1 concurrent failure),
- all-on-demand (the conventional deployment).

Prints the cost ledger with savings relative to on-demand — the paper's
headline is "up to 90% cheaper than on-demand, up to 50% cheaper than
state-of-the-art transiency systems".
"""

from repro.baselines import (
    ConstantPortfolioPolicy,
    ExoSphereLoopPolicy,
    OnDemandPolicy,
    QuThresholdPolicy,
    oracle_target,
)
from repro.core import CostModel, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.markets import default_catalog, generate_market_dataset
from repro.predictors import (
    AR1PricePredictor,
    ReactiveFailurePredictor,
    SplinePredictor,
)
from repro.simulator import CostLedger, CostSimulator
from repro.textfmt import format_table
from repro.workloads import wikipedia_like

WEEKS = 2
PEAK_RPS = 30_000.0
SEED = 7


def main() -> None:
    catalog = default_catalog()
    spot = catalog.spot_markets(24)
    # Add the on-demand variant of each type so OnDemandPolicy has columns.
    ondemand = [catalog.market(m.instance.name, option=m.option.__class__.ON_DEMAND)
                for m in spot[:24]]
    markets = spot + ondemand
    n = len(markets)

    dataset = generate_market_dataset(markets, intervals=WEEKS * 7 * 24, seed=SEED)
    trace = wikipedia_like(WEEKS, seed=SEED).scaled(PEAK_RPS)
    sim = CostSimulator(dataset, trace, seed=SEED)

    controller = SpotWebController(
        markets,
        SplinePredictor(24),
        AR1PricePredictor(n),
        ReactiveFailurePredictor(n),
        horizon=4,
        cost_model=CostModel(churn_penalty=0.2),
    )

    ledger = CostLedger()
    print(f"Simulating {WEEKS} weeks x {n} markets for 5 policies "
          f"(peak {PEAK_RPS:.0f} req/s)...\n")
    ledger.add(sim.run(SpotWebPolicy(controller), name="spotweb"))
    ledger.add(sim.run(ExoSphereLoopPolicy(markets), name="exosphere-loop"))
    ledger.add(
        sim.run(
            ConstantPortfolioPolicy(markets, target_fn=oracle_target(trace)),
            name="constant+oracle",
        )
    )
    ledger.add(
        sim.run(
            QuThresholdPolicy(markets, num_markets=4, failure_threshold=1),
            name="qu-threshold",
        )
    )
    ledger.add(sim.run(OnDemandPolicy(markets), name="on-demand"))

    print(
        format_table(
            CostLedger.headers(baseline=True),
            ledger.rows(baseline="on-demand"),
            title="Two-week cost ledger (savings relative to on-demand)",
        )
    )
    print(
        f"\nSpotWeb vs ExoSphere-in-a-loop: "
        f"{100 * ledger.savings('spotweb', 'exosphere-loop'):.1f}% cheaper"
    )
    print(
        f"SpotWeb vs on-demand:           "
        f"{100 * ledger.savings('spotweb', 'on-demand'):.1f}% cheaper"
    )


if __name__ == "__main__":
    main()
