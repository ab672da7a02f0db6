#!/usr/bin/env python3
"""The whole SpotWeb machine in one closed loop, request by request.

Wires every component of the paper's Fig. 2 inside the discrete-event
simulator: the controller re-plans the portfolio each control interval, the
transient cloud leases and revokes VMs (with warnings), the monitoring hub
relays feeds and warnings, the transiency-aware balancer routes live traffic
and handles failovers, and request-level servers queue and serve.

Runs a compressed two-hour scenario (5-minute control intervals) with a
diurnal-ish ramp and real revocation weather, then prints the latency/SLO
report, total spend, and the fleet-capacity timeline.
"""

import numpy as np

from repro.core import CostModel, SpotWebController
from repro.markets import default_catalog, generate_market_dataset
from repro.predictors import (
    EWMAPredictor,
    ReactiveFailurePredictor,
    ReactivePricePredictor,
)
from repro.simulator import SpotWebSystem, SystemConfig
from repro.textfmt import format_table, sparkline
from repro.workloads import WorkloadTrace

INTERVAL = 300.0  # 5-minute control intervals
INTERVALS = 24  # two hours of simulated time


def main() -> None:
    catalog = default_catalog()
    markets = catalog.subset(
        ["m4.large", "m4.xlarge", "m4.2xlarge", "m5.large", "m5.xlarge",
         "m5.2xlarge", "c5.xlarge", "c5.2xlarge"]
    ).spot_markets()
    n = len(markets)

    dataset = generate_market_dataset(
        markets, intervals=INTERVALS, seed=13, interval_seconds=INTERVAL
    )
    # A ramping workload: 80 -> 320 req/s and back.
    phase = np.linspace(0, np.pi, INTERVALS)
    trace = WorkloadTrace(
        80.0 + 240.0 * np.sin(phase) ** 2, INTERVAL, name="ramp"
    )

    controller = SpotWebController(
        markets,
        EWMAPredictor(alpha=0.5),
        ReactivePricePredictor(n),
        ReactiveFailurePredictor(n),
        horizon=3,
        cost_model=CostModel(churn_penalty=0.2),
    )
    system = SpotWebSystem(
        controller, dataset, SystemConfig(interval_seconds=INTERVAL, seed=13)
    )

    print(f"Running {INTERVALS} control intervals "
          f"({INTERVALS * INTERVAL / 60:.0f} simulated minutes) "
          f"of live traffic...\n")
    report = system.run(trace)

    rows = [[k, v] for k, v in report.summary().items()]
    print(format_table(["metric", "value"], rows))

    times = np.array([t for t, _, _ in report.fleet_timeline])
    caps = np.array([c for _, _, c in report.fleet_timeline])
    # Resample capacity to the interval grid for display.
    grid = np.array(
        [caps[times <= (k + 1) * INTERVAL][-1] for k in range(INTERVALS)]
    )
    print("\ndemand    ", sparkline(trace.rates, width=INTERVALS))
    print("capacity  ", sparkline(grid, width=INTERVALS))
    print("observed  ", sparkline(np.array(report.interval_observed_rps), width=INTERVALS))
    print(f"\nrevocation events: {report.revocation_events}, "
          f"total spend: ${report.total_cost:.3f}")


if __name__ == "__main__":
    main()
