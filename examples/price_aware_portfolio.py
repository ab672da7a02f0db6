#!/usr/bin/env python3
"""Price-aware portfolio selection: the Fig. 5 three-market race.

Three markets (r5d.24xlarge, r5.4xlarge, r4.4xlarge) with equal, low
revocation probability but moving spot prices — the cheapest per-request
market keeps changing.  A constant portfolio (frozen after 2 hours, counts
autoscaled by an oracle) cannot follow the price; SpotWeb's multi-period
optimizer re-plans every hour and shifts allocation to whichever market is
cheap.

Prints the allocation trajectory of both policies and the cost gap.
"""

import numpy as np

from repro.experiments.fig5_price_awareness import (
    MARKET_NAMES,
    format_fig5,
    run_fig5,
)
from repro.textfmt import format_table


def allocation_timeline(report, capacities, every: int = 6) -> list[list]:
    rows = []
    for t in range(0, report.counts.shape[0], every):
        shares = report.counts[t] * capacities
        total = shares.sum()
        mix = shares / total if total > 0 else shares
        rows.append([t, *[f"{100 * m:.0f}%" for m in mix]])
    return rows


def main() -> None:
    result = run_fig5(hours=72, peak_rps=4000.0, seed=0)
    print(format_fig5(result))

    capacities = result.dataset.capacities
    print("\nSpotWeb allocation over time (capacity share per market):")
    print(
        format_table(
            ["hour", *MARKET_NAMES],
            allocation_timeline(result.spotweb, capacities),
        )
    )
    print("\nConstant portfolio allocation over time:")
    print(
        format_table(
            ["hour", *MARKET_NAMES],
            allocation_timeline(result.constant, capacities),
        )
    )

    cheapest = np.argmin(result.dataset.per_request_costs(), axis=1)
    names = [MARKET_NAMES[i] for i in cheapest[::6]]
    print("\nCheapest market every 6h:", " -> ".join(names))


if __name__ == "__main__":
    main()
