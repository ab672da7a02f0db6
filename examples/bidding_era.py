#!/usr/bin/env python3
"""Bid-era spot markets: how bidding strategy shapes revocation exposure.

Before per-second billing and two-minute warnings, EC2 spot instances lived
and died by the *bid*: the instance ran while the market price stayed below
it.  The paper's background section builds on that line of work.  This
example prices two classic strategies over synthetic spot markets —
bid-on-demand (never pay more than list) and quantile bidding (tolerate all
but the top tail) — and shows the trade between revocation frequency and
the implied failure probabilities SpotWeb's optimizer would see.
"""

import numpy as np

from repro.markets import (
    OnDemandBid,
    QuantileBid,
    default_catalog,
    effective_failure_probs,
    generate_price_matrix,
    revocations_from_bids,
)
from repro.textfmt import format_table, sparkline


def main() -> None:
    markets = default_catalog().spot_markets(8)
    prices = generate_price_matrix(markets, 24 * 28, seed=3)

    strategies = {
        "bid=on-demand": OnDemandBid(1.0),
        "bid=q95": QuantileBid(0.95),
        "bid=q75": QuantileBid(0.75),
    }

    rows = []
    for name, strategy in strategies.items():
        bids = strategy.bids(markets, prices)
        events = revocations_from_bids(prices, bids)
        implied = effective_failure_probs(prices, bids, window=168)
        rows.append(
            [
                name,
                100 * events.mean(),
                100 * implied[-1].mean(),
                float(bids.mean()),
            ]
        )
    print(
        format_table(
            ["strategy", "revoked_intervals_%", "implied_f_%", "mean_bid_$"],
            rows,
            title="Bid strategies over 4 weeks x 8 markets",
        )
    )

    # Show one market's price path against the two bid levels.
    j = 0
    series = prices[:, j]
    od = markets[j].instance.ondemand_price
    q75 = float(np.quantile(series, 0.75))
    print(f"\n{markets[j].name}: price path (on-demand {od:.3f}, q75 bid {q75:.3f})")
    print("price  ", sparkline(series, width=72))
    print("above q75 bid:",
          "".join("x" if v > q75 else "." for v in series[::len(series) // 72]))


if __name__ == "__main__":
    main()
