#!/usr/bin/env python3
"""Calibrating the synthetic market to a real price history.

The reproduction's spot prices are synthetic; if you hold real price data
(a CSV export of your provider's spot history), you can fit the generator to
it and run every SpotWeb experiment on markets that move like yours.

The script demonstrates the loop end to end without external data: it
treats one synthetic series as "the real history", writes it to a CSV,
loads it back through the trace loader, fits a
:class:`~repro.markets.price_process.SpotPriceProcess` with
:func:`~repro.markets.calibration.fit_price_process`, and compares the
original against a re-generated series.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from repro.markets import default_catalog, fit_price_process
from repro.markets.price_process import SpotPriceProcess
from repro.textfmt import format_table, sparkline


def main() -> None:
    market = default_catalog().market("m5.2xlarge")
    ondemand = market.instance.ondemand_price

    # "The real history": 60 days of hourly prices from a hidden process.
    hidden = SpotPriceProcess(
        ondemand_price=ondemand,
        base_discount=0.28,
        reversion=0.18,
        volatility=0.07,
        p_enter_pressure=0.012,
        p_exit_pressure=0.12,
    )
    history = hidden.sample(24 * 60, np.random.default_rng(99))

    # Round-trip through a CSV the way a user's export would arrive.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spot_history.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["hour", "price_usd"])
            for t, p in enumerate(history):
                writer.writerow([t, f"{p:.6f}"])
        from repro.workloads import load_csv_trace

        loaded = load_csv_trace(path, value_column="price_usd")
        prices = loaded.rates

    fit = fit_price_process(prices, ondemand)
    regen = fit.process.sample(prices.size, np.random.default_rng(7))

    rows = [
        ["median_price", float(np.median(prices)), float(np.median(regen))],
        ["p95_price", float(np.quantile(prices, 0.95)), float(np.quantile(regen, 0.95))],
        ["min_price", float(prices.min()), float(regen.min())],
        [
            "lag1_autocorr(log)",
            float(np.corrcoef(np.log(prices[1:]), np.log(prices[:-1]))[0, 1]),
            float(np.corrcoef(np.log(regen[1:]), np.log(regen[:-1]))[0, 1]),
        ],
    ]
    print(f"Calibrating to {market.instance.name} "
          f"(on-demand ${ondemand}/h), 60 days of hourly history\n")
    print(format_table(["moment", "history", "regenerated"], rows))
    print(f"\nfitted: base_discount={fit.process.base_discount:.3f} "
          f"reversion={fit.process.reversion:.3f} "
          f"volatility={fit.process.volatility:.3f} "
          f"pressure_fraction={fit.pressure_fraction:.3f}")
    print("\nhistory     ", sparkline(prices, width=72))
    print("regenerated ", sparkline(regen, width=72))


if __name__ == "__main__":
    main()
