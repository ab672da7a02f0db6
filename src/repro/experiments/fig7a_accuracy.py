"""Figure 7(a): sensitivity to prediction accuracy.

Sweep the workload predictor's relative error (via the noisy oracle) and
report SpotWeb's savings relative to a purely reactive predictor
("predicting that the workload, failure, and price for the next time step
will be equal to the current values").  The paper: savings shrink as error
grows but stay positive even at large error; SpotWeb's own predictor sits at
3–5% error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import CostModel, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.markets import default_catalog, generate_market_dataset
from repro.predictors import (
    AR1PricePredictor,
    NoisyOraclePredictor,
    ReactiveFailurePredictor,
    ReactivePredictor,
)
from repro.simulator import CostSimulator
from repro.workloads import wikipedia_like

__all__ = ["Fig7aResult", "run_fig7a", "format_fig7a"]


@dataclass
class Fig7aResult:
    errors: tuple[float, ...]
    savings_by_error: dict[float, float]
    reactive_cost: float


def run_fig7a(
    *,
    errors: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20),
    num_markets: int = 12,
    weeks: int = 2,
    peak_rps: float = 30_000.0,
    horizon: int = 4,
    seed: int = 3,
) -> Fig7aResult:
    catalog = default_catalog()
    markets = catalog.spot_markets(num_markets)
    dataset = generate_market_dataset(markets, intervals=weeks * 7 * 24, seed=seed)
    trace = wikipedia_like(weeks, seed=seed).scaled(peak_rps)
    sim = CostSimulator(dataset, trace, seed=seed)

    def build(workload_predictor) -> SpotWebPolicy:
        controller = SpotWebController(
            markets,
            workload_predictor,
            AR1PricePredictor(num_markets),
            ReactiveFailurePredictor(num_markets),
            horizon=horizon,
            cost_model=CostModel(churn_penalty=0.2),
        )
        return SpotWebPolicy(controller)

    reactive = sim.run(build(ReactivePredictor()), name="reactive")

    savings: dict[float, float] = {}
    for err in errors:
        noisy = NoisyOraclePredictor(trace, err, seed=seed)
        report = sim.run(build(noisy), name=f"err_{err:.2f}")
        savings[err] = report.savings_vs(reactive)
    return Fig7aResult(
        errors=errors,
        savings_by_error=savings,
        reactive_cost=reactive.total_cost,
    )


def format_fig7a(result: Fig7aResult) -> str:
    from repro.textfmt import format_table

    rows = [
        [100 * err, 100 * result.savings_by_error[err]] for err in result.errors
    ]
    return format_table(
        ["prediction_error_%", "savings_vs_reactive_%"],
        rows,
        title="Fig 7(a): savings as a function of prediction accuracy",
    )
