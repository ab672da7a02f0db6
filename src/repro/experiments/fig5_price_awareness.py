"""Figure 5: the benefit of price-awareness.

Three markets mirroring the paper's pick — r5d.24xlarge (1920 req/s),
r5.4xlarge (320 req/s), r4.4xlarge (320 req/s) — with equal, low revocation
probabilities (< 5%), so the *only* thing that differs across markets over
time is the per-request price.  The paper shows:

- Fig. 5(a): the cheapest market changes over time.
- Fig. 5(c): a constant portfolio frozen after 2 hours (with an oracle
  autoscaler) keeps its mix regardless of prices.
- Fig. 5(d): MPO shifts allocation to whichever market is cheap.
- Fig. 6(a) quantifies the gap (SpotWeb ~37% cheaper; see
  :mod:`repro.experiments.fig6a_constant`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import CostModel, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.baselines import ConstantPortfolioPolicy, oracle_target
from repro.markets import MarketDataset, default_catalog
from repro.parallel import pmap, shared_setup
from repro.markets.catalog import Market
from repro.markets.price_process import SpotPriceProcess, generate_price_matrix
from repro.markets.revocation import RevocationModel
from repro.predictors import (
    OraclePredictor,
    OraclePricePredictor,
    ReactiveFailurePredictor,
)
from repro.simulator import CostSimulator, SimulationReport
from repro.workloads import WorkloadTrace, wikipedia_like

__all__ = [
    "Fig5Result",
    "fig5_markets",
    "fig5_dataset",
    "run_fig5",
    "format_fig5",
]

MARKET_NAMES = ("r5d.24xlarge", "r5.4xlarge", "r4.4xlarge")


@dataclass
class Fig5Result:
    dataset: MarketDataset
    trace: WorkloadTrace
    spotweb: SimulationReport
    constant: SimulationReport
    cheapest_market_switches: int

    @property
    def savings(self) -> float:
        return self.spotweb.savings_vs(self.constant)


def fig5_markets() -> list[Market]:
    catalog = default_catalog()
    return [catalog.market(name) for name in MARKET_NAMES]


def fig5_dataset(*, hours: int = 72, seed: int = 0) -> MarketDataset:
    """Three days of hourly prices for the three markets.

    Volatile, weakly correlated price processes so the cheapest-per-request
    market rotates (the paper's Sep 25–28 2018 window showed the same).
    Failure probabilities are equal and below 5% as the paper assumes.
    """
    markets = fig5_markets()
    overrides = {
        m.name: SpotPriceProcess(
            ondemand_price=m.instance.ondemand_price,
            base_discount=0.22 + 0.04 * i,
            reversion=0.12,
            volatility=0.18,
            p_enter_pressure=0.03,
            p_exit_pressure=0.15,
            pressure_discount=0.7,
        )
        for i, m in enumerate(markets)
    }
    prices = generate_price_matrix(
        markets,
        hours,
        seed=seed,
        family_correlation=0.1,
        process_overrides=overrides,
    )
    model = RevocationModel(markets, seed=seed, price_sensitivity=0.0)
    failure = np.minimum(model.probabilities(prices), 0.05)
    failure[:] = 0.04  # equal probabilities, below 5%
    return MarketDataset(markets=markets, prices=prices, failure_probs=failure)


def _fig5_setup(hours: int, peak_rps: float, seed: int):
    """Shared read-only inputs for one fig5 configuration (memoized)."""

    def build():
        dataset = fig5_dataset(hours=hours, seed=seed)
        weeks = max(1, int(np.ceil(hours / (7 * 24))))
        trace = wikipedia_like(weeks, seed=seed).scaled(peak_rps).window(0, hours)
        return dataset, trace

    return shared_setup(("fig5", hours, peak_rps, seed), build)


def _fig5_policy_cell(params: dict) -> SimulationReport:
    """One policy run — the unit the sweep executor fans out."""
    hours, peak_rps, seed = params["hours"], params["peak_rps"], params["seed"]
    dataset, trace = _fig5_setup(hours, peak_rps, seed)
    markets = dataset.markets
    sim = CostSimulator(dataset, trace, seed=seed)
    if params["policy"] == "spotweb":
        controller = SpotWebController(
            markets,
            OraclePredictor(trace),
            OraclePricePredictor(dataset.prices),
            ReactiveFailurePredictor(len(markets)),
            horizon=4,
            cost_model=CostModel(churn_penalty=0.2),
        )
        return sim.run(SpotWebPolicy(controller), name="spotweb")
    return sim.run(
        ConstantPortfolioPolicy(
            markets, calibrate_at=2, target_fn=oracle_target(trace)
        ),
        name="constant+oracle-as",
    )


def run_fig5(
    *,
    hours: int = 72,
    peak_rps: float = 4000.0,
    seed: int = 0,
    workers: int | None = 1,
) -> Fig5Result:
    """Constant portfolio vs MPO on the three-market price race.

    Both sides get oracles (workload and price) so the comparison isolates
    portfolio adaptivity, exactly as the paper configures it.  The two
    policy runs are independent; ``workers=2`` (or ``None``, one process
    per CPU) fans them out over a process pool with identical results.
    """
    dataset, trace = _fig5_setup(hours, peak_rps, seed)
    cells = [
        {"policy": name, "hours": hours, "peak_rps": peak_rps, "seed": seed}
        for name in ("spotweb", "constant")
    ]
    spotweb, constant = pmap(_fig5_policy_cell, cells, max_workers=workers)

    cheapest = np.argmin(dataset.per_request_costs(), axis=1)
    switches = int(np.sum(np.diff(cheapest) != 0))
    return Fig5Result(
        dataset=dataset,
        trace=trace,
        spotweb=spotweb,
        constant=constant,
        cheapest_market_switches=switches,
    )


def format_fig5(result: Fig5Result) -> str:
    from repro.textfmt import format_table

    rows = []
    for rep in (result.spotweb, result.constant):
        shares = rep.counts * result.dataset.capacities[None, :]
        totals = shares.sum(axis=1, keepdims=True)
        mix = np.where(totals > 0, shares / np.maximum(totals, 1e-9), 0.0).mean(axis=0)
        rows.append(
            [
                rep.name,
                rep.total_cost,
                rep.provisioning_cost,
                100 * rep.unserved_fraction,
                *[100 * m for m in mix],
            ]
        )
    table = format_table(
        ["policy", "total_$", "prov_$", "unserved_%"]
        + [f"{n}_%" for n in MARKET_NAMES],
        rows,
        title=(
            "Fig 5: price-awareness, 3 markets "
            f"(cheapest market switched {result.cheapest_market_switches}x)"
        ),
    )
    return table + f"\nSpotWeb saves {100 * result.savings:.1f}% vs constant portfolio"
