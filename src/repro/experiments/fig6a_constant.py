"""Figure 6(a): SpotWeb vs constant portfolio + oracle autoscaler.

Same three-market setup as Fig. 5, comparing SpotWeb at short (H=2) and
longer (H=4) horizons against the frozen portfolio with an oracle
autoscaler.  The paper reports SpotWeb ~37% cheaper, with both horizons
close to each other (an oracle predictor makes extra look-ahead cheap but
not very valuable).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import ConstantPortfolioPolicy, oracle_target
from repro.core import CostModel, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.experiments.fig5_price_awareness import _fig5_setup
from repro.obs import get_tracer
from repro.parallel import pmap
from repro.predictors import (
    OraclePredictor,
    OraclePricePredictor,
    ReactiveFailurePredictor,
)
from repro.simulator import CostSimulator, SimulationReport

__all__ = ["Fig6aResult", "run_fig6a", "format_fig6a"]


@dataclass
class Fig6aResult:
    constant: SimulationReport
    spotweb_by_horizon: dict[int, SimulationReport]

    def savings(self, horizon: int) -> float:
        return self.spotweb_by_horizon[horizon].savings_vs(self.constant)


def _fig6a_cell(params: dict) -> SimulationReport:
    """One policy run (constant baseline or SpotWeb at one horizon)."""
    with get_tracer().span(
        "fig6a.cell",
        kind=params["kind"],
        horizon=params.get("horizon", 0),
    ):
        return _fig6a_cell_inner(params)


def _fig6a_cell_inner(params: dict) -> SimulationReport:
    hours, peak_rps, seed = params["hours"], params["peak_rps"], params["seed"]
    dataset, trace = _fig5_setup(hours, peak_rps, seed)
    markets = dataset.markets
    sim = CostSimulator(dataset, trace, seed=seed)
    if params["kind"] == "constant":
        return sim.run(
            ConstantPortfolioPolicy(
                markets, calibrate_at=2, target_fn=oracle_target(trace)
            ),
            name="constant+oracle-as",
        )
    h = params["horizon"]
    controller = SpotWebController(
        markets,
        OraclePredictor(trace),
        OraclePricePredictor(dataset.prices),
        ReactiveFailurePredictor(len(markets)),
        horizon=h,
        cost_model=CostModel(churn_penalty=0.2),
    )
    return sim.run(SpotWebPolicy(controller), name=f"spotweb_H{h}")


def run_fig6a(
    *,
    horizons: tuple[int, ...] = (2, 4),
    hours: int = 72,
    peak_rps: float = 4000.0,
    seed: int = 0,
    workers: int | None = 1,
) -> Fig6aResult:
    base = {"hours": hours, "peak_rps": peak_rps, "seed": seed}
    cells = [{"kind": "constant", **base}] + [
        {"kind": "spotweb", "horizon": h, **base} for h in horizons
    ]
    reports = pmap(_fig6a_cell, cells, max_workers=workers)
    return Fig6aResult(
        constant=reports[0],
        spotweb_by_horizon=dict(zip(horizons, reports[1:])),
    )


def format_fig6a(result: Fig6aResult) -> str:
    from repro.textfmt import format_table

    rows = [
        [
            rep.name,
            rep.total_cost,
            rep.provisioning_cost,
            100 * rep.unserved_fraction,
            100 * rep.savings_vs(result.constant),
        ]
        for rep in [result.constant, *result.spotweb_by_horizon.values()]
    ]
    return format_table(
        ["policy", "total_$", "prov_$", "unserved_%", "savings_vs_const_%"],
        rows,
        title="Fig 6(a): SpotWeb vs constant portfolio with oracle autoscaler",
    )
