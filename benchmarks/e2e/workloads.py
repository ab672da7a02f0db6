"""The five end-to-end workloads: inputs from a seed, one run, its outputs.

Every workload is a closed loop: one client runs complete experiments back
to back.  ``build(seed)`` makes one run's inputs outside the timer,
``run(inputs)`` is the timed work and returns JSON-ready outputs, and
``invariants(outputs)`` lists violations of properties that hold at every
seed.

Market histories and demand traces are fixed per workload, the way the
paper replays recorded EC2 price and Wikipedia/VoD traces; the seed draws
the run's random events (revocations, arrivals, traffic jitter).  Drawing
the market history from the seed instead moves the solver's iteration
count by 32% between seeds (IQR over ten seeds, 36 markets), which would
swamp any change a later optimization could make.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.baselines import ExoSphereLoopPolicy
from repro.core import CostModel, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.experiments.fig4a_loadbalancer import run_fig4a
from repro.markets import default_catalog, generate_market_dataset
from repro.predictors import (
    AR1PricePredictor,
    EWMAPredictor,
    ReactiveFailurePredictor,
    ReactivePricePredictor,
    SplinePredictor,
)
from repro.simulator import (
    ClusterConfig,
    CostSimulator,
    HybridClusterSimulation,
    SpotWebSystem,
    SystemConfig,
)
from repro.solvers.result import SolverStatus
from repro.workloads import WorkloadTrace, vod_like, wikipedia_like


def _no_decisions(_inputs) -> list[float]:
    return []


@dataclass(frozen=True)
class Workload:
    """One workload: its default seed and how to build, run and check it."""

    name: str
    default_seed: int
    build: Callable[[int], Any]
    run: Callable[[Any], dict]
    invariants: Callable[[dict], list[str]]
    #: after ``run(inputs)``: the latency in ms of each SpotWeb decision
    decide_ms: Callable[[Any], list[float]] = _no_decisions


def _finite(value: float) -> float | None:
    """JSON has no NaN: an empty window reports null."""
    return float(value) if math.isfinite(value) else None


# ------------------------------------------------------------------ costsim
class _TimedController(SpotWebController):
    """SpotWeb's controller, timing each decision (one ``step`` per interval)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.decide_ms: list[float] = []

    def step(self, *args, **kwargs):
        t0_s = time.perf_counter()
        decision = super().step(*args, **kwargs)
        self.decide_ms.append(1e3 * (time.perf_counter() - t0_s))
        return decision


class _AuditedPolicy(SpotWebPolicy):
    """SpotWeb's policy, counting MPO solves that stopped short of optimal."""

    def __init__(self, controller: SpotWebController) -> None:
        super().__init__(controller)
        self.unconverged = 0

    def decide(self, t, observed_rps, prices, failure_probs):
        counts = super().decide(t, observed_rps, prices, failure_probs)
        if self.last_decision.mpo.solver.status is not SolverStatus.OPTIMAL:
            self.unconverged += 1
        return counts


def _costsim(
    *, markets: int, horizon: int, intervals: int, trace: WorkloadTrace, market_seed: int
) -> Callable[[int], Any]:
    universe = default_catalog().spot_markets(markets)
    dataset = generate_market_dataset(universe, intervals=intervals, seed=market_seed)

    def build(seed: int):
        sim = CostSimulator(dataset, trace, seed=seed)
        controller = _TimedController(
            universe,
            SplinePredictor(trace.intervals_per_day),
            AR1PricePredictor(markets),
            ReactiveFailurePredictor(markets),
            horizon=horizon,
            cost_model=CostModel(churn_penalty=0.2),
        )
        return sim, _AuditedPolicy(controller), ExoSphereLoopPolicy(universe)

    return build


def _costsim_run(inputs) -> dict:
    sim, spotweb, exosphere = inputs
    sw = sim.run(spotweb, name="spotweb")
    exo = sim.run(exosphere, name="exosphere")
    return {
        "spotweb_cost": sw.total_cost,
        "exosphere_cost": exo.total_cost,
        "saving": sw.savings_vs(exo),
        "revocations": [sw.revocation_events, exo.revocation_events],
        "unserved_fraction": [sw.unserved_fraction, exo.unserved_fraction],
        "unconverged": spotweb.unconverged,
    }


def _costsim_invariants(out: dict) -> list[str]:
    bad = []
    if not (out["spotweb_cost"] > 0 and out["exosphere_cost"] > 0):
        bad.append("costs must be positive")
    if not 0 < out["saving"] < 1:
        # Fig. 6(b): SpotWeb is cheaper than ExoSphere-in-a-loop.
        bad.append(f"saving {out['saving']:.4f} outside (0, 1)")
    if not all(0 <= f <= 1 for f in out["unserved_fraction"]):
        bad.append("unserved fraction outside [0, 1]")
    return bad


# --------------------------------------------------------------------- fig4a
#: Load and capacities at a tenth of the testbed's (same utilization): the
#: CLI default of 0.5 takes 19 s per run.
FIG4A_SCALE = 0.1


def _fig4a_run(seed: int) -> dict:
    results = run_fig4a(seed=seed, scale=FIG4A_SCALE, engine="hybrid")
    return {
        name: {
            "served": float(r.recorder.served),
            "dropped": float(r.recorder.dropped),
            "post_revoke_p90": _finite(r.post_revocation_p90),
            "drop_rate": r.drop_rate,
            "minute_p90": [_finite(v) for v in r.minute_p90],
        }
        for name, r in results.items()
    }


def _fig4a_invariants(out: dict) -> list[str]:
    bad = []
    for name, r in out.items():
        if not (r["served"] > 0 and 0 <= r["drop_rate"] <= 1):
            bad.append(f"{name}: served {r['served']} drop rate {r['drop_rate']}")
    if not out["spotweb"]["drop_rate"] < out["vanilla"]["drop_rate"]:
        # Fig. 4(a): the transiency-aware balancer drops less than vanilla.
        bad.append("spotweb balancer drops no less than vanilla")
    return bad


# ---------------------------------------------------------------- fluid_500k
FLUID_SERVERS = 550
FLUID_CAPACITY_RPS = 1100.0
FLUID_RPS = 500_000.0
FLUID_SECONDS = 1200


def _fluid_build(seed: int):
    config = ClusterConfig(seed=seed)
    cluster = HybridClusterSimulation(config, engine="hybrid", keep_raw=False)
    for _ in range(FLUID_SERVERS):
        cluster.add_server(FLUID_CAPACITY_RPS, boot_seconds=0.0)
    # Past boot and cache warm-up before the clock starts: a warm fleet.
    cluster.sim.advance(config.warmup_seconds + 1.0)
    # Per-second traffic jitter of +-4% keeps every step well under the
    # 30% spike and 0.9-utilization triggers, so the run stays fluid.
    jitter = 1.0 + 0.04 * np.random.default_rng(seed).uniform(-1.0, 1.0, FLUID_SECONDS + 1)
    start = cluster.sim.now
    return cluster, lambda t: FLUID_RPS * float(jitter[int(t - start)])


def _fluid_run(inputs) -> dict:
    cluster, rate = inputs
    offered_before = cluster.fluid.offered_total
    recorder = cluster.run(float(FLUID_SECONDS), rate)
    return {
        "offered": cluster.fluid.offered_total - offered_before,
        "served": float(recorder.served),
        "p99_s": recorder.percentile(99.0),
        "balance_error": cluster.fluid.balance_error(),
        "tier_steps": dict(cluster.tier_steps),
    }


def _fluid_invariants(out: dict) -> list[str]:
    bad = []
    if out["balance_error"] > 1e-6 * out["offered"]:
        bad.append(f"fluid ledger balance error {out['balance_error']:.3g}")
    if not 0 < out["served"] <= out["offered"] * (1 + 1e-9):
        bad.append("served mass outside (0, offered]")
    if out["tier_steps"]["request"] != 0:
        bad.append("steady 500k-RPS run left the fluid tier")
    return bad


# --------------------------------------------------------------- closed_loop
CLOSED_INTERVAL_S = 300.0
CLOSED_INTERVALS = 24
CLOSED_MARKETS = [
    "m4.large", "m4.xlarge", "m4.2xlarge", "m5.large",
    "m5.xlarge", "m5.2xlarge", "c5.xlarge", "c5.2xlarge",
]
#: examples/closed_loop.py's 80 -> 320 -> 80 req/s ramp at a twentieth of
#: its rate: the full ramp takes 14 s per run, this one under 2 s, and the
#: controller still keeps a fleet of 6 to 10 servers.
CLOSED_RATE_SCALE = 0.05


def _closed_builder() -> Callable[[int], Any]:
    markets = default_catalog().subset(CLOSED_MARKETS).spot_markets()
    dataset = generate_market_dataset(
        markets, intervals=CLOSED_INTERVALS, seed=13, interval_seconds=CLOSED_INTERVAL_S
    )
    phase = np.linspace(0, np.pi, CLOSED_INTERVALS)
    trace = WorkloadTrace(
        CLOSED_RATE_SCALE * (80.0 + 240.0 * np.sin(phase) ** 2),
        CLOSED_INTERVAL_S,
        name="ramp",
    )

    def build(seed: int):
        n = len(markets)
        controller = _TimedController(
            markets,
            EWMAPredictor(alpha=0.5),
            ReactivePricePredictor(n),
            ReactiveFailurePredictor(n),
            horizon=3,
            cost_model=CostModel(churn_penalty=0.2),
        )
        # The request engine, as in examples/closed_loop.py: its work is
        # set by the trace.  Under the hybrid engine the request-level
        # windows follow the revocation draws and the run's work moves 13%
        # (IQR over ten seeds).
        config = SystemConfig(interval_seconds=CLOSED_INTERVAL_S, seed=seed)
        return SpotWebSystem(controller, dataset, config), trace

    return build


def _closed_run(inputs) -> dict:
    system, trace = inputs
    report = system.run(trace)
    return {
        "summary": {k: _finite(v) for k, v in report.summary().items()},
        "tier_steps": dict(report.tier_steps),
    }


def _closed_invariants(out: dict) -> list[str]:
    bad = []
    summary = out["summary"]
    if not summary["served"] > 0:
        bad.append("closed loop served nothing")
    if not 0 <= summary["drop_rate"] <= 1:
        bad.append(f"drop rate {summary['drop_rate']} outside [0, 1]")
    if sum(out["tier_steps"].values()) != 10 * CLOSED_INTERVALS:
        bad.append(f"tier steps {out['tier_steps']} != 10 per interval")
    if not summary["total_cost"] > 0:
        bad.append("closed loop spent nothing")
    return bad


# ------------------------------------------------------------------ registry
def _costsim_decide_ms(inputs) -> list[float]:
    return inputs[1].controller.decide_ms


def _closed_decide_ms(inputs) -> list[float]:
    return inputs[0].controller.decide_ms


def _fig6b() -> Workload:
    trace = wikipedia_like(1, seed=3).scaled(30_000.0)
    build = _costsim(markets=36, horizon=10, intervals=96, trace=trace, market_seed=3)
    return Workload(
        "costsim_fig6b", 3, build, _costsim_run, _costsim_invariants, _costsim_decide_ms
    )


def _vod() -> Workload:
    trace = vod_like(1, seed=5).scaled(30_000.0)
    build = _costsim(markets=12, horizon=4, intervals=168, trace=trace, market_seed=5)
    return Workload(
        "costsim_vod", 5, build, _costsim_run, _costsim_invariants, _costsim_decide_ms
    )


#: Workload name -> factory; a factory builds the data fixed per workload.
WORKLOADS: dict[str, Callable[[], Workload]] = {
    "costsim_fig6b": _fig6b,
    "costsim_vod": _vod,
    "fig4a_lb": lambda: Workload("fig4a_lb", 0, lambda seed: seed, _fig4a_run, _fig4a_invariants),
    "fluid_500k": lambda: Workload("fluid_500k", 0, _fluid_build, _fluid_run, _fluid_invariants),
    "closed_loop": lambda: Workload(
        "closed_loop", 13, _closed_builder(), _closed_run, _closed_invariants, _closed_decide_ms
    ),
}
