"""Interval-level cost simulator for long-horizon experiments.

The fast fluid counterpart of :mod:`repro.simulator.cluster`, stepping over
the intervals of a :class:`~repro.markets.dataset.MarketDataset` and a
:class:`~repro.workloads.trace.WorkloadTrace`.  Used by the cost-savings
experiments (Figs. 5, 6, 7): what matters there is dollars, capacity and
shortfall per hour, not per-request queueing.

Mechanics per interval ``t`` (identical for every policy, so comparisons
measure the policy, not the simulator):

1. The policy decides server counts ``n_t`` from information available at
   the start of the interval (previous demand, current prices/failure
   probabilities).
2. Correlated revocation events are drawn per market.  A revoked market's
   servers terminate at a uniform point of the interval; like-for-like
   replacements boot after the startup delay and are billed for the
   remainder.
3. Billing integrates server-hours at the interval's prices; shortfall
   (demand exceeding surviving capacity during the replacement gap, or
   plain under-provisioning) is charged the SLA penalty per request.
4. Newly started servers bill from launch but serve only after the startup
   delay — the transaction cost that makes portfolio churn expensive and
   motivates multi-period planning (the paper's Example 1: fewer
   "transactions in terms of starting and stopping servers").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.core.costs import CostModel
from repro.devtools.contracts import field_units, shapes, units
from repro.markets.dataset import MarketDataset
from repro.markets.revocation import CorrelatedRevocationSampler
from repro.obs import get_bus, get_events, get_metrics, get_tracer
from repro.simulator.fluid import stochastic_wait
from repro.units import SECONDS_PER_HOUR
from repro.workloads.trace import WorkloadTrace

__all__ = [
    "ProvisioningPolicy",
    "CostSimulator",
    "CostLedger",
    "SimulationReport",
    "interval_p99",
]

# Exponential-service P99 offset in units of the mean service time.
_P99_EXP = 4.605170185988091  # -ln(0.01)


@shapes("(T,) f8", "(T,) f8", None, ret="(T,) f8")
@units("req/s", "req/s", "s", ret="s")
def interval_p99(
    demand_rps: np.ndarray, capacity_eff_rps: np.ndarray, service_time: float
) -> np.ndarray:
    """M/G/k-style P99 response-time estimate per interval (seconds).

    The interval-level simulator tracks only rates, not requests; this
    turns its demand/effective-capacity series into a latency signal by
    treating each interval as a steady M/M/k system: Sakasegawa's mean
    queueing delay (:func:`~repro.simulator.fluid.stochastic_wait`) plus
    the exponential service-time P99.  Overloaded intervals saturate at
    the utilization clip — a flag, not a forecast.
    """
    cap = np.maximum(capacity_eff_rps, 1e-9)
    rho = demand_rps / cap
    workers = np.maximum(capacity_eff_rps * service_time, 1.0)
    service = np.full_like(rho, service_time)
    return stochastic_wait(rho, service, workers) + service_time * _P99_EXP


class ProvisioningPolicy(Protocol):
    """A per-interval provisioning decision maker.

    ``decide`` returns integer server counts per market for interval ``t``,
    given the demand observed over interval ``t - 1`` and the market vectors
    visible at the start of ``t``.
    """

    def decide(
        self,
        t: int,
        observed_rps: float,
        prices: np.ndarray,
        failure_probs: np.ndarray,
    ) -> np.ndarray: ...


@field_units(
    provisioning_cost="usd",
    sla_penalty_cost="usd",
    unserved_requests="req",
    total_requests="req",
    # Wall-clock, not sim time: the one wall/sim seam in this module.
    decision_seconds="wall_s",
    p99_est_s="s",
)
@dataclass
class SimulationReport:
    """Outcome of one policy run."""

    name: str
    provisioning_cost: float
    sla_penalty_cost: float
    unserved_requests: float
    total_requests: float
    revocation_events: int
    decision_seconds: float
    interval_costs: np.ndarray
    counts: np.ndarray
    capacity_rps: np.ndarray
    demand_rps: np.ndarray
    #: per-interval M/G/k P99 estimate (seconds); None for legacy callers
    p99_est_s: np.ndarray | None = None

    @property
    @units(ret="usd")
    def total_cost(self) -> float:
        return self.provisioning_cost + self.sla_penalty_cost

    @property
    def p99_est_max_s(self) -> float:
        """Worst per-interval P99 estimate over the run (NaN if absent)."""
        if self.p99_est_s is None or len(self.p99_est_s) == 0:
            return float("nan")
        return float(np.max(self.p99_est_s))

    @property
    def unserved_fraction(self) -> float:
        if self.total_requests <= 0:
            return 0.0
        return self.unserved_requests / self.total_requests

    def savings_vs(self, other: "SimulationReport") -> float:
        """Fractional cost saving of this run relative to ``other``."""
        if other.total_cost <= 0:
            return 0.0
        return 1.0 - self.total_cost / other.total_cost

    def summary(self) -> dict[str, float]:
        out = {
            "total_cost": self.total_cost,
            "provisioning_cost": self.provisioning_cost,
            "sla_penalty_cost": self.sla_penalty_cost,
            "unserved_%": 100 * self.unserved_fraction,
            "revocations": float(self.revocation_events),
            "decision_seconds": self.decision_seconds,
        }
        if self.p99_est_s is not None:
            out["p99_est_max_s"] = self.p99_est_max_s
        return out


@dataclass
class CostLedger:
    """Collects :class:`SimulationReport` objects and compares them.

    The comparison convention matches the paper: "savings" of run A versus
    run B is ``1 - cost(A) / cost(B)``, with SLA penalties included in cost.
    """

    reports: dict[str, SimulationReport] = field(default_factory=dict)

    def add(self, report: SimulationReport) -> None:
        if report.name in self.reports:
            raise KeyError(f"duplicate report name {report.name!r}")
        self.reports[report.name] = report

    def savings(self, name: str, baseline: str) -> float:
        """Fractional savings of ``name`` relative to ``baseline``."""
        return self.reports[name].savings_vs(self.reports[baseline])

    def rows(self, *, baseline: str | None = None) -> list[list]:
        """Summary rows (optionally with a savings column) for reports."""
        out = []
        base = self.reports[baseline] if baseline else None
        for name, rep in self.reports.items():
            row = [
                name,
                rep.total_cost,
                rep.provisioning_cost,
                rep.sla_penalty_cost,
                100 * rep.unserved_fraction,
            ]
            if base is not None:
                row.append(100 * rep.savings_vs(base))
            out.append(row)
        return out

    @staticmethod
    def headers(*, baseline: bool = False) -> list[str]:
        h = ["policy", "total_$", "provision_$", "sla_$", "unserved_%"]
        if baseline:
            h.append("savings_%")
        return h


@field_units(
    service_time="s",
    startup_seconds="s",
    capacities="rps/server",
)
class CostSimulator:
    """Replays a workload + market trace against a provisioning policy."""

    def __init__(
        self,
        dataset: MarketDataset,
        trace: WorkloadTrace,
        *,
        cost_model: CostModel | None = None,
        startup_seconds: float = 300.0,
        seed: int = 0,
        correlated_revocations: bool = True,
        max_lifetime_intervals: int | None = None,
        service_time: float = 0.1,
    ) -> None:
        if len(trace) < 2:
            raise ValueError("trace must span at least two intervals")
        if max_lifetime_intervals is not None and max_lifetime_intervals < 1:
            raise ValueError("max_lifetime_intervals must be >= 1")
        if service_time <= 0:
            raise ValueError("service_time must be positive")
        self.service_time = float(service_time)
        self.dataset = dataset
        self.trace = trace
        self.cost_model = cost_model or CostModel()
        self.startup_seconds = float(startup_seconds)
        self.seed = int(seed)
        self.correlated = bool(correlated_revocations)
        # Google-style forced termination after a fixed lifetime: every
        # market sees a guaranteed revocation every k intervals, staggered
        # so the whole fleet never dies at once.
        self.max_lifetime_intervals = max_lifetime_intervals
        self.horizon_intervals = min(len(trace), dataset.num_intervals)
        self.capacities = dataset.capacities
        self._revocable = np.array([m.revocable for m in dataset.markets])

    def _sampler(self) -> CorrelatedRevocationSampler:
        if self.correlated:
            corr = self.dataset.covariance()
        else:
            corr = np.eye(self.dataset.num_markets)
        return CorrelatedRevocationSampler(corr, seed=self.seed)

    def run(self, policy: ProvisioningPolicy, *, name: str = "policy") -> SimulationReport:
        """Simulate the full overlap of trace and dataset under a policy.

        The revocation event stream depends only on the simulator seed and
        the dataset — not on the policy's choices — so two policies face the
        same market weather.  (Which *servers* are lost still depends on
        where the policy provisioned.)
        """
        T = self.horizon_intervals
        N = self.dataset.num_markets
        interval_s = self.dataset.interval_seconds
        interval_h = interval_s / SECONDS_PER_HOUR
        sampler = self._sampler()
        rng = np.random.default_rng(self.seed + 1)

        prov_cost = 0.0
        sla_cost = 0.0
        unserved = 0.0
        total_requests = 0.0
        revocations = 0
        decision_time = 0.0
        interval_costs = np.zeros(T)
        counts_out = np.zeros((T, N), dtype=np.int64)
        capacity_out = np.zeros(T)
        demand_out = np.zeros(T)
        capacity_eff_out = np.zeros(T)

        # Loop-invariant: the boot window covers a fixed fraction of every
        # interval (servers added this interval serve nothing during it).
        boot_frac = min(self.startup_seconds / interval_s, 1.0)
        market_idx = np.arange(N)

        tracer = get_tracer()
        ev = get_events()
        evented = ev.enabled
        bus = get_bus()
        run_span = tracer.span("sim.run", policy=name, intervals=T)
        run_span.__enter__()

        observed = float(self.trace.rates[0])
        for t in range(T):
            interval_span = tracer.span("sim.interval", t=t)
            interval_span.__enter__()
            if evented:
                ev.set_interval(t, t * interval_s)
            prices = self.dataset.prices[t]
            fprobs = self.dataset.failure_probs[t]

            t0_s = time.perf_counter()  # spotlint: allow-nondeterminism
            counts = np.asarray(
                policy.decide(t, observed, prices, fprobs), dtype=np.float64
            )
            decision_time += time.perf_counter() - t0_s  # spotlint: allow-nondeterminism
            if counts.shape != (N,):
                raise ValueError("policy must return one count per market")
            if np.any(counts < 0):
                raise ValueError("policy returned negative counts")
            counts = np.floor(counts + 0.5).astype(np.int64)

            demand = float(self.trace.rates[t])
            events = sampler.sample(fprobs) & self._revocable & (counts > 0)
            if self.max_lifetime_intervals is not None and t > 0:
                k = self.max_lifetime_intervals
                forced = (t - market_idx % k) % k == 0
                events = events | (forced & self._revocable & (counts > 0))
            revocations += int(events.sum())
            if evented and events.any():
                # Interval-level revocations have no warning window to act
                # in: replacements boot after startup_seconds, so each
                # warning resolves immediately as completed.
                for i in np.flatnonzero(events):
                    wid = ev.open_warning(
                        f"m{int(i)}",
                        market=int(i),
                        servers=int(counts[i]),
                        capacity_rps=float(counts[i] * self.capacities[i]),
                    )
                    ev.resolve_warning(
                        wid,
                        outcome="completed",
                        replacement_boot_s=self.startup_seconds,
                    )

            # Transaction cost: servers added this interval bill from launch
            # but serve nothing during the startup delay — both the extra
            # dollars and the missing capacity are charged.  The first
            # interval bootstraps free (every policy starts a fleet then).
            if t > 0:
                started = np.maximum(0, counts - prev_counts)
                boot_cost = float((started * prices).sum()) * (
                    self.startup_seconds / SECONDS_PER_HOUR
                )
                prov_cost += boot_cost
                interval_costs[t] += boot_cost
                boot_capacity = float((started * self.capacities).sum())
            else:
                boot_capacity = 0.0
            prev_counts = counts

            # Revoked markets lose their servers at a uniform point in the
            # interval; replacements come up startup_seconds later.
            cut_frac = rng.uniform(size=N)
            gap_frac = np.minimum(self.startup_seconds / interval_s, 1.0 - cut_frac)
            run_frac = np.where(events, 1.0 - gap_frac, 1.0)  # billed fraction

            capacity_full = float(counts @ self.capacities)
            lost_capacity = float((counts * self.capacities)[events].sum())

            # Cost: server-hours actually consumed at this interval's price.
            cost_t = float((counts * prices * run_frac).sum()) * interval_h
            prov_cost += cost_t
            interval_costs[t] += cost_t

            # Shortfall accrues in three (approximately disjoint) phases:
            # the boot window at the interval start (new servers not yet
            # serving), the post-revocation replacement gap, and the rest of
            # the interval with the full fleet.
            surviving = capacity_full - lost_capacity
            gap_mean = float(gap_frac[events].mean()) if events.any() else 0.0
            boot_phase = boot_frac if boot_capacity > 0 else 0.0
            rest_phase = max(0.0, 1.0 - gap_mean - boot_phase)
            short_boot = (
                max(0.0, demand - (capacity_full - boot_capacity)) * boot_phase
            )
            short_gap = max(0.0, demand - surviving) * gap_mean
            short_base = max(0.0, demand - capacity_full) * rest_phase
            shortfall_rps = min(short_boot + short_gap + short_base, demand)
            unserved += shortfall_rps * interval_s
            total_requests += demand * interval_s
            # P is priced per unit rate per interval, the same units as the
            # per-request provisioning cost C = price / r (Sec. 4.2/6: P is
            # "double the maximum cost to serve a request", where that cost
            # is ondemand_price / capacity_rps).
            sla_cost += self.cost_model.penalty * shortfall_rps * interval_h

            counts_out[t] = counts
            capacity_out[t] = capacity_full
            demand_out[t] = demand
            # Time-weighted serving capacity across the three phases — the
            # effective rate the latency estimate sees.
            capacity_eff_out[t] = (
                surviving * gap_mean
                + (capacity_full - boot_capacity) * boot_phase
                + capacity_full * rest_phase
            )
            observed = demand
            if evented:
                ev.emit(
                    "interval.plan",
                    demand_rps=demand,
                    capacity_rps=capacity_full,
                    servers=int(counts.sum()),
                    markets=int((counts > 0).sum()),
                    revoked=int(events.sum()),
                    shortfall_rps=float(shortfall_rps),
                    cost=float(interval_costs[t]),
                )
            if bus.enabled:
                if evented:
                    ev.emit(
                        "telemetry.fleet",
                        servers=int(counts.sum()),
                        by_market={
                            f"m{int(i)}": int(counts[i])
                            for i in np.flatnonzero(counts)
                        },
                    )
                bus.tick((t + 1) * interval_s, t)
            interval_span.__exit__(None, None, None)

        run_span.tag(revocations=revocations).__exit__(None, None, None)
        get_metrics().counter("sim.revocations").inc(revocations)
        get_metrics().counter("sim.intervals").inc(T)
        return SimulationReport(
            name=name,
            provisioning_cost=prov_cost,
            sla_penalty_cost=sla_cost,
            unserved_requests=unserved,
            total_requests=total_requests,
            revocation_events=revocations,
            decision_seconds=decision_time,
            interval_costs=interval_costs,
            counts=counts_out,
            capacity_rps=capacity_out,
            demand_rps=demand_out,
            p99_est_s=interval_p99(demand_out, capacity_eff_out, self.service_time),
        )
