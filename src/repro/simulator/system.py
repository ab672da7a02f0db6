"""The full SpotWeb system in one closed loop — the prototype, simulated.

Everything in Fig. 2 wired together inside the discrete-event simulator:

- the **controller** re-optimizes the portfolio every control interval from
  monitored workload/price/failure feeds;
- the **transient cloud** leases VMs (startup delay), issues revocation
  warnings, reclaims after the warning window, and bills at market prices;
- the **monitoring hub** aggregates the feeds and relays warnings;
- the **transiency-aware load balancer** routes request-level traffic,
  drains doomed servers, migrates sessions, and requests replacements;
- **request-level servers** queue and serve the actual traffic, with boot
  and cache warm-up behaviour.

The interval-level :class:`~repro.simulator.runner.CostSimulator` answers
"what does a policy cost over months"; this module answers "does the whole
machine actually hold latency through real revocations" — the role the EC2
testbed plays in the paper.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.core.controller import SpotWebController
from repro.devtools.contracts import field_units, units
from repro.loadbalancer.transiency import TransiencyAwareLoadBalancer
from repro.markets.cloud import TransientCloud, VMInstance
from repro.markets.dataset import MarketDataset
from repro.markets.revocation import CorrelatedRevocationSampler
from repro.monitoring import MonitoringHub
from repro.obs import get_events
from repro.simulator.des import Simulator
from repro.simulator.hybrid import TIER_FLUID, TIER_REQUEST
# Unused here, but benchmarks/e2e/test_harness.py asserts its ledger rebinds it.
from repro.simulator.hybrid import materialize_fleet  # noqa: F401
from repro.simulator.metrics import LatencyRecorder
from repro.simulator.server import SimServer
from repro.workloads.trace import WorkloadTrace

__all__ = ["SystemConfig", "SystemReport", "SpotWebSystem"]

logger = logging.getLogger(__name__)


@field_units(
    interval_seconds="s",
    warning_seconds="s",
    startup_seconds="s",
    service_time="s",
    warmup_seconds="s",
    queue_limit_seconds="s",
    slo_threshold="s",
    drain_before_terminate_seconds="s",
)
@dataclass
class SystemConfig:
    """Timing and service parameters of the closed-loop run.

    ``interval_seconds`` is the control/billing interval in *simulated*
    time; runs typically compress the paper's hourly cadence so that a
    multi-interval scenario stays cheap to simulate at request level.
    """

    interval_seconds: float = 600.0
    warning_seconds: float = 120.0
    startup_seconds: float = 55.0
    service_time: float = 0.1
    warmup_seconds: float = 60.0
    cold_multiplier: float = 2.0
    queue_limit_seconds: float = 4.0
    slo_threshold: float = 1.0
    drain_before_terminate_seconds: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if self.warning_seconds < 0 or self.startup_seconds < 0:
            raise ValueError("durations must be non-negative")


@field_units(total_cost="usd")
@dataclass
class SystemReport:
    """Outcome of a closed-loop run."""

    recorder: LatencyRecorder
    total_cost: float
    revocation_events: int
    fleet_timeline: list[tuple[float, int, float]] = field(default_factory=list)
    # entries are (sim_time, live_server_count, live_capacity_rps)
    interval_observed_rps: list[float] = field(default_factory=list)
    # cloud ticks per tier, keyed like HybridClusterSimulation.tier_steps;
    # the closed loop runs every tick at request level, so "fluid" stays 0
    tier_steps: dict[str, int] = field(default_factory=dict)

    def summary(self) -> dict[str, float]:
        out = self.recorder.summary()
        out["total_cost"] = self.total_cost
        out["revocations"] = float(self.revocation_events)
        return out


class SpotWebSystem:
    """Closed-loop SpotWeb: controller + cloud + LB + request-level servers.

    Parameters
    ----------
    controller:
        A configured :class:`SpotWebController`; its market list must match
        the dataset's columns.
    dataset:
        Market weather — one row of prices/failure probabilities per control
        interval.
    config:
        Timing/service parameters.
    """

    def __init__(
        self,
        controller: SpotWebController,
        dataset: MarketDataset,
        config: SystemConfig | None = None,
    ) -> None:
        if [m.name for m in controller.markets] != [
            m.name for m in dataset.markets
        ]:
            raise ValueError("controller and dataset markets must match")
        self.controller = controller
        self.dataset = dataset
        self.config = config or SystemConfig()
        self.markets = list(controller.markets)

        self.sim = Simulator()
        # keep_raw: system-level reports use exact percentile/window arrays.
        self.recorder = LatencyRecorder(
            slo_threshold=self.config.slo_threshold, keep_raw=True
        )
        self.monitor = MonitoringHub(self.markets)
        # halog-style application statistics: the feed the paper's workload
        # predictor polls over REST.
        from repro.loadbalancer.stats import BalancerStats

        self.stats = BalancerStats(window_seconds=self.config.interval_seconds)
        self.balancer = TransiencyAwareLoadBalancer(
            self.recorder,
            reprovision=self._reprovision,
        )
        self.monitor.on_warning(self.balancer.on_warning)
        self._interval_index = 0
        self.cloud = TransientCloud(
            warning_seconds=self.config.warning_seconds,
            startup_seconds=self.config.startup_seconds,
            price_fn=self._current_price,
        )
        self.cloud.on_warning(self._on_cloud_warning)
        self.cloud.on_termination(self._on_cloud_termination)

        self._sampler = CorrelatedRevocationSampler(
            dataset.event_covariance(), seed=self.config.seed
        )
        self._rng = np.random.default_rng(self.config.seed + 7)
        self._servers: dict[int, SimServer] = {}  # vm_id -> server
        self._vms: dict[int, VMInstance] = {}
        self._served_this_interval = 0.0
        self._revocations = 0
        self.tier_steps = {TIER_FLUID: 0, TIER_REQUEST: 0}
        self._fleet_timeline: list[tuple[float, int, float]] = []
        self._observed: list[float] = []

    # ------------------------------------------------------------ price feed
    def _current_price(self, market, _now: float) -> float:
        t = min(self._interval_index, self.dataset.num_intervals - 1)
        j = next(
            i for i, m in enumerate(self.markets) if m.name == market.name
        )
        return float(self.dataset.prices[t, j])

    # ------------------------------------------------------------- VM <-> LB
    def _launch(self, market_index: int, count: int) -> None:
        market = self.markets[market_index]
        vms = self.cloud.request(market, count, self.sim.now)
        for vm in vms:
            server = SimServer(
                self.sim,
                self.recorder,
                server_id=vm.vm_id,
                capacity_rps=market.capacity_rps,
                service_time=self.config.service_time,
                boot_seconds=self.config.startup_seconds,
                warmup_seconds=self.config.warmup_seconds,
                cold_multiplier=self.config.cold_multiplier,
                queue_limit_seconds=self.config.queue_limit_seconds,
                seed=self.config.seed,
            )
            self._servers[vm.vm_id] = server
            self._vms[vm.vm_id] = vm
            self.balancer.add_backend(server)

    def _terminate_surplus(self, victims: list[VMInstance]) -> None:
        """Relinquish servers (drain, then release).

        Only booting or running servers may be victims.  One already
        draining under a revocation warning is reclaimed at its deadline;
        releasing it earlier would fail the requests it is still finishing.
        """
        for vm in victims:
            server = self._servers[vm.vm_id]
            server.drain()
            self.balancer.wrr.remove(server.server_id)
            delay = self.config.drain_before_terminate_seconds
            self.sim.schedule(delay, self._release, vm.vm_id)

    def _release(self, vm_id: int) -> None:
        vm = self._vms.get(vm_id)
        if vm is None or not vm.alive:
            return
        self.cloud.terminate(vm, self.sim.now)

    def _on_cloud_warning(self, vm: VMInstance, now: float) -> None:
        ev = get_events()
        if ev.enabled:
            server = self._servers.get(vm.vm_id)
            ev.open_warning(
                vm.vm_id,
                t=now,
                capacity_rps=(
                    0.0 if server is None else server.capacity_rps
                ),
            )
        self.monitor.relay_warning(vm.vm_id, now)
        deadline = vm.warning_deadline or (now + self.config.warning_seconds)
        self.sim.schedule_at(deadline, self._kill_server, vm.vm_id)

    def _on_cloud_termination(self, vm: VMInstance, _now: float) -> None:
        self._kill_server(vm.vm_id)

    def _kill_server(self, vm_id: int) -> None:
        server = self._servers.get(vm_id)
        if server is not None and server.alive:
            lost = server.kill()
            self.balancer.remove_backend(vm_id)
            ev = get_events()
            if ev.enabled:
                wid = ev.warning_for(vm_id)
                ev.emit(
                    "server.killed",
                    t=self.sim.now,
                    cause=wid,
                    backend=vm_id,
                    lost=lost,
                )
                ev.resolve_warning(wid, t=self.sim.now, lost=lost)
        self._fleet_timeline.append(
            (self.sim.now, self._live_count(), self._live_capacity())
        )

    @units("req/s", "s")
    def _reprovision(self, lost_capacity: float, _now: float) -> None:
        """LB asks for emergency replacement capacity: cheapest market now."""
        t = min(self._interval_index, self.dataset.num_intervals - 1)
        per_request = self.dataset.prices[t] / self.dataset.capacities
        j = int(np.argmin(per_request))
        count = max(1, int(np.ceil(lost_capacity / self.markets[j].capacity_rps)))
        logger.debug(
            "reprovision: %.0f rps lost -> %d x %s at t=%.1f",
            lost_capacity,
            count,
            self.markets[j].name,
            self.sim.now,
        )
        self._launch(j, count)

    def _live_count(self) -> int:
        return sum(1 for s in self._servers.values() if s.alive)

    @units(ret="req/s")
    def _live_capacity(self) -> float:
        return float(
            sum(s.capacity_rps for s in self._servers.values() if s.alive)
        )

    # ------------------------------------------------------------ the loop
    def _control_step(self, trace: WorkloadTrace, t: int) -> None:
        cfg = self.config
        now = self.sim.now
        observed = self._served_this_interval / cfg.interval_seconds
        if t == 0:
            # Bootstrap: no measurements yet; use the trace's first rate.
            observed = float(trace.rates[0])
        self._served_this_interval = 0
        self._observed.append(observed)

        self.monitor.ingest_prices(self.dataset.prices[t])
        self.monitor.ingest_failure_probs(self.dataset.failure_probs[t])
        self.monitor.ingest_workload(observed)
        self.monitor.ingest_balancer_stats(self.stats.snapshot())
        snapshot = self.monitor.snapshot(now)

        decision = self.controller.step(
            snapshot.observed_rps, snapshot.prices, snapshot.failure_probs
        )

        # Reconcile the fleet market by market.
        for j, market in enumerate(self.markets):
            live = [
                vm
                for vm in self.cloud.live_vms(market)
                if self._servers[vm.vm_id].phase.value in ("booting", "running")
            ]
            target = int(decision.counts[j])
            if target > len(live):
                self._launch(j, target - len(live))
            elif target < len(live):
                self._terminate_surplus(live[: len(live) - target])
        self._fleet_timeline.append(
            (now, self._live_count(), self._live_capacity())
        )

        # Revocation weather for this interval: events at a random moment.
        events = self._sampler.sample(self.dataset.failure_probs[t])
        for j, hit in enumerate(events):
            if not hit or not self.markets[j].revocable:
                continue
            if not self.cloud.live_vms(self.markets[j]):
                continue
            self._revocations += 1
            offset = float(self._rng.uniform(0.1, 0.8)) * cfg.interval_seconds
            self.sim.schedule(
                offset, self.cloud.revoke_market, self.markets[j], now + offset
            )

    @units("req/s", "s")
    def _arrival(self, rate: float, t_end: float) -> None:
        if self.balancer.dispatch(self.sim.now):
            self._served_this_interval += 1
            # Coarse accepted-request record; per-request latencies land in
            # the recorder on completion, the stats hub tracks arrival flow.
            self.stats.record_served(self.sim.now, -1, 0.0)
        else:
            self.stats.record_unserved(self.sim.now)
        gap = float(self._rng.exponential(1.0 / max(rate, 1e-9)))
        if self.sim.now + gap < t_end:
            self.sim.schedule(gap, self._arrival, rate, t_end)

    def run(self, trace: WorkloadTrace, *, intervals: int | None = None) -> SystemReport:
        """Run the closed loop over ``intervals`` control intervals.

        ``trace.rates[t]`` is the offered request rate during interval ``t``
        (in requests/second of simulated time).  Every request is simulated
        individually; :class:`~repro.simulator.hybrid.HybridClusterSimulation`
        is the engine with a fluid tier.
        """
        cfg = self.config
        n = intervals if intervals is not None else len(trace)
        n = min(n, len(trace), self.dataset.num_intervals)
        if n < 1:
            raise ValueError("need at least one interval")
        ticks = 10
        for t in range(n):
            self._interval_index = t
            start = t * cfg.interval_seconds
            self.sim.run_until(start)
            self._control_step(trace, t)
            # Offered load for this interval.
            rate = float(trace.rates[t])
            first_gap = float(self._rng.exponential(1.0 / max(rate, 1e-9)))
            t_end = start + cfg.interval_seconds
            if start + first_gap < t_end:
                self.sim.schedule(first_gap, self._arrival, rate, t_end)
            # Progress the cloud state machine at a coarse tick.
            for k in range(1, ticks + 1):
                self.sim.run_until(start + k * cfg.interval_seconds / ticks)
                self.cloud.advance(self.sim.now)
            self.tier_steps[TIER_REQUEST] += ticks
        self.sim.run_until(n * cfg.interval_seconds)
        self.cloud.advance(self.sim.now)
        self.cloud.accrue(self.sim.now)
        return SystemReport(
            recorder=self.recorder,
            total_cost=self.cloud.total_cost(),
            revocation_events=self._revocations,
            fleet_timeline=self._fleet_timeline,
            interval_observed_rps=self._observed,
            tier_steps=dict(self.tier_steps),
        )
