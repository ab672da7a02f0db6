"""Vectorized fluid-flow tier of the hybrid simulation engine.

Instead of enqueueing every request through the DES heap, this tier keeps
**columnar per-server state** — NumPy arrays of capacity, worker count,
queue mass (requests in system, a float), and warm-up age across the whole
fleet — and advances it with a closed-form rate step per sim interval:

1. the offered rate is split across accepting servers in proportion to
   their capacity (what the WRR balancer converges to);
2. each server admits work up to its queue-limit room; one redistribution
   round retries overflow on servers with room left, the rest is dropped
   (mirroring the request-level LB's retry-then-drop);
3. queue mass flows out at the warm-up-adjusted service rate
   (``mass' = mass + admitted - min(mass + admitted, mu_eff * dt)``);
4. response-time quantiles come from an M/G/k-style approximation —
   deterministic backlog delay plus Sakasegawa's M/M/k queueing-delay
   term plus exponential service quantiles — discretized at the
   tail-heavy :data:`QUANTILE_EDGES` nodes and fed as *mass* into the
   existing :class:`~repro.obs.slo.LatencyDigest`/SLO pipeline.

The step is pure array math over ``S`` servers — no RNG, no Python loop
over requests — so a 500-server, 500k-RPS fleet advances in microseconds
per interval.  Request-level fidelity (revocation windows, drains, cache
warm-up transients) is the job of :mod:`repro.simulator.hybrid`, which
switches tiers and conserves in-flight work across the handoffs via
:meth:`FluidEngine.withdraw` / :meth:`FluidEngine.deposit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devtools.contracts import field_units, shapes, units
from repro.simulator.des import Simulator
from repro.simulator.server import ServerPhase, SimServer

__all__ = [
    "QUANTILE_EDGES",
    "FluidStep",
    "FluidEngine",
    "warm_multiplier",
    "split_offered",
    "stochastic_wait",
    "response_nodes",
]

#: Cumulative-probability edges of the per-step response-time nodes.  The
#: grid is tail-heavy: uniform deciles carry the body, then refining
#: slices to P99.75 pin the digest's P99 to the right exponential
#: quantile (a uniform grid would bias P99 low by most of a service time).
QUANTILE_EDGES: np.ndarray = np.array(
    [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
     0.94, 0.97, 0.985, 0.9925, 0.9975, 1.0]
)

#: Per-node request-mass fraction (interval widths of the edge grid).
_NODE_MASS: np.ndarray = np.diff(QUANTILE_EDGES)

#: Midpoint probability of each interval.
_NODE_PROBS: np.ndarray = (QUANTILE_EDGES[:-1] + QUANTILE_EDGES[1:]) / 2.0

#: Unit-mean exponential quantile at each node probability.
_NODE_EXP: np.ndarray = -np.log1p(-_NODE_PROBS)

# Utilization is clipped below 1 so the Sakasegawa term stays finite; at
# higher loads the deterministic backlog term takes over anyway.
_RHO_MAX = 0.995


@shapes(None, "(S,) f8", "(S,) f8", "(S,) f8", ret="(S,) f8")
@units("s", "s", "s")
def warm_multiplier(
    now: float,
    serving_since: np.ndarray,
    warmup_seconds: np.ndarray,
    cold_multiplier: np.ndarray,
) -> np.ndarray:
    """Cold-cache service-time multiplier per server at time ``now``.

    Linear decay from ``cold_multiplier`` to 1 over ``warmup_seconds``
    after ``serving_since`` — the columnar twin of
    ``SimServer._current_service_time``'s mean.  A not-yet-serving row
    (``serving_since`` in the future) reports the full cold multiplier.
    """
    age = now - serving_since
    safe_warmup = np.maximum(warmup_seconds, 1e-12)
    frac = np.clip(age / safe_warmup, 0.0, 1.0)
    frac = np.where(warmup_seconds > 0, frac, np.where(age >= 0, 1.0, 0.0))
    return cold_multiplier + (1.0 - cold_multiplier) * frac


@shapes(None, "(S,) f8", ret="(S,) f8")
def split_offered(total: float, weights: np.ndarray) -> np.ndarray:
    """Split an offered request mass across servers proportional to weight.

    This is the fluid limit of smooth weighted round-robin: over many
    requests each accepting backend receives its weight share.  Zero total
    weight returns zeros (the caller drops the mass, as the LB would).
    """
    denom = float(weights.sum())
    if denom <= 0:
        return np.zeros_like(weights)
    return total * (weights / denom)


@shapes("(S,) f8", "(S,) f8", "(S,) f8", ret="(S,) f8")
@units("frac", "s", None, ret="s")
def stochastic_wait(
    rho: np.ndarray, service_eff: np.ndarray, workers: np.ndarray
) -> np.ndarray:
    """Sakasegawa's M/M/k mean queueing-delay approximation per server.

    ``Wq = (S_eff / k) * rho^sqrt(2(k+1)) / (1 - rho)`` — exact for M/M/1,
    asymptotically right for large ``k``, and cheap enough to evaluate for
    the whole fleet per step.  ``rho`` is clipped to :data:`_RHO_MAX`.
    """
    r = np.clip(rho, 0.0, _RHO_MAX)
    k = np.maximum(workers, 1.0)
    return (service_eff / k) * r ** np.sqrt(2.0 * (k + 1.0)) / (1.0 - r)


@shapes("(S,) f8", "(S,) f8", ret="(S,K) f8")
@units("s", "s", ret="s")
def response_nodes(wait: np.ndarray, service_eff: np.ndarray) -> np.ndarray:
    """Response-time quantile nodes: wait plus exponential service quantiles.

    Row ``s`` holds the response time at each :data:`QUANTILE_EDGES`
    midpoint for server ``s``; node ``k`` carries ``_NODE_MASS[k]`` of the
    server's served mass when recorded into the digest.
    """
    return wait[:, None] + service_eff[:, None] * _NODE_EXP[None, :]


@field_units(
    t="s",
    dt="s",
    offered="req",
    served="req",
    dropped="req",
    latencies="s",
    queue_mass="req",
    max_rho="frac",
)
@dataclass
class FluidStep:
    """Outcome of one fluid rate step over the fleet."""

    t: float
    dt: float
    offered: float
    served: float
    dropped: float
    #: flattened per-(server, node) response times and their request mass
    latencies: np.ndarray
    weights: np.ndarray
    #: queue mass left in the system after the step
    queue_mass: float
    #: peak per-server utilization this step (fidelity-window trigger)
    max_rho: float


@field_units(
    offered_total="req",
    served_total="req",
    dropped_total="req",
    failed_total="req",
    deposited_total="req",
    withdrawn_total="req",
)
class FluidEngine:
    """Columnar fluid-flow state over a live :class:`SimServer` fleet.

    Queue mass is keyed by server id in :attr:`_mass` (the persistent
    truth); the columnar arrays are a cache of the fleet.  A server's
    columns change only when its ``phase`` or ``serving_since`` does, and
    every such write bumps ``sim.fleet_epoch``: ``SimServer.__init__``,
    ``_on_boot``, ``drain``, ``kill`` and ``prewarm``.  ``serving_since``
    is read-only so no caller can change it without that bump.
    :meth:`sync` therefore rebuilds only when ``(id(servers),
    len(servers), sim.fleet_epoch)`` differs from the last rebuild;
    :meth:`withdraw` and :meth:`deposit` edit mass outside the step and
    clear the key.  All mutating math lives in loop-free helpers — the
    hot path allocates nothing inside Python loops.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._synced: tuple[int, int, int] | None = None
        self._mass: dict[int, float] = {}
        self._order: list[int] = []
        self._cols: dict[str, np.ndarray] = {}
        # Conservation ledger (requests): offered + deposited must equal
        # served + dropped + failed + withdrawn + total_mass() at all times.
        self.offered_total = 0.0
        self.served_total = 0.0
        self.dropped_total = 0.0
        self.failed_total = 0.0
        self.deposited_total = 0.0
        self.withdrawn_total = 0.0

    # ----------------------------------------------------------- fleet sync
    @units(ret="req")
    def total_mass(self) -> float:
        """Queue mass currently held in the fluid tier (requests)."""
        return float(sum(self._mass.values()))

    @units(None, "s", ret="req")
    def sync(self, servers: dict[int, SimServer], now: float) -> float:
        """Reconcile columns with the live fleet; returns failed mass.

        Mass parked on a server that died since the last step is removed
        and returned so the caller can record it as failed requests (the
        fluid analogue of ``SimServer.kill`` failing in-flight work).
        An unchanged fleet returns 0.0 and keeps the current columns.
        """
        key = (id(servers), len(servers), self._sim.fleet_epoch)
        if key == self._synced:
            return 0.0
        self._synced = key
        order: list[int] = []
        capacity: list[float] = []
        workers: list[float] = []
        service: list[float] = []
        queue_limit: list[float] = []
        warmup: list[float] = []
        cold: list[float] = []
        since: list[float] = []
        draining: list[bool] = []
        failed = 0.0
        for sid in sorted(servers):
            server = servers[sid]
            if not server.alive:
                failed += self._mass.pop(sid, 0.0)
                continue
            order.append(sid)
            capacity.append(server.capacity_rps)
            workers.append(float(server.workers))
            service.append(server.service_time)
            queue_limit.append(server.queue_limit_seconds)
            warmup.append(server.warmup_seconds)
            cold.append(server.cold_multiplier)
            if server.serving_since is not None:
                since.append(server.serving_since)
            else:
                since.append(server.launched_at + server.boot_seconds)
            draining.append(server.phase is ServerPhase.DRAINING)
        for sid in sorted(set(self._mass) - set(order)):
            failed += self._mass.pop(sid)
        self._order = order
        self._cols = {
            "capacity": np.asarray(capacity, dtype=np.float64),
            "workers": np.asarray(workers, dtype=np.float64),
            "service": np.asarray(service, dtype=np.float64),
            "queue_limit": np.asarray(queue_limit, dtype=np.float64),
            "warmup": np.asarray(warmup, dtype=np.float64),
            "cold": np.asarray(cold, dtype=np.float64),
            "since": np.asarray(since, dtype=np.float64),
            "draining": np.asarray(draining, dtype=np.bool_),
            "mass": np.asarray(
                [self._mass.get(sid, 0.0) for sid in order], dtype=np.float64
            ),
        }
        self.failed_total += failed
        return failed

    # ------------------------------------------------------------ rate step
    @units("s", "s", "req/s")
    def step(self, now: float, dt: float, rate: float) -> FluidStep:
        """Advance the fleet by ``dt`` seconds of ``rate`` req/s traffic.

        Requires a :meth:`sync` against the current fleet first.  Returns
        the step outcome; queue mass is updated in place.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        offered = max(0.0, float(rate)) * dt
        self.offered_total += offered
        cols = self._cols
        if not self._order:
            self.dropped_total += offered
            return FluidStep(
                t=now, dt=dt, offered=offered, served=0.0, dropped=offered,
                latencies=np.zeros(0), weights=np.zeros(0),
                queue_mass=0.0, max_rho=0.0,
            )
        outcome = self._step_arrays(cols, now, dt, offered)
        new_mass = outcome["mass"]
        mass_list = new_mass.tolist()
        for sid, m in zip(self._order, mass_list):
            self._mass[sid] = m
        cols["mass"] = new_mass
        self.served_total += outcome["served"]
        self.dropped_total += outcome["dropped"]
        return FluidStep(
            t=now,
            dt=dt,
            offered=offered,
            served=outcome["served"],
            dropped=outcome["dropped"],
            latencies=outcome["latencies"],
            weights=outcome["weights"],
            queue_mass=float(new_mass.sum()),
            max_rho=outcome["max_rho"],
        )

    def _step_arrays(
        self, cols: dict[str, np.ndarray], now: float, dt: float, offered: float
    ) -> dict:
        """The loop-free array math of one step (see module docstring)."""
        mass = cols["mass"]
        mid = now + dt / 2.0
        mult = warm_multiplier(mid, cols["since"], cols["warmup"], cols["cold"])
        serving = cols["since"] <= mid
        mu = np.where(serving, cols["capacity"] / mult, 0.0)
        potential = mu * dt
        # Admission room: the request tier refuses arrivals whose expected
        # wait exceeds queue_limit, i.e. caps work-in-system at
        # workers + mu * queue_limit; work served during the step frees
        # room as it drains.
        mass_cap = cols["workers"] + mu * cols["queue_limit"]
        room = np.maximum(0.0, mass_cap - mass) + potential
        accepting = serving & ~cols["draining"]
        room = np.where(accepting, room, 0.0)
        weights = np.where(accepting, cols["capacity"], 0.0)
        offered_per = split_offered(offered, weights)
        admitted = np.minimum(offered_per, room)
        overflow = float((offered_per - admitted).sum())
        room_left = room - admitted
        retried = split_offered(overflow, room_left)
        retried = np.minimum(retried, room_left)
        admitted = admitted + retried
        dropped = max(0.0, offered - float(admitted.sum()))
        # Response-time model (from pre-step state, so it also bounds how
        # fast this step's admissions can drain).
        service_eff = cols["service"] * mult
        rho = np.where(potential > 0, admitted / np.maximum(potential, 1e-12), 0.0)
        backlog = np.where(
            mu > 0,
            np.maximum(0.0, mass - cols["workers"]) / np.maximum(mu, 1e-12),
            0.0,
        )
        wait = backlog + stochastic_wait(rho, service_eff, cols["workers"])
        total = mass + admitted
        # Little's-law carryover: work admitted uniformly over the step
        # cannot complete faster than its response time, so the trailing
        # R_mean's worth is still in system at the step boundary.  This
        # keeps steady-state mass at ~rate * response time — the true
        # in-system work — so a fluid->request handoff materializes real
        # utilization instead of an empty fleet (the balancer's
        # drain-vs-defer decision depends on it).
        response_mean = wait + service_eff
        residual = admitted * np.minimum(response_mean, dt) / dt
        served = np.minimum(total, potential)
        served = np.minimum(served, np.maximum(total - residual, 0.0))
        new_mass = total - served
        active = served > 1e-12
        nodes = response_nodes(wait[active], service_eff[active])
        node_w = served[active][:, None] * _NODE_MASS[None, :]
        return {
            "mass": new_mass,
            "served": float(served.sum()),
            "dropped": dropped,
            "latencies": nodes.ravel(),
            "weights": node_w.ravel(),
            "max_rho": float(rho.max()) if rho.size else 0.0,
        }

    # ------------------------------------------------------- tier handoffs
    def withdraw(self) -> dict[int, int]:
        """Materialization counts: the integer part of each server's mass.

        Decrements mass in place; sub-request residuals stay in the fluid
        tier (they re-enter the flow at the next fluid step), so total
        work is conserved exactly across the fluid-to-request handoff.
        """
        self._synced = None
        counts: dict[int, int] = {}
        for sid in sorted(self._mass):
            n = int(self._mass[sid])
            if n > 0:
                counts[sid] = n
                self._mass[sid] -= n
                self.withdrawn_total += n
        return counts

    def deposit(self, server_id: int, count: int) -> None:
        """Re-absorb ``count`` in-flight requests from the request tier."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        self._synced = None
        self._mass[server_id] = self._mass.get(server_id, 0.0) + count
        self.deposited_total += count

    @units(ret="req")
    def balance_error(self) -> float:
        """Absolute conservation error of the ledger (should be ~0)."""
        inflow = self.offered_total + self.deposited_total
        outflow = (
            self.served_total
            + self.dropped_total
            + self.failed_total
            + self.withdrawn_total
            + self.total_mass()
        )
        return abs(inflow - outflow)
