"""Request-level server model.

A front-end server is a multi-worker FIFO queue: ``capacity_rps`` requests
per second at a base service time ``service_time`` implies a worker pool of
``capacity_rps * service_time`` parallel slots (the classic web-server
sizing identity).  Three behaviours the testbed experiment depends on:

- **Startup delay** — a freshly launched VM serves nothing until booted
  (measured "less than 1 minute" in the paper).
- **Cache warm-up** — a Memcached-backed server starts with a cold cache:
  service times begin inflated and decay to the base over the warm-up
  period (the paper measures 30–90 s).
- **Revocation** — a reclaimed server fails its queued and in-flight
  requests unless the load balancer migrated them away in time.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

import numpy as np

from repro.obs import get_events
from repro.simulator.des import Simulator
from repro.simulator.metrics import LatencyRecorder

__all__ = ["ServerPhase", "SimServer"]


class ServerPhase(enum.Enum):
    BOOTING = "booting"
    RUNNING = "running"
    DRAINING = "draining"  # revocation warning received: no new requests
    DEAD = "dead"


@dataclass
class _InFlight:
    arrived: float
    session_id: int | None


class SimServer:
    """A multi-worker FIFO web server inside the DES.

    Parameters
    ----------
    capacity_rps:
        Steady-state throughput with a warm cache.
    service_time:
        Mean request service time at the warm steady state (seconds).
    boot_seconds:
        Delay from construction to accepting traffic.
    warmup_seconds:
        Cold-cache warm-up length; service times start at
        ``cold_multiplier`` x base and decay linearly to 1x.
    cold_multiplier:
        Service-time inflation at the moment the server starts serving.
    queue_limit_seconds:
        Admission bound: arrivals that would wait longer are refused
        (the LB then retries elsewhere or drops).
    """

    def __init__(
        self,
        sim: Simulator,
        recorder: LatencyRecorder,
        *,
        server_id: int,
        capacity_rps: float,
        service_time: float = 0.1,
        boot_seconds: float = 0.0,
        warmup_seconds: float = 60.0,
        cold_multiplier: float = 3.0,
        queue_limit_seconds: float = 10.0,
        seed: int = 0,
        track_completions: bool = False,
    ) -> None:
        if capacity_rps <= 0 or service_time <= 0:
            raise ValueError("capacity_rps and service_time must be positive")
        if cold_multiplier < 1.0:
            raise ValueError("cold_multiplier must be >= 1")
        self.sim = sim
        self.recorder = recorder
        self.server_id = server_id
        self.capacity_rps = float(capacity_rps)
        self.service_time = float(service_time)
        self.boot_seconds = float(boot_seconds)
        self.warmup_seconds = float(warmup_seconds)
        self.cold_multiplier = float(cold_multiplier)
        self.queue_limit_seconds = float(queue_limit_seconds)
        self.workers = max(1, int(round(capacity_rps * service_time)))
        self._rng = np.random.default_rng(seed + server_id)
        self.phase = ServerPhase.BOOTING
        sim.fleet_epoch += 1
        self.launched_at = sim.now
        self._serving_since: float | None = None
        # Earliest idle time per worker slot, kept in heap order: slot [0]
        # frees first.  Slots are interchangeable, so only the multiset of
        # free times matters.
        self._worker_free = [0.0] * self.workers
        self._in_flight = 0
        self._completions = 0
        # Hybrid-engine support: remember pending completion events so a
        # request->fluid handoff can cancel them and re-absorb the work as
        # queue mass.  Off by default — the plain request-level path keeps
        # zero extra state.
        self._track_completions = bool(track_completions)
        self._pending_completions: list = []
        # A replacement launched inside a warning's causal scope boots
        # asynchronously; capture the cause now so the boot event links back.
        self._launch_cause = get_events().current_cause()
        if boot_seconds > 0:
            sim.schedule(boot_seconds, self._on_boot)
        else:
            self._on_boot()

    # ------------------------------------------------------------- lifecycle
    # Every write to ``phase`` or ``_serving_since`` bumps the simulator's
    # ``fleet_epoch``: the fluid tier's columns are a cache keyed on it.
    @property
    def serving_since(self) -> float | None:
        """Sim time the server started serving (``None`` until booted).

        Read-only: set it through :meth:`prewarm`, which tells the fluid
        tier its cached columns are stale.
        """
        return self._serving_since

    def prewarm(self, since: float) -> None:
        """Treat the cache as warming since ``since`` (e.g. a warm fleet)."""
        self._serving_since = float(since)
        self.sim.fleet_epoch += 1

    def _on_boot(self) -> None:
        if self.phase is ServerPhase.DEAD:
            return
        # A server drained while booting stays DRAINING: only a booting
        # server is promoted to RUNNING.
        if self.phase is ServerPhase.BOOTING:
            self.phase = ServerPhase.RUNNING
        self._serving_since = self.sim.now
        self.sim.fleet_epoch += 1
        self._worker_free = [self.sim.now] * self.workers
        ev = get_events()
        if ev.enabled:
            ev.emit(
                "server.boot",
                t=self.sim.now,
                cause=self._launch_cause,
                backend=self.server_id,
                capacity_rps=self.capacity_rps,
            )

    def drain(self) -> None:
        """Revocation warning: stop accepting new requests."""
        if self.phase in (ServerPhase.RUNNING, ServerPhase.BOOTING):
            self.phase = ServerPhase.DRAINING
            self.sim.fleet_epoch += 1

    def kill(self) -> int:
        """Server reclaimed: everything still queued/in-flight fails.

        Returns the number of requests lost.
        """
        lost = self._in_flight
        for _ in range(lost):
            self.recorder.record_failed(self.sim.now)
        self._in_flight = 0
        self.phase = ServerPhase.DEAD
        self.sim.fleet_epoch += 1
        return lost

    # -------------------------------------------------------------- serving
    @property
    def accepting(self) -> bool:
        return self.phase is ServerPhase.RUNNING

    @property
    def alive(self) -> bool:
        return self.phase is not ServerPhase.DEAD

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def _current_service_time(self) -> float:
        """Base service time inflated while the cache is cold."""
        if self._serving_since is None:
            mult = self.cold_multiplier
        elif self.warmup_seconds <= 0:
            mult = 1.0
        else:
            age = self.sim.now - self._serving_since
            frac = min(1.0, age / self.warmup_seconds)
            mult = self.cold_multiplier + (1.0 - self.cold_multiplier) * frac
        # Exponential service-time variation around the (possibly inflated)
        # mean: the M/G/k workhorse of web-serving models.
        return float(self._rng.exponential(self.service_time * mult))

    def expected_wait(self) -> float:
        """Time a new arrival would wait for a worker slot (admission test).

        Draining servers still report their queue state: migrated requests
        may legitimately land on them during the warning window.
        """
        if self.phase in (ServerPhase.DEAD, ServerPhase.BOOTING):
            return float("inf")
        return max(0.0, self._worker_free[0] - self.sim.now)

    def utilization(self) -> float:
        """Instantaneous busy fraction of the worker pool."""
        if self.phase not in (ServerPhase.RUNNING, ServerPhase.DRAINING):
            return 0.0
        now = self.sim.now
        return sum(1 for free in self._worker_free if free > now) / self.workers

    def submit(
        self,
        session_id: int | None = None,
        *,
        migrated: bool = False,
        service_scale: float = 1.0,
    ) -> bool:
        """Accept one request; returns False when refused.

        ``migrated`` requests (failed over from a revoked server) are
        accepted even while draining — they must land somewhere.
        ``service_scale`` multiplies the sampled service time; the cluster
        uses it for long-running request classes (the ``L`` of Eq. 4 —
        requests too long to finish inside a revocation warning window).
        """
        if service_scale <= 0:
            raise ValueError("service_scale must be positive")
        if self.phase is ServerPhase.DEAD:
            return False
        if self.phase is ServerPhase.BOOTING:
            return False
        if self.phase is ServerPhase.DRAINING and not migrated:
            return False
        wait = self.expected_wait()
        if wait > self.queue_limit_seconds:
            return False
        start = max(self.sim.now, self._worker_free[0])
        finish = start + self._current_service_time() * service_scale
        heapq.heapreplace(self._worker_free, finish)
        self._in_flight += 1
        arrived = self.sim.now
        event = self.sim.schedule_at(finish, self._complete, arrived)
        if self._track_completions:
            self._remember(event)
        return True

    # ---------------------------------------------------- hybrid handoffs
    def _remember(self, event) -> None:
        """Track a completion event, compacting fired ones amortized."""
        pending = self._pending_completions
        pending.append(event)
        if len(pending) > 2 * self._in_flight + 64:
            now = self.sim.now
            self._pending_completions = [
                e for e in pending if not e.cancelled and e.time > now
            ]

    def materialize(self, count: int) -> int:
        """Admit ``count`` in-flight requests handed off from the fluid tier.

        Fills worker slots exactly like :meth:`submit` but without the
        admission test (the fluid tier already admitted this work), with
        every request arrival-stamped *now*: an exponential's remaining
        service time is again exponential (memorylessness), so redrawing
        full service times for materialized work is distribution-correct.
        Returns the number actually admitted — 0 while booting or dead,
        so the caller can leave that mass in the fluid tier.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if self.phase in (ServerPhase.DEAD, ServerPhase.BOOTING):
            return 0
        now = self.sim.now
        slots = self._worker_free
        for _ in range(count):
            start = max(now, slots[0])
            finish = start + self._current_service_time()
            heapq.heapreplace(slots, finish)
            self._in_flight += 1
            event = self.sim.schedule_at(finish, self._complete, now)
            if self._track_completions:
                self._remember(event)
        return count

    def absorb(self) -> int:
        """Cancel pending completions and return the in-flight count.

        The request->fluid handoff: the returned count becomes queue mass
        in the fluid tier, worker slots reset to idle.  Requires
        ``track_completions=True`` at construction.
        """
        if not self._track_completions:
            raise RuntimeError(
                "absorb() needs completion tracking; construct the server "
                "with track_completions=True"
            )
        now = self.sim.now
        absorbed = 0
        for event in self._pending_completions:
            if not event.cancelled and event.time > now:
                event.cancel()
                absorbed += 1
        self._pending_completions.clear()
        self._in_flight -= absorbed
        self._worker_free = [now] * self.workers
        return absorbed

    def _complete(self, arrived: float) -> None:
        if self.phase is ServerPhase.DEAD:
            return  # already counted as failed by kill()
        self._in_flight -= 1
        self._completions += 1
        self.recorder.record_served(self.sim.now, self.sim.now - arrived)
