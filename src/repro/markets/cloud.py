"""Transient cloud provider model.

Implements the provider-side contract the paper relies on:

- VMs are leased per market; spot VMs can be unilaterally revoked.
- A revocation arrives as an **advance warning** (30–120 s) followed by
  termination — the window the transiency-aware load balancer exploits.
- New VMs take a market-dependent startup delay before they can serve.
- Usage is billed per interval at the market's current price.

The class is clock-agnostic: every method takes an explicit ``now`` so it
composes with both the discrete-event simulator and the interval-level cost
runner.
"""

from __future__ import annotations

import enum
import itertools
import logging
from dataclasses import dataclass, field
from typing import Callable

from repro.devtools.contracts import field_units, units
from repro.markets.catalog import Market
from repro.units import SECONDS_PER_HOUR

__all__ = ["VMState", "VMInstance", "TransientCloud"]

logger = logging.getLogger(__name__)

DEFAULT_WARNING_SECONDS = 120.0
DEFAULT_STARTUP_SECONDS = 60.0


class VMState(enum.Enum):
    """Lifecycle of a leased VM."""

    STARTING = "starting"
    RUNNING = "running"
    WARNED = "warned"  # revocation warning received, still serving
    TERMINATED = "terminated"


@field_units(
    launched_at="s",
    ready_time="s",
    warned_at="s",
    warning_deadline="s",
    terminated_at="s",
    accrued_cost="usd",
    _billed_until="s",
)
@dataclass
class VMInstance:
    """One leased server.

    ``ready_time`` is when the VM can start serving (startup delay elapsed);
    ``warning_deadline`` is when a warned VM will be reclaimed.
    """

    vm_id: int
    market: Market
    launched_at: float
    ready_time: float
    state: VMState = VMState.STARTING
    warned_at: float | None = None
    warning_deadline: float | None = None
    terminated_at: float | None = None
    accrued_cost: float = 0.0
    _billed_until: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        self._billed_until = self.launched_at

    @property
    def alive(self) -> bool:
        return self.state is not VMState.TERMINATED

    @property
    def serving(self) -> bool:
        """True when the VM can take traffic (warned VMs still serve)."""
        return self.state in (VMState.RUNNING, VMState.WARNED)

    @units("s")
    def ready(self, now: float) -> bool:
        return self.alive and now >= self.ready_time


@field_units(warning_seconds="s", startup_seconds="s")
class TransientCloud:
    """A transient cloud: VM leases, revocation warnings, billing.

    Parameters
    ----------
    warning_seconds:
        Advance warning the provider gives before reclaiming a spot VM.
    startup_seconds:
        Time from lease to serving-ready (can be overridden per request to
        model slow application start / cache warm-up scenarios).
    price_fn:
        ``price_fn(market, now) -> $/hour``; defaults to the on-demand price,
        so tests can run without a price trace.
    """

    def __init__(
        self,
        *,
        warning_seconds: float = DEFAULT_WARNING_SECONDS,
        startup_seconds: float = DEFAULT_STARTUP_SECONDS,
        price_fn: Callable[[Market, float], float] | None = None,
    ) -> None:
        if warning_seconds < 0 or startup_seconds < 0:
            raise ValueError("durations must be non-negative")
        self.warning_seconds = float(warning_seconds)
        self.startup_seconds = float(startup_seconds)
        self.price_fn = price_fn or (lambda m, _now: m.instance.ondemand_price)
        self._vms: dict[int, VMInstance] = {}
        self._ids = itertools.count()
        self._warning_callbacks: list[Callable[[VMInstance, float], None]] = []
        self._termination_callbacks: list[Callable[[VMInstance, float], None]] = []

    # ------------------------------------------------------------------ leases
    @units(None, None, "s", startup_seconds="s")
    def request(
        self,
        market: Market,
        count: int,
        now: float,
        *,
        startup_seconds: float | None = None,
    ) -> list[VMInstance]:
        """Lease ``count`` VMs in a market; returns the new instances."""
        if count < 0:
            raise ValueError("count must be non-negative")
        delay = self.startup_seconds if startup_seconds is None else startup_seconds
        vms = []
        for _ in range(count):
            vm = VMInstance(
                vm_id=next(self._ids),
                market=market,
                launched_at=now,
                ready_time=now + delay,
            )
            self._vms[vm.vm_id] = vm
            vms.append(vm)
        return vms

    @units(None, "s")
    def terminate(self, vm: VMInstance, now: float) -> None:
        """User-initiated termination (bills up to ``now``)."""
        if vm.state is VMState.TERMINATED:
            return
        self._bill(vm, now)
        vm.state = VMState.TERMINATED
        vm.terminated_at = now
        for cb in self._termination_callbacks:
            cb(vm, now)

    # ------------------------------------------------------------- revocations
    def on_warning(self, callback: Callable[[VMInstance, float], None]) -> None:
        """Register a revocation-warning observer (the load balancer)."""
        self._warning_callbacks.append(callback)

    def on_termination(self, callback: Callable[[VMInstance, float], None]) -> None:
        """Register a termination observer."""
        self._termination_callbacks.append(callback)

    @units(None, "s")
    def revoke_market(self, market: Market, now: float) -> list[VMInstance]:
        """Provider revokes a market: warn every spot VM in it."""
        if not market.revocable:
            raise ValueError("cannot revoke an on-demand market")
        warned = []
        # A snapshot: a warning callback may lease a replacement, which
        # this revocation does not cover.
        for vm in list(self._vms.values()):
            if (
                vm.market.name == market.name
                and vm.state in (VMState.STARTING, VMState.RUNNING)
            ):
                vm.state = VMState.WARNED
                vm.warned_at = now
                vm.warning_deadline = now + self.warning_seconds
                warned.append(vm)
                for cb in self._warning_callbacks:
                    cb(vm, now)
        if warned:
            logger.debug(
                "revocation: market=%s warned=%d vms at t=%.1f",
                market.name,
                len(warned),
                now,
            )
        return warned

    @units(None, "s")
    def revoke_vm(self, vm: VMInstance, now: float) -> None:
        """Provider revokes a single VM (warning first)."""
        if not vm.market.revocable:
            raise ValueError("cannot revoke an on-demand VM")
        if vm.state not in (VMState.STARTING, VMState.RUNNING):
            return
        vm.state = VMState.WARNED
        vm.warned_at = now
        vm.warning_deadline = now + self.warning_seconds
        for cb in self._warning_callbacks:
            cb(vm, now)

    # ------------------------------------------------------------------- clock
    @units("s")
    def advance(self, now: float) -> list[VMInstance]:
        """Progress VM state machines to ``now``.

        Promotes STARTING→RUNNING VMs whose startup elapsed and reclaims
        WARNED VMs whose deadline passed.  Returns VMs terminated this call.
        """
        terminated = []
        for vm in self._vms.values():
            if vm.state is VMState.STARTING and now >= vm.ready_time:
                vm.state = VMState.WARNED if vm.warned_at is not None else VMState.RUNNING
            if vm.state is VMState.WARNED and vm.warning_deadline is not None:
                if now >= vm.warning_deadline:
                    self._bill(vm, vm.warning_deadline)
                    vm.state = VMState.TERMINATED
                    vm.terminated_at = vm.warning_deadline
                    terminated.append(vm)
                    for cb in self._termination_callbacks:
                        cb(vm, vm.warning_deadline)
        return terminated

    # ----------------------------------------------------------------- billing
    @units(None, "s")
    def _bill(self, vm: VMInstance, until: float) -> None:
        if until <= vm._billed_until:
            return
        hours = (until - vm._billed_until) / SECONDS_PER_HOUR
        vm.accrued_cost += hours * self.price_fn(vm.market, vm._billed_until)
        vm._billed_until = until

    @units("s")
    def accrue(self, now: float) -> None:
        """Bill all live VMs up to ``now`` at current prices."""
        for vm in self._vms.values():
            if vm.alive:
                self._bill(vm, now)

    @units(ret="usd")
    def total_cost(self) -> float:
        """Total accrued spend across all VMs (live and terminated)."""
        return float(sum(vm.accrued_cost for vm in self._vms.values()))

    # ------------------------------------------------------------------ lookup
    @property
    def vms(self) -> list[VMInstance]:
        return list(self._vms.values())

    def live_vms(self, market: Market | None = None) -> list[VMInstance]:
        """Live VMs, optionally restricted to one market."""
        out = [vm for vm in self._vms.values() if vm.alive]
        if market is not None:
            out = [vm for vm in out if vm.market.name == market.name]
        return out

    @units("s", ret="req/s")
    def serving_capacity(self, now: float) -> float:
        """Total requests/second the ready, serving VMs can sustain."""
        return float(
            sum(
                vm.market.capacity_rps
                for vm in self._vms.values()
                if vm.serving and vm.ready(now)
            )
        )
