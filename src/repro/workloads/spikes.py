"""Spike injection for workload traces."""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.trace import WorkloadTrace

__all__ = ["SpikeSpec", "inject_spikes"]


@dataclass(frozen=True)
class SpikeSpec:
    """Shape of a flash-crowd spike.

    A spike ramps up over ``ramp_intervals``, holds the peak multiplier for
    ``hold_intervals``, then decays geometrically — the canonical flash-crowd
    profile from the elasticity literature the paper cites.
    """

    start: int
    magnitude: float  # peak multiplier over the underlying rate, e.g. 2.0
    ramp_intervals: int = 1
    hold_intervals: int = 1
    decay: float = 0.5  # per-interval geometric decay of the excess

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.magnitude < 1.0:
            raise ValueError("magnitude must be >= 1 (a multiplier)")
        if self.ramp_intervals < 1 or self.hold_intervals < 0:
            raise ValueError("invalid spike shape")
        if not 0 < self.decay < 1:
            raise ValueError("decay must be in (0, 1)")


def inject_spikes(
    trace: WorkloadTrace, spikes: list[SpikeSpec]
) -> WorkloadTrace:
    """Return a new trace with the given spikes superimposed."""
    rates = trace.rates.copy()
    n = rates.size
    for spec in spikes:
        if spec.start >= n:
            continue
        excess_peak = (spec.magnitude - 1.0) * rates[spec.start]
        # Ramp up.
        for k in range(spec.ramp_intervals):
            t = spec.start + k
            if t >= n:
                break
            rates[t] += excess_peak * (k + 1) / spec.ramp_intervals
        # Hold.
        for k in range(spec.hold_intervals):
            t = spec.start + spec.ramp_intervals + k
            if t >= n:
                break
            rates[t] += excess_peak
        # Decay.
        excess = excess_peak
        t = spec.start + spec.ramp_intervals + spec.hold_intervals
        while t < n and excess > 0.01 * excess_peak:
            excess *= spec.decay
            rates[t] += excess
            t += 1
    return WorkloadTrace(rates, trace.interval_seconds, trace.name)
