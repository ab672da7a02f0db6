"""Seeded flash-crowd composition over workload traces.

:mod:`repro.workloads.spikes` shapes a *single* spike; the scenario suite
(:mod:`repro.scenarios`) needs whole flash-crowd *seasons* — many spikes
with randomized timing and shape layered onto the TV4-like bursty trace —
plus the slow demand ramps long-horizon drift scenarios pair with market
drift.  Both transforms are pure and fully determined by their arguments:
the same (trace, seed, knobs) always produces byte-identical rates.
"""

from __future__ import annotations

import numpy as np

from repro.units import SECONDS_PER_WEEK
from repro.workloads.spikes import SpikeSpec, inject_spikes
from repro.workloads.trace import WorkloadTrace

__all__ = ["compose_flash_crowds", "ramp_trace"]

# Each spike's ramp and hold lengths in intervals, drawn inclusively.
_RAMP_RANGE = (1, 3)
_HOLD_RANGE = (1, 4)


def compose_flash_crowds(
    trace: WorkloadTrace,
    *,
    count: int,
    seed: int,
    magnitude_range: tuple[float, float] = (1.5, 3.0),
    decay_range: tuple[float, float] = (0.3, 0.7),
) -> WorkloadTrace:
    """Superimpose ``count`` randomized flash crowds on a trace.

    Spike start times are drawn uniformly over the horizon and each
    spike's magnitude/ramp/hold/decay is drawn from its range,
    all from one ``seed``-keyed generator — rerunning with the same
    arguments reproduces the exact spike schedule.  Returns a new trace;
    the input is untouched.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lo_m, hi_m = magnitude_range
    if not 1.0 <= lo_m <= hi_m:
        raise ValueError("magnitude_range must satisfy 1 <= lo <= hi")
    lo_d, hi_d = decay_range
    if not 0.0 < lo_d <= hi_d < 1.0:
        raise ValueError("decay_range must lie inside (0, 1)")
    rng = np.random.default_rng(seed)
    n = trace.rates.size
    spikes = []
    for _ in range(count):
        spikes.append(
            SpikeSpec(
                start=int(rng.integers(0, n)),
                magnitude=float(rng.uniform(lo_m, hi_m)),
                ramp_intervals=int(
                    rng.integers(_RAMP_RANGE[0], _RAMP_RANGE[1] + 1)
                ),
                hold_intervals=int(
                    rng.integers(_HOLD_RANGE[0], _HOLD_RANGE[1] + 1)
                ),
                decay=float(rng.uniform(lo_d, hi_d)),
            )
        )
    # Deterministic composition order: earliest spike applied first, so
    # later spikes ride on the already-elevated rate (crowds compound).
    spikes.sort(key=lambda s: (s.start, s.magnitude))
    shaped = inject_spikes(trace, spikes)
    return WorkloadTrace(
        shaped.rates, shaped.interval_seconds, f"{trace.name}+flash{count}"
    )


def ramp_trace(
    trace: WorkloadTrace, *, growth_per_week: float
) -> WorkloadTrace:
    """Compound a slow weekly demand drift onto a trace.

    Positive ``growth_per_week`` models organic audience growth (the
    drift-scenario pairing for market drift); negative models decline.
    """
    if growth_per_week <= -1:
        raise ValueError("growth_per_week must be > -1")
    weeks = (
        np.arange(trace.rates.size, dtype=np.float64)
        * trace.interval_seconds
        / SECONDS_PER_WEEK
    )
    rates = trace.rates * (1.0 + growth_per_week) ** weeks
    return WorkloadTrace(rates, trace.interval_seconds, f"{trace.name}+ramp")
