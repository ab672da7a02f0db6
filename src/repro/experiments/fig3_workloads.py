"""Figure 3: the two workload traces.

The paper plots three weeks of the Wikipedia request rate (smooth, diurnal,
few spikes) and the TV4 VoD request rate (bursty, many spikes).  The
reproduction generates the synthetic equivalents and reports the summary
statistics that characterize the shapes the downstream experiments depend
on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads import WorkloadTrace, vod_like, wikipedia_like

__all__ = ["WorkloadCharacterization", "run_fig3", "format_fig3"]


@dataclass
class WorkloadCharacterization:
    """Shape statistics for one trace."""

    trace: WorkloadTrace
    mean_rps: float
    peak_rps: float
    peak_to_mean: float
    cv: float
    diurnal_strength: float  # share of variance explained by hour-of-day
    spike_count: int  # intervals exceeding 1.5x the local daily mean


def _characterize(trace: WorkloadTrace) -> WorkloadCharacterization:
    rates = trace.rates
    per_day = trace.intervals_per_day
    n_days = len(rates) // per_day
    stats = trace.stats()

    # Diurnal strength: variance of the mean daily profile over total var.
    trimmed = rates[: n_days * per_day].reshape(n_days, per_day)
    profile = trimmed.mean(axis=0)
    total_var = float(trimmed.var())
    diurnal = float(profile.var() / total_var) if total_var > 0 else 0.0

    # Spikes: intervals above 1.5x their own day's mean.
    day_means = trimmed.mean(axis=1, keepdims=True)
    spikes = int(np.sum(trimmed > 1.5 * day_means))

    return WorkloadCharacterization(
        trace=trace,
        mean_rps=stats["mean_rps"],
        peak_rps=stats["peak_rps"],
        peak_to_mean=stats["peak_to_mean"],
        cv=stats["cv"],
        diurnal_strength=diurnal,
        spike_count=spikes,
    )


def run_fig3(
    *, weeks: int = 3, seed: int = 0
) -> dict[str, WorkloadCharacterization]:
    """Generate both traces and characterize them."""
    return {
        "wikipedia": _characterize(wikipedia_like(weeks, seed=seed)),
        "vod": _characterize(vod_like(weeks, seed=seed)),
    }


def format_fig3(results: dict[str, WorkloadCharacterization]) -> str:
    from repro.textfmt import format_table

    rows = [
        [
            name,
            c.mean_rps,
            c.peak_rps,
            c.peak_to_mean,
            c.cv,
            c.diurnal_strength,
            c.spike_count,
        ]
        for name, c in results.items()
    ]
    return format_table(
        ["trace", "mean_rps", "peak_rps", "peak/mean", "cv", "diurnality", "spikes"],
        rows,
        title="Fig 3: workload traces (wikipedia-like smooth/diurnal; vod-like spiky)",
    )
