"""Figure 4(b–d): intelligent over-provisioning via CI-padded prediction.

Walk-forward evaluation over a three-week Wikipedia-like trace: warm both
predictors for two weeks, then predict one interval ahead for the rest.

- Fig. 4(c): the baseline [Ali-Eldin et al. 2014] point predictor — the
  error distribution is roughly symmetric, so it under-provisions about
  half the time (paper: max under-provisioning 16.1%).
- Fig. 4(d): SpotWeb, which provisions against the 99% CI upper bound — the
  distribution shifts to over-provisioning (paper: ~15% average over, 40%
  max over, max under-provisioning 3.2%).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.predictors import BaselinePredictor, SplinePredictor
from repro.predictors.metrics import (
    ProvisioningErrorStats,
    error_histogram,
    provisioning_error_stats,
    relative_errors,
)
from repro.workloads import WorkloadTrace, wikipedia_like

__all__ = ["PredictorEval", "run_fig4bcd", "format_fig4bcd"]


@dataclass
class PredictorEval:
    """Walk-forward evaluation of one capacity-targeting predictor."""

    name: str
    actual: np.ndarray
    provisioned: np.ndarray
    stats: ProvisioningErrorStats

    @property
    def errors(self) -> np.ndarray:
        return relative_errors(self.actual, self.provisioned)

    def histogram(self, bins: int = 40) -> tuple[np.ndarray, np.ndarray]:
        return error_histogram(self.errors, bins=bins)


def _walk_forward(
    predictor, trace: WorkloadTrace, warmup: int, *, use_upper: bool
) -> tuple[np.ndarray, np.ndarray]:
    preds, actuals = [], []
    for t in range(len(trace)):
        if t >= warmup:
            result = predictor.predict(1)
            target = result.upper[0] if use_upper else result.mean[0]
            preds.append(float(target))
            actuals.append(float(trace.rates[t]))
        predictor.observe(float(trace.rates[t]))
    return np.asarray(actuals), np.asarray(preds)


def run_fig4bcd(
    *,
    trace: WorkloadTrace | None = None,
    weeks: int = 3,
    warmup_days: int = 14,
    seed: int = 0,
) -> dict[str, PredictorEval]:
    """Evaluate SpotWeb's padded predictor against the 2014 baseline."""
    if trace is None:
        trace = wikipedia_like(weeks, seed=seed)
    per_day = trace.intervals_per_day
    warmup = warmup_days * per_day

    out: dict[str, PredictorEval] = {}
    for name, predictor, use_upper in (
        ("baseline", BaselinePredictor(per_day), False),
        ("spotweb", SplinePredictor(per_day), True),
    ):
        actual, provisioned = _walk_forward(
            predictor, trace, warmup, use_upper=use_upper
        )
        out[name] = PredictorEval(
            name=name,
            actual=actual,
            provisioned=provisioned,
            stats=provisioning_error_stats(actual, provisioned),
        )
    return out


def format_fig4bcd(results: dict[str, PredictorEval]) -> str:
    from repro.textfmt import format_histogram, format_table

    rows = [
        [name, *ev.stats.as_row().values()]
        for name, ev in results.items()
    ]
    table = format_table(
        ["predictor", "mean_over_%", "max_over_%", "mean_under_%", "max_under_%", "frac_under_%"],
        rows,
        title="Fig 4(b-d): provisioning error, 1-step-ahead, CI padding vs point",
    )
    parts = [table]
    for name, ev in results.items():
        edges, counts = ev.histogram(bins=20)
        parts.append("")
        parts.append(
            format_histogram(
                edges, counts, title=f"relative error distribution: {name}"
            )
        )
    return "\n".join(parts)
