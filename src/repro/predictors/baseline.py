"""The prior-art predictor of [Ali-Eldin et al. 2014].

Same cubic-spline + AR(1) machinery as :class:`SplinePredictor`, but the
*point prediction* is the provisioning target — no confidence-interval
padding.  This is the algorithm the paper compares against in Fig. 4(c):
its errors are roughly symmetric, so it under-provisions about as often as
it over-provisions, which transiency turns into SLO violations.
"""

from __future__ import annotations

from repro.predictors.base import PredictionResult, WorkloadPredictor
from repro.predictors.spline import SplinePredictor

__all__ = ["BaselinePredictor"]


class BaselinePredictor(WorkloadPredictor):
    """Spline + AR(1) point predictor without CI-based padding."""

    def __init__(self, intervals_per_day: int = 24) -> None:
        # The inner predictor still tracks errors (used by its CI), but this
        # wrapper collapses bounds onto the mean: no padding.
        self._inner = SplinePredictor(intervals_per_day)

    def observe(self, value: float) -> None:
        self._inner.observe(value)

    def predict(self, horizon: int) -> PredictionResult:
        res = self._inner.predict(horizon)
        return PredictionResult(
            mean=res.mean,
            lower=res.mean,
            upper=res.mean,
            confidence=res.confidence,
        )
