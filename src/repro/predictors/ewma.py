"""Exponentially-weighted moving-average workload predictor.

One of the drop-in alternates the paper's implementation ships ("we provide
implementations of multiple state-of-the-art open sourced prediction
algorithms that can be used instead of our predictor").
"""

from __future__ import annotations

import numpy as np

from repro.normal import ndtri
from repro.predictors.base import PredictionResult, WorkloadPredictor

__all__ = ["EWMAPredictor"]


class EWMAPredictor(WorkloadPredictor):
    """EWMA level forecast with an EWMA error band.

    ``alpha`` smooths the level, ``beta`` smooths the absolute error used for
    the confidence band (a Holt-style variance proxy).
    """

    def __init__(
        self, *, alpha: float = 0.3, beta: float = 0.1, confidence: float = 0.99
    ) -> None:
        if not 0 < alpha <= 1 or not 0 < beta <= 1:
            raise ValueError("alpha and beta must be in (0, 1]")
        if not 0 < confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.confidence = float(confidence)
        self._level: float | None = None
        self._abs_err = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0:
            raise ValueError("workload must be non-negative")
        if self._level is None:
            self._level = value
            return
        err = value - self._level
        self._abs_err = (1 - self.beta) * self._abs_err + self.beta * abs(err)
        self._level = (1 - self.alpha) * self._level + self.alpha * value

    def predict(self, horizon: int) -> PredictionResult:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        level = self._level if self._level is not None else 0.0
        mean = np.full(horizon, level)
        # 1.25 * mean absolute deviation approximates one standard deviation
        # for a normal error; grow with sqrt(horizon).
        z = ndtri(0.5 + self.confidence / 2.0)
        band = z * 1.25 * self._abs_err * np.sqrt(np.arange(1, horizon + 1))
        return PredictionResult(
            mean, np.clip(mean - band, 0.0, None), mean + band, self.confidence
        )
