"""Ridge-regression workload predictor.

One of the "state-of-the-art open sourced prediction algorithms" the paper
ships alongside its spline predictor.  Direct multi-step strategy: for each
horizon ``h`` a separate ridge regression maps calendar features (hour-of-
day Fourier terms, weekend flag) plus recent lags to the demand ``h`` steps
ahead.  Closed-form normal-equation fit over a moving window; confidence
bounds from per-horizon residual quantiles, so the predictor plugs into the
same CI-upper-bound provisioning as the spline.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.normal import ndtri
from repro.predictors.base import PredictionResult, WorkloadPredictor

__all__ = ["RidgePredictor"]


class RidgePredictor(WorkloadPredictor):
    """Direct multi-step ridge regression on calendar + lag features.

    Parameters
    ----------
    intervals_per_day:
        Observations per day (24 for hourly traces).
    window_days:
        Moving training window.
    lags:
        Number of most recent observations used as features.
    l2:
        Ridge regularization strength.
    refit_every:
        Refit cadence in observations (the normal equations are cheap but
        not free).
    """

    def __init__(
        self,
        intervals_per_day: int = 24,
        *,
        window_days: int = 14,
        lags: int = 6,
        l2: float = 1.0,
        confidence: float = 0.99,
        max_horizon: int = 24,
        refit_every: int = 1,
    ) -> None:
        if intervals_per_day < 1 or window_days < 1:
            raise ValueError("intervals_per_day/window_days must be >= 1")
        if lags < 1:
            raise ValueError("lags must be >= 1")
        if l2 <= 0:
            raise ValueError("l2 must be positive")
        if not 0 < confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        if refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        self.intervals_per_day = int(intervals_per_day)
        self.window = int(window_days * intervals_per_day)
        self.lags = int(lags)
        self.l2 = float(l2)
        self.confidence = float(confidence)
        self.max_horizon = int(max_horizon)
        self.refit_every = int(refit_every)
        self._history: deque[float] = deque(maxlen=self.window)
        self._t = 0
        self._weights: list[np.ndarray | None] = [None] * self.max_horizon
        self._resid_q: list[float] = [0.0] * self.max_horizon

    # --------------------------------------------------------------- features
    def _calendar_features(self, t: int) -> np.ndarray:
        """Fourier hour-of-day terms + weekend indicator + bias."""
        per_day = self.intervals_per_day
        hour_frac = (t % per_day) / per_day
        day = (t // per_day) % 7
        return np.array(
            [
                1.0,
                np.sin(2 * np.pi * hour_frac),
                np.cos(2 * np.pi * hour_frac),
                np.sin(4 * np.pi * hour_frac),
                np.cos(4 * np.pi * hour_frac),
                1.0 if day >= 5 else 0.0,
            ]
        )

    def _row(self, t: int, series: np.ndarray, idx: int) -> np.ndarray:
        """Feature row for predicting index ``idx + h`` from data up to ``idx``."""
        lag_vals = series[idx - self.lags + 1 : idx + 1]
        return np.concatenate([self._calendar_features(t), lag_vals])

    # -------------------------------------------------------------------- fit
    def _refit(self) -> None:
        n = len(self._history)
        if n < self.lags + 2 * self.max_horizon:
            return
        series = np.asarray(self._history, dtype=np.float64)
        start_t = self._t - n
        for h in range(1, self.max_horizon + 1):
            rows, ys = [], []
            for idx in range(self.lags - 1, n - h):
                target_t = start_t + idx + h
                rows.append(self._row(target_t, series, idx))
                ys.append(series[idx + h])
            if len(rows) < 8:
                continue
            X = np.asarray(rows)
            y = np.asarray(ys)
            d = X.shape[1]
            w = np.linalg.solve(X.T @ X + self.l2 * np.eye(d), X.T @ y)
            resid = y - X @ w
            self._weights[h - 1] = w
            self._resid_q[h - 1] = float(resid.std())

    # ----------------------------------------------------------------- stream
    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0:
            raise ValueError("workload must be non-negative")
        self._history.append(value)
        self._t += 1
        if self._t % self.refit_every == 0:
            self._refit()

    def predict(self, horizon: int) -> PredictionResult:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if horizon > self.max_horizon:
            raise ValueError(f"horizon exceeds max_horizon={self.max_horizon}")
        n = len(self._history)
        if n < self.lags or self._weights[0] is None:
            last = self._history[-1] if self._history else 0.0
            mean = np.full(horizon, float(last))
            pad = 0.2 * np.abs(mean) + 1.0
            return PredictionResult(mean, np.clip(mean - pad, 0, None), mean + pad)
        series = np.asarray(self._history, dtype=np.float64)
        z = ndtri(0.5 + self.confidence / 2.0)
        mean = np.empty(horizon)
        band = np.empty(horizon)
        for h in range(1, horizon + 1):
            w = self._weights[h - 1]
            if w is None:
                mean[h - 1] = series[-1]
                band[h - 1] = 0.2 * series[-1]
                continue
            row = self._row(self._t - 1 + h, series, n - 1)
            mean[h - 1] = max(0.0, float(row @ w))
            band[h - 1] = z * self._resid_q[h - 1]
        return PredictionResult(
            mean, np.clip(mean - band, 0.0, None), mean + band, self.confidence
        )
