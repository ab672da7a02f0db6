"""Cubic-spline workload predictor with AR(1) spikes and CI padding.

The predictor the paper deploys (Sec. 4.3), extended from [Ali-Eldin et al.
2014] with multi-horizon output and confidence-interval-based
over-provisioning:

1. Over a **two-week moving window**, fit a periodic **cubic smoothing
   spline** to the time-of-week profile — that captures the repeating
   diurnal/weekly shape.
2. Model the residual (what the seasonal shape misses — spikes, trends) with
   an **AR(1)** process; multi-horizon forecasts decay the last residual
   geometrically by the fitted coefficient.
3. Track realized prediction errors per horizon and derive the **99%
   confidence interval**; the interval's *upper bound* is the capacity
   target, which is what pads the system for both mispredictions and
   revocations.

The error tracker is self-correcting in the paper's sense: a run of
under-predictions widens the interval, automatically raising the padding.
"""

from __future__ import annotations

import logging
from collections import deque

import numpy as np

from repro.normal import ndtri
from repro.predictors.base import PredictionResult, WorkloadPredictor

__all__ = ["SplinePredictor"]

logger = logging.getLogger(__name__)

# Spline smoothing factor per observation (scaled by the window variance
# for ``splrep``); larger = smoother seasonal shape.
_SMOOTHING = 0.5
# Recent per-horizon errors kept for the CI estimate: one week of hourly
# intervals.
_ERROR_MEMORY = 168


class SplinePredictor(WorkloadPredictor):
    """Seasonal spline + AR(1) + empirical CI workload predictor.

    Parameters
    ----------
    intervals_per_day:
        Observations per day (24 for hourly traces).
    window_days:
        Moving-window length; the paper trains on two weeks.
    period_days:
        Seasonal period; 7 captures weekday/weekend structure, 1 a pure
        diurnal cycle.
    confidence:
        Confidence level; the upper bound of this interval is the
        over-provisioning target.
    """

    def __init__(
        self,
        intervals_per_day: int = 24,
        *,
        window_days: int = 14,
        period_days: int = 7,
        confidence: float = 0.99,
        max_horizon: int = 24,
    ) -> None:
        if intervals_per_day < 1 or window_days < 1 or period_days < 1:
            raise ValueError("intervals_per_day/window_days/period_days must be >= 1")
        if not 0 < confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        self.intervals_per_day = int(intervals_per_day)
        self.window = int(window_days * intervals_per_day)
        self.period = int(period_days * intervals_per_day)
        self.confidence = float(confidence)
        self.max_horizon = int(max_horizon)
        self._history: deque[float] = deque(maxlen=self.window)
        self._t = 0  # global interval counter
        # Pending predictions awaiting ground truth: list of (due_t, horizon,
        # predicted mean).  Errors feed the per-horizon CI estimator.
        self._pending: list[tuple[int, int, float]] = []
        self._errors: list[deque[float]] = [
            deque(maxlen=_ERROR_MEMORY) for _ in range(self.max_horizon)
        ]
        self._spline = None
        self._ar_coeff = 0.0
        self._last_residual = 0.0
        self._residual_std = 0.0

    # ----------------------------------------------------------------- stream
    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0:
            raise ValueError("workload must be non-negative")
        # Score any pending predictions that are now due.
        still_pending = []
        for due_t, h, mean in self._pending:
            if due_t == self._t:
                self._errors[h - 1].append(value - mean)
            elif due_t > self._t:
                still_pending.append((due_t, h, mean))
        self._pending = still_pending
        self._history.append(value)
        self._t += 1
        self._refit()

    # -------------------------------------------------------------------- fit
    def _refit(self) -> None:
        n = len(self._history)
        if n < max(8, self.intervals_per_day):
            self._spline = None
            return
        y = np.asarray(self._history, dtype=np.float64)
        # Phase of each window sample within the seasonal period.
        start_t = self._t - n
        phase = (np.arange(start_t, self._t) % self.period).astype(float)
        order = np.argsort(phase, kind="stable")
        xs, ys = phase[order], y[order]
        # Average duplicate phases so splrep sees strictly increasing x.
        ux, inv = np.unique(xs, return_inverse=True)
        uy = np.zeros_like(ux)
        counts = np.zeros_like(ux)
        np.add.at(uy, inv, ys)
        np.add.at(counts, inv, 1.0)
        uy /= counts
        if ux.size < 8:
            self._spline = None
            return
        s = _SMOOTHING * ux.size * max(np.var(uy), 1e-9)
        # FITPACK (and scipy.optimize under it) loads on the first fit, not
        # with the simulation stack: runs with other predictors never use it.
        from scipy.interpolate import splrep

        try:
            self._spline = splrep(ux, uy, s=s, per=(ux.size > self.period // 2))
        except (ValueError, TypeError, np.linalg.LinAlgError) as exc:
            # Degenerate fit geometry (e.g. constant input, too few distinct
            # phases for the spline order): fall back to the seasonal mean
            # and say so, instead of silently swallowing everything.
            logger.warning(
                "spline refit failed at t=%d on %d samples (%s: %s); "
                "falling back to cold-start prediction",
                self._t,
                n,
                type(exc).__name__,
                exc,
            )
            self._spline = None
            return
        seasonal = self._seasonal(np.arange(start_t, self._t))
        resid = y - seasonal
        self._last_residual = float(resid[-1])
        self._residual_std = float(resid.std())
        # AR(1) coefficient on the residuals (spike persistence).
        if resid.size >= 3 and resid[:-1].std() > 1e-12:
            phi = float(np.dot(resid[1:], resid[:-1]) / np.dot(resid[:-1], resid[:-1]))
            self._ar_coeff = float(np.clip(phi, 0.0, 0.98))
        else:
            self._ar_coeff = 0.0

    def _seasonal(self, ts: np.ndarray) -> np.ndarray:
        from scipy.interpolate import splev

        phase = (np.asarray(ts) % self.period).astype(float)
        return np.asarray(splev(phase, self._spline), dtype=np.float64)

    # ---------------------------------------------------------------- predict
    def predict(self, horizon: int) -> PredictionResult:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if horizon > self.max_horizon:
            raise ValueError(f"horizon exceeds max_horizon={self.max_horizon}")
        if self._spline is None:
            # Cold start: persist the last value (reactive behaviour).
            last = self._history[-1] if self._history else 0.0
            mean = np.full(horizon, float(last))
            pad = 0.2 * np.abs(mean) + 1.0
            return self._record_and_wrap(mean, mean - pad, mean + pad)
        ts = np.arange(self._t, self._t + horizon)
        seasonal = self._seasonal(ts)
        ar = self._last_residual * self._ar_coeff ** np.arange(1, horizon + 1)
        mean = np.clip(seasonal + ar, 0.0, None)

        z = ndtri(0.5 + self.confidence / 2.0)
        lower = np.empty(horizon)
        upper = np.empty(horizon)
        for h in range(1, horizon + 1):
            errs = self._errors[h - 1]
            if len(errs) >= 8:
                e = np.asarray(errs)
                bias, spread = float(e.mean()), float(e.std())
            else:
                # Early on, fall back to window residual spread grown by a
                # sqrt-horizon factor (standard AR forecast variance growth).
                bias, spread = 0.0, self._residual_std * np.sqrt(h)
            center = mean[h - 1] + bias
            lower[h - 1] = center - z * spread
            upper[h - 1] = center + z * spread
        lower = np.minimum(lower, mean)
        upper = np.maximum(np.clip(upper, 0.0, None), mean)
        lower = np.clip(lower, 0.0, None)
        return self._record_and_wrap(mean, lower, upper)

    def _record_and_wrap(
        self, mean: np.ndarray, lower: np.ndarray, upper: np.ndarray
    ) -> PredictionResult:
        for h in range(1, mean.size + 1):
            self._pending.append((self._t + h - 1, h, float(mean[h - 1])))
        # Bound the pending book (predict() may be called more often than
        # observe() in some baselines).
        if len(self._pending) > 64 * self.max_horizon:
            self._pending = self._pending[-64 * self.max_horizon :]
        return PredictionResult(mean, lower, upper, confidence=self.confidence)
