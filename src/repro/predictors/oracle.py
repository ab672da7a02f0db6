"""Oracle and noisy-oracle workload predictors.

The oracle wraps the true future trace — the paper uses it in the Fig. 5/6(a)
price-awareness experiments ("we assumed an oracle predictor, thus this cost
does not include any SLO costs").  The noisy oracle degrades it with a
controllable relative error, which is exactly the knob swept in Fig. 7(a).
"""

from __future__ import annotations

import numpy as np

from repro.normal import ndtri
from repro.predictors.base import PredictionResult, WorkloadPredictor
from repro.workloads.trace import WorkloadTrace

__all__ = ["OraclePredictor", "NoisyOraclePredictor"]

# Floor of the noisy oracle's band, as a fraction of its mean.
_MIN_BAND_FRACTION = 0.10


class OraclePredictor(WorkloadPredictor):
    """Knows the full trace; predicts the truth, with zero-width bounds.

    The internal cursor advances one interval per :meth:`observe`, so the
    oracle stays aligned with the simulation loop that drives it.
    """

    def __init__(self, trace: WorkloadTrace | np.ndarray) -> None:
        rates = trace.rates if isinstance(trace, WorkloadTrace) else np.asarray(trace)
        self._rates = np.asarray(rates, dtype=np.float64).ravel()
        if self._rates.size == 0:
            raise ValueError("oracle needs a non-empty trace")
        self._cursor = 0

    @property
    def cursor(self) -> int:
        return self._cursor

    def observe(self, value: float) -> None:
        # The observed value is already known to the oracle; just advance.
        self._cursor += 1

    def predict(self, horizon: int) -> PredictionResult:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        idx = np.minimum(
            np.arange(self._cursor, self._cursor + horizon), self._rates.size - 1
        )
        mean = self._rates[idx]
        return PredictionResult(mean, mean, mean)


class NoisyOraclePredictor(WorkloadPredictor):
    """Oracle with multiplicative noise of a controlled relative error.

    ``relative_error`` is the standard deviation of the multiplicative noise
    (0.05 = 5% typical error).  Deterministic given ``seed``, and the noise
    draw depends only on (interval, horizon), so repeated ``predict`` calls
    at the same cursor agree.
    """

    def __init__(
        self,
        trace: WorkloadTrace | np.ndarray,
        relative_error: float,
        *,
        seed: int = 0,
        confidence: float = 0.99,
    ) -> None:
        if relative_error < 0:
            raise ValueError("relative_error must be non-negative")
        rates = trace.rates if isinstance(trace, WorkloadTrace) else np.asarray(trace)
        self._rates = np.asarray(rates, dtype=np.float64).ravel()
        if self._rates.size == 0:
            raise ValueError("oracle needs a non-empty trace")
        self.relative_error = float(relative_error)
        self.confidence = float(confidence)
        self._seed = int(seed)
        self._cursor = 0

    def observe(self, value: float) -> None:
        self._cursor += 1

    def predict(self, horizon: int) -> PredictionResult:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        idx = np.minimum(
            np.arange(self._cursor, self._cursor + horizon), self._rates.size - 1
        )
        truth = self._rates[idx]
        rng = np.random.default_rng(self._seed + 1_000_003 * self._cursor)
        noise = rng.normal(scale=self.relative_error, size=horizon)
        mean = np.clip(truth * (1.0 + noise), 0.0, None)
        # Self-correcting CI semantics (Sec. 4.3): the band grows with the
        # predictor's error, but never collapses below a floor — even a
        # perfect workload predictor must pad for revocations.
        z = ndtri(0.5 + self.confidence / 2.0)
        band = np.maximum(z * self.relative_error, _MIN_BAND_FRACTION) * mean
        return PredictionResult(
            mean, np.clip(mean - band, 0.0, None), mean + band, self.confidence
        )
