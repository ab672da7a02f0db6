"""Transiency-aware predictors.

SpotWeb feeds its optimizer three prediction streams (Sec. 4.3, 5.2):

- **Workload** — a cubic-spline seasonal model over a two-week moving window
  plus an AR(1) spike component; the *upper bound of the 99% confidence
  interval* is the capacity target (the intelligent over-provisioning of
  Fig. 4(d)).  :class:`SplinePredictor` implements it;
  :class:`BaselinePredictor` is the same machinery without CI padding — the
  prior-art algorithm [Ali-Eldin et al. 2014] compared in Fig. 4(c).
- **Price** — per-market AR(1) forecasts; a reactive predictor matches
  the "assume tomorrow equals today" strawman, and an oracle wraps the true
  future for upper-bound studies (Fig. 6(a) uses the oracle).
- **Failure probability** — reactive by design: the paper observes almost no
  revocation-probability dynamics, so ``f(t+1) = f(t)`` is its deployed
  choice.

Every predictor is multi-horizon: ``predict(h)`` returns means and confidence
bounds for intervals ``t+1 .. t+h``, which is what multi-period optimization
consumes.
"""

from repro.predictors.base import PredictionResult, WorkloadPredictor
from repro.predictors.spline import SplinePredictor
from repro.predictors.baseline import BaselinePredictor
from repro.predictors.reactive import ReactivePredictor
from repro.predictors.ewma import EWMAPredictor
from repro.predictors.ridge import RidgePredictor
from repro.predictors.oracle import OraclePredictor, NoisyOraclePredictor
from repro.predictors.price import (
    PricePredictor,
    ReactivePricePredictor,
    AR1PricePredictor,
    OraclePricePredictor,
)
from repro.predictors.failure import FailurePredictor, ReactiveFailurePredictor
from repro.predictors import metrics

__all__ = [
    "PredictionResult",
    "WorkloadPredictor",
    "SplinePredictor",
    "BaselinePredictor",
    "ReactivePredictor",
    "EWMAPredictor",
    "RidgePredictor",
    "OraclePredictor",
    "NoisyOraclePredictor",
    "PricePredictor",
    "ReactivePricePredictor",
    "AR1PricePredictor",
    "OraclePricePredictor",
    "FailurePredictor",
    "ReactiveFailurePredictor",
    "metrics",
]
