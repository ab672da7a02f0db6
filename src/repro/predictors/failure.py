"""Failure-probability predictors.

The paper: "for almost all markets, there is no, to very little dynamics, in
the revocation probability.  The failure predictions in our experiments are
thus done reactively, i.e., we assume that for the next time unit, the
failure probability will be equal to the measured probability now."
:class:`ReactiveFailurePredictor` is that deployed choice.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["FailurePredictor", "ReactiveFailurePredictor"]


class FailurePredictor(abc.ABC):
    """Streaming multi-horizon, multi-market failure-probability predictor."""

    @abc.abstractmethod
    def observe(self, probs: np.ndarray) -> None:
        """Record the currently measured per-market failure probabilities."""

    @abc.abstractmethod
    def predict(self, horizon: int) -> np.ndarray:
        """Forecast an ``(horizon, N)`` probability matrix."""

    def observe_many(self, prob_matrix: np.ndarray) -> None:
        for row in np.atleast_2d(np.asarray(prob_matrix, dtype=np.float64)):
            self.observe(row)


def _validate_probs(probs: np.ndarray, n: int) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64).ravel()
    if probs.size != n:
        raise ValueError("probability vector has wrong length")
    if np.any((probs < 0) | (probs > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    return probs


class ReactiveFailurePredictor(FailurePredictor):
    """``f(t+h) = f(t)`` for all horizons — the paper's deployed predictor."""

    def __init__(self, num_markets: int) -> None:
        self._last = np.zeros(int(num_markets))

    def observe(self, probs: np.ndarray) -> None:
        self._last = _validate_probs(probs, self._last.size).copy()

    def predict(self, horizon: int) -> np.ndarray:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        return np.tile(self._last, (horizon, 1))

