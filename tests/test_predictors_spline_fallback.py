"""The spline refit fallback is narrow and logged, not silently swallowed."""

from __future__ import annotations

import logging

import numpy as np
import pytest
import scipy.interpolate

from repro.predictors.spline import SplinePredictor


def feed(predictor, n=60):
    rng = np.random.default_rng(0)
    for t in range(n):
        predictor.observe(100.0 + 10.0 * np.sin(t / 4.0) + rng.normal())


def test_refit_failure_logs_and_falls_back(monkeypatch, caplog):
    predictor = SplinePredictor(intervals_per_day=24, window_days=2)

    def boom(*args, **kwargs):
        raise ValueError("synthetic fitpack failure")

    monkeypatch.setattr(scipy.interpolate, "splrep", boom)
    with caplog.at_level(logging.WARNING, logger="repro.predictors.spline"):
        feed(predictor)
    assert any("spline refit failed" in rec.message for rec in caplog.records)
    # Cold-start prediction still works (persistence fallback).
    result = predictor.predict(4)
    assert result.mean.shape == (4,)
    assert np.all(result.upper >= result.mean)


def test_unexpected_exceptions_propagate(monkeypatch):
    predictor = SplinePredictor(intervals_per_day=24, window_days=2)

    def boom(*args, **kwargs):
        raise RuntimeError("not a fit-geometry error")

    monkeypatch.setattr(scipy.interpolate, "splrep", boom)
    with pytest.raises(RuntimeError):
        feed(predictor)
