"""Latency and SLO accounting for the request-level simulation."""

from __future__ import annotations

import numpy as np

from repro.obs.slo import LatencyDigest, SLOEngine

__all__ = ["LatencyRecorder", "integer_masses"]


def integer_masses(weights: np.ndarray) -> np.ndarray:
    """Deterministic largest-remainder rounding of float mass to counts.

    Returns non-negative int64 counts with ``counts.sum() ==
    round(weights.sum())``: floors first, then the residual units go to
    the largest fractional parts (stable order, so ties break by index).
    Used to expand fluid-tier request mass into discrete raw samples when
    ``keep_raw`` is on, conserving total request count.
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    if w.size == 0:
        return np.zeros(0, dtype=np.int64)
    if float(w.min()) < 0:
        raise ValueError("weights must be non-negative")
    floors = np.floor(w).astype(np.int64)
    remainder = int(round(float(w.sum()))) - int(floors.sum())
    if remainder > 0:
        order = np.argsort(-(w - floors), kind="stable")
        floors[order[: min(remainder, w.size)]] += 1
    return floors


class LatencyRecorder:
    """Collects per-request latencies and outcomes.

    Served latencies stream into a fixed-bin
    :class:`~repro.obs.slo.LatencyDigest`, so memory stays ``O(bins)``
    regardless of request count; ``keep_raw=True`` additionally retains
    the exact per-request arrays for experiments that need them (e.g.
    the per-minute boxplot windows of Fig. 4(a)) and makes
    :meth:`percentile`/:meth:`mean` bit-identical to their historical
    ``np.percentile``/``np.mean`` values.

    ``slo_threshold`` (seconds) marks a served request as an SLO violation
    when its response time exceeds it.  An optional
    :class:`~repro.obs.slo.SLOEngine` receives every outcome for
    per-interval compliance and burn-rate accounting.
    """

    def __init__(
        self,
        slo_threshold: float = 1.0,
        *,
        keep_raw: bool = False,
        engine: SLOEngine | None = None,
    ) -> None:
        self.slo_threshold = float(slo_threshold)
        self.keep_raw = bool(keep_raw)
        self.engine = engine
        self.digest = LatencyDigest()
        self.latencies: list[float] = []
        self.timestamps: list[float] = []
        self.dropped = 0
        self.failed = 0
        self._served = 0
        self._late = 0

    def record_served(self, timestamp: float, latency: float) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        latency = float(latency)
        timestamp = float(timestamp)
        self._served += 1
        if latency > self.slo_threshold:
            self._late += 1
        self.digest.add(latency)
        if self.keep_raw:
            self.latencies.append(latency)
            self.timestamps.append(timestamp)
        if self.engine is not None:
            self.engine.record(timestamp, latency)

    def record_dropped(self, timestamp: float) -> None:
        self.dropped += 1
        if self.engine is not None:
            self.engine.record_bad(float(timestamp))

    def record_failed(self, timestamp: float) -> None:
        self.failed += 1
        if self.engine is not None:
            self.engine.record_bad(float(timestamp))

    # ------------------------------------------------------- fluid-tier mass
    def record_served_mass(
        self, timestamp: float, latencies: np.ndarray, weights: np.ndarray
    ) -> None:
        """Record served request *mass*: ``weights[i]`` requests at
        ``latencies[i]``.

        The fluid tier serves fractional request mass per step rather than
        individual requests; one call folds a whole quantile-node batch
        into the digest/SLO pipeline.  With ``keep_raw`` the mass is
        expanded to discrete samples by :func:`integer_masses` so
        :meth:`window`/:meth:`percentile` keep working.  Counters become
        floats only once this path is used.
        """
        lat = np.asarray(latencies, dtype=np.float64).ravel()
        w = np.asarray(weights, dtype=np.float64).ravel()
        if lat.shape != w.shape:
            raise ValueError("latencies and weights must have the same shape")
        if lat.size == 0:
            return
        w_min = float(w.min())
        if float(lat.min()) < 0 or w_min < 0:
            raise ValueError("latencies and weights must be non-negative")
        mass = float(w.sum())
        if mass <= 0:
            return
        timestamp = float(timestamp)
        self._served += mass
        self._late += float(w[lat > self.slo_threshold].sum())
        self.digest.fold_masses(lat, w, mass, w_min)
        if self.keep_raw:
            counts = integer_masses(w)
            expanded = np.repeat(lat, counts).tolist()
            self.latencies.extend(expanded)
            self.timestamps.extend([timestamp] * len(expanded))
        if self.engine is not None:
            self.engine.record_mass(timestamp, lat, w)

    def record_dropped_mass(self, timestamp: float, mass: float) -> None:
        """Record dropped request mass (fluid-tier admission overflow)."""
        if mass < 0:
            raise ValueError("mass must be non-negative")
        if mass == 0:
            return
        self.dropped += float(mass)
        if self.engine is not None:
            self.engine.record_bad_mass(float(timestamp), float(mass))

    def record_failed_mass(self, timestamp: float, mass: float) -> None:
        """Record failed request mass (queue mass lost to a revocation)."""
        if mass < 0:
            raise ValueError("mass must be non-negative")
        if mass == 0:
            return
        self.failed += float(mass)
        if self.engine is not None:
            self.engine.record_bad_mass(float(timestamp), float(mass))

    # ------------------------------------------------------------- summaries
    @property
    def served(self) -> int:
        return self._served

    @property
    def total(self) -> int:
        return self._served + self.dropped + self.failed

    def drop_rate(self) -> float:
        """Fraction of requests not served (dropped + failed)."""
        if self.total == 0:
            return 0.0
        return (self.dropped + self.failed) / self.total

    def percentile(self, p: float) -> float:
        """Latency percentile over served requests (p in [0, 100]).

        Exact (``np.percentile``) with ``keep_raw``; otherwise the
        digest's deterministic estimate, within one bin width.
        """
        if self._served == 0:
            return float("nan")
        if self.keep_raw:
            return float(np.percentile(self.latencies, p))
        return self.digest.percentile(p)

    def mean(self) -> float:
        if self._served == 0:
            return float("nan")
        if self.keep_raw:
            return float(np.mean(self.latencies))
        return self.digest.mean()

    def slo_violation_rate(self) -> float:
        """Violations / total: unserved requests count as violations."""
        if self.total == 0:
            return 0.0
        return (self._late + self.dropped + self.failed) / self.total

    def window(self, t_start: float, t_end: float) -> np.ndarray:
        """Latencies of requests served in ``[t_start, t_end)``.

        Used to build the per-minute boxplot series of Fig. 4(a);
        requires ``keep_raw=True`` (the streaming digest keeps no
        per-request timestamps).
        """
        if not self.keep_raw:
            raise RuntimeError(
                "window() needs the raw arrays; construct "
                "LatencyRecorder(keep_raw=True)"
            )
        ts = np.asarray(self.timestamps)
        lat = np.asarray(self.latencies)
        mask = (ts >= t_start) & (ts < t_end)
        return lat[mask]

    def summary(self) -> dict[str, float]:
        return {
            "served": float(self.served),
            "dropped": float(self.dropped),
            "failed": float(self.failed),
            "drop_rate": self.drop_rate(),
            "mean_s": self.mean(),
            "p50_s": self.percentile(50),
            "p90_s": self.percentile(90),
            "p99_s": self.percentile(99),
            "slo_violation_rate": self.slo_violation_rate(),
        }
