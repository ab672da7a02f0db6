"""Streaming SLO accounting: fixed-bin latency digest + burn-rate alerts.

Two pieces, both deterministic and bounded-memory:

- :class:`LatencyDigest` — a fixed-bin streaming histogram of latencies.
  Memory is ``O(bins)`` independent of request count, and its quantiles
  are deterministic (pure integer bin arithmetic + within-bin linear
  interpolation), agreeing with the exact ``np.percentile`` of the raw
  sample to within one bin width.  :class:`~repro.simulator.metrics
  .LatencyRecorder` routes every served latency through one of these, so
  latency percentiles no longer require unbounded raw arrays.
- :class:`SLOEngine` — per-interval SLO-compliance series plus SRE-style
  multi-window burn-rate alerting.  Requests are classified good/bad
  against the SLO threshold (unserved requests are bad); each closed
  interval emits an ``slo.interval`` event carrying compliance, burn
  rate, and the interval's latency quantiles, and an ``slo.alert``
  event fires (and later resolves) when **both** the short and long
  windows — expressed in sim intervals, never wall-clock — burn error
  budget faster than ``burn_threshold``.

Everything is keyed by simulation time, so the emitted events compose
with the :mod:`repro.obs.events` determinism contract: identical-seed
runs produce identical SLO series and alert timelines.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.devtools.contracts import field_units, units
from repro.obs.events import get_events
from repro.obs.live import get_bus

__all__ = ["LatencyDigest", "SLOEngine"]


@field_units(bin_width="s", max="s")
class LatencyDigest:
    """Fixed-bin streaming latency histogram with deterministic quantiles.

    Latencies land in ``ceil(max_latency / bin_width)`` uniform bins plus
    one overflow bin; a quantile is located by integer rank walk and
    linearly interpolated inside its bin, so the estimate is within one
    ``bin_width`` of the exact order statistic whenever the sample is
    dense at that rank (the acceptance bound the tests check).
    """

    __slots__ = ("bin_width", "num_bins", "counts", "count", "total", "max")

    def __init__(self, *, bin_width: float = 0.01, max_latency: float = 30.0) -> None:
        if bin_width <= 0 or max_latency <= bin_width:
            raise ValueError("need bin_width > 0 and max_latency > bin_width")
        self.bin_width = float(bin_width)
        self.num_bins = int(max_latency / bin_width + 0.999999)
        self.counts = [0] * (self.num_bins + 1)  # last bin = overflow
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    @units("s")
    def add(self, latency: float) -> None:
        """Record one latency (seconds, non-negative)."""
        idx = int(latency / self.bin_width)
        if idx > self.num_bins:
            idx = self.num_bins
        self.counts[idx] += 1
        self.count += 1
        self.total += latency
        if latency > self.max:
            self.max = latency

    @units("s", "req")
    def add_masses(self, latencies: np.ndarray, weights: np.ndarray) -> None:
        """Record fractional request *mass* at each latency (fluid tier).

        One vectorized call folds a whole quantile-node batch into the
        histogram: ``weights[i]`` requests (a float mass, not a count) at
        latency ``latencies[i]``.  Bin counts become floats once this is
        used; the integer :meth:`add` path is untouched until then, so
        request-level-only runs stay bitwise-identical.
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
        self.fold_masses(lat, w, mass, w_min)

    @units("s", "req", "req", "req")
    def fold_masses(
        self, lat: np.ndarray, w: np.ndarray, mass: float, w_min: float
    ) -> None:
        """:meth:`add_masses` for a caller that has made its checks.

        ``lat`` and ``w`` are flat float64 arrays of one shape, neither
        has a negative entry, ``mass = w.sum() > 0`` and ``w_min =
        w.min()``.  The fluid recorder validates a step's nodes once and
        folds them here.
        """
        idx = np.minimum(
            (lat / self.bin_width).astype(np.int64), self.num_bins
        )
        binned = np.bincount(idx, weights=w, minlength=self.num_bins + 1)
        for i in np.flatnonzero(binned):
            self.counts[i] += float(binned[i])
        self.count += mass
        self.total += float((lat * w).sum())
        # Every node of a fluid step carries mass, so its mask is all True.
        top = float(lat.max() if w_min > 0 else lat[w > 0].max())
        if top > self.max:
            self.max = top

    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    @units(None, ret="s")
    def percentile(self, p: float) -> float:
        """Deterministic quantile estimate (``p`` in [0, 100]).

        Matches ``np.percentile``'s linear-interpolation rank convention,
        with the order statistic located to its bin and interpolated
        uniformly inside it.  The overflow bin reports the observed max.
        """
        if not 0 <= p <= 100:
            raise ValueError("p must be in [0, 100]")
        if self.count == 0:
            return float("nan")
        # np.percentile: 0-based fractional rank pos = p/100 * (n - 1).
        rank = 1.0 + (p / 100.0) * (self.count - 1)  # 1-based fractional
        cum = 0
        for idx, c in enumerate(self.counts):
            if c == 0:
                continue
            if cum + c >= rank:
                if idx == self.num_bins:
                    return self.max
                frac = (rank - cum) / c
                return (idx + frac) * self.bin_width
            cum += c
        return self.max

    def merge(self, other: "LatencyDigest") -> None:
        """Fold another digest (same geometry) into this one."""
        if (
            other.bin_width != self.bin_width
            or other.num_bins != self.num_bins
        ):
            raise ValueError("digest geometries differ")
        for idx, c in enumerate(other.counts):
            self.counts[idx] += c
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max

    def snapshot(self) -> dict:
        """JSON-ready summary (count, mean, p50/p95/p99, max)."""
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }


@field_units(
    slo_threshold="s",
    target="frac",
    interval_seconds="s",
    origin="s",
)
class SLOEngine:
    """Per-interval SLO compliance + multi-window burn-rate alerting.

    Parameters
    ----------
    slo_threshold:
        Served latency above this (seconds) is an SLO violation; dropped
        and failed requests always are.
    target:
        SLO compliance objective (e.g. 0.99); the error budget per
        interval is ``1 - target`` and a burn rate of 1.0 consumes it
        exactly.
    interval_seconds:
        Width of one SLO interval in **sim** seconds.
    short_window / long_window:
        Alert windows in sim intervals (SRE multi-window pattern: the
        short window gates detection latency, the long window gates
        flappiness; both must burn ≥ ``burn_threshold`` to fire).
    """

    def __init__(
        self,
        *,
        slo_threshold: float = 1.0,
        target: float = 0.99,
        interval_seconds: float = 60.0,
        short_window: int = 3,
        long_window: int = 10,
        burn_threshold: float = 10.0,
        origin: float = 0.0,
        digest_bin_width: float = 0.01,
        digest_max_latency: float = 30.0,
    ) -> None:
        if not 0 < target < 1:
            raise ValueError("target must be in (0, 1)")
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if short_window < 1 or long_window < short_window:
            raise ValueError("need 1 <= short_window <= long_window")
        if burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")
        self.slo_threshold = float(slo_threshold)
        self.target = float(target)
        self.interval_seconds = float(interval_seconds)
        self.short_window = int(short_window)
        self.long_window = int(long_window)
        self.burn_threshold = float(burn_threshold)
        self.origin = float(origin)
        self._digest_bin_width = float(digest_bin_width)
        self._digest_max_latency = float(digest_max_latency)
        self._interval = 0
        self._good = 0
        self._bad = 0
        self._digest = self._new_digest()
        self._short: deque[float] = deque(maxlen=self.short_window)
        self._long: deque[float] = deque(maxlen=self.long_window)
        self.alert_firing = False
        self.alerts = 0
        #: closed-interval history: dicts with interval/compliance/burn.
        self.history: list[dict] = []

    def _new_digest(self) -> LatencyDigest:
        return LatencyDigest(
            bin_width=self._digest_bin_width,
            max_latency=self._digest_max_latency,
        )

    # --------------------------------------------------------------- recording
    @units("s", "s")
    def record(self, t: float, latency: float) -> None:
        """Classify one served request against the SLO."""
        self._roll(t)
        if latency > self.slo_threshold:
            self._bad += 1
        else:
            self._good += 1
        self._digest.add(latency)

    @units("s")
    def record_bad(self, t: float) -> None:
        """Count one unserved (dropped or failed) request as a violation."""
        self._roll(t)
        self._bad += 1

    @units("s", "s", "req")
    def record_mass(
        self, t: float, latencies: np.ndarray, weights: np.ndarray
    ) -> None:
        """Classify served request *mass* (fluid tier) against the SLO.

        ``weights[i]`` requests at latency ``latencies[i]``; mass above the
        threshold burns budget exactly like individually-late requests.
        """
        self._roll(t)
        lat = np.asarray(latencies, dtype=np.float64).ravel()
        w = np.asarray(weights, dtype=np.float64).ravel()
        late = lat > self.slo_threshold
        self._bad += float(w[late].sum())
        self._good += float(w[~late].sum())
        self._digest.add_masses(lat, w)

    @units("s", "req")
    def record_bad_mass(self, t: float, mass: float) -> None:
        """Count unserved request mass (fluid-tier drops/kills) as violations."""
        if mass < 0:
            raise ValueError("mass must be non-negative")
        if mass == 0:
            return
        self._roll(t)
        self._bad += float(mass)

    @units("s")
    def finish(self, t: float) -> None:
        """Close every interval up to ``t`` (the last only if it saw traffic)."""
        self._roll(t)
        if self._good or self._bad:
            self._close_interval()

    # ---------------------------------------------------------------- rolling
    @units("s")
    def _roll(self, t: float) -> None:
        idx = int((t - self.origin) / self.interval_seconds)
        while self._interval < idx:
            self._close_interval()

    def _close_interval(self) -> None:
        total = self._good + self._bad
        compliance = (self._good / total) if total else 1.0
        burn = (1.0 - compliance) / (1.0 - self.target)
        end_t = self.origin + (self._interval + 1) * self.interval_seconds
        digest = self._digest.snapshot()
        entry = {
            "interval": self._interval,
            "t": end_t,
            "requests": total,
            "compliance": compliance,
            "burn": burn,
            "p50": digest["p50"],
            "p95": digest["p95"],
            "p99": digest["p99"],
        }
        self.history.append(entry)
        self._short.append(burn)
        self._long.append(burn)
        ev = get_events()
        ev.emit(
            "slo.interval",
            t=end_t,
            interval=self._interval,
            requests=total,
            compliance=compliance,
            burn=burn,
            p50=digest["p50"],
            p95=digest["p95"],
            p99=digest["p99"],
        )
        self._evaluate_alert(end_t)
        # Frame boundary for streaming consumers: the SLO interval close
        # is the sim-time heartbeat of DES/hybrid runs (the interval cost
        # simulator ticks its own loop).  One method call when disabled.
        get_bus().tick(end_t, self._interval)
        self._interval += 1
        self._good = 0
        self._bad = 0
        self._digest = self._new_digest()

    @units("s")
    def _evaluate_alert(self, t: float) -> None:
        short = sum(self._short) / len(self._short) if self._short else 0.0
        long_ = sum(self._long) / len(self._long) if self._long else 0.0
        firing = (
            short >= self.burn_threshold and long_ >= self.burn_threshold
        )
        if firing == self.alert_firing:
            return
        self.alert_firing = firing
        ev = get_events()
        cause = ev.last_open_warning()
        if firing:
            self.alerts += 1
        ev.emit(
            "slo.alert",
            t=t,
            interval=self._interval,
            cause=cause,
            state="firing" if firing else "resolved",
            burn_short=short,
            burn_long=long_,
            threshold=self.burn_threshold,
            window_short=self.short_window,
            window_long=self.long_window,
        )
