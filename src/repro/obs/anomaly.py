"""Streaming anomaly detectors over the telemetry frames.

Two classic sequential detectors watch selected SLO/cost series as the
:class:`repro.obs.live.TelemetryBus` publishes them:

- :class:`EwmaZScoreDetector` — robust z-score against an exponentially
  weighted mean and absolute deviation; catches sharp spikes (a flash
  crowd blowing out P99) the moment one lands.
- :class:`CusumDetector` — two-sided CUSUM change-point statistic
  against a baseline frozen at the end of warmup; catches *sustained*
  level shifts (an AZ storm degrading P99 by 30% forever after) that
  stay under any single-sample threshold.

Both are **pure functions of (config, series)**: no RNG, no clock reads,
state advanced only by :meth:`~EwmaZScoreDetector.update` — so two
identical runs flag identical points, and :func:`detect_series` exposes
the same arithmetic over a plain list for tests and offline analysis.

:class:`AnomalyMonitor` subscribes the detectors to the bus and emits a
``telemetry.anomaly`` journal event for every flag, sim-time-stamped at
the observation that fired and causally linked to the innermost open
revocation warning — so scenario invariant packs can count anomalies and
the eventreport timeline renders them inside the incident chain.

Robust scales are floored at ``min_scale``: the fluid simulation tier
produces *exactly* constant steady-state series (zero deviation), and
without a floor the first infinitesimal wobble would divide by zero into
an infinite z-score.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.obs.events import get_events

__all__ = [
    "ANOMALY_EVENT",
    "DetectorConfig",
    "EwmaZScoreDetector",
    "CusumDetector",
    "detect_series",
    "SeriesSpec",
    "DEFAULT_SERIES",
    "AnomalyMonitor",
]

#: Journal event kind emitted for every detector flag.
ANOMALY_EVENT = "telemetry.anomaly"


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning shared by both detectors.

    ``warmup`` observations establish the baseline (no scoring, no
    flags); ``min_scale`` floors the robust scale estimate in the units
    of the watched series (see module docstring).  Defaults are
    calibrated on the scenario suite: the storm/flash-crowd level shifts
    (z >= ~4.5 per interval) fire within 1–3 intervals, while steady-run
    noise (|z| <= ~1.6) never does.
    """

    warmup: int = 4
    ewma_alpha: float = 0.3
    z_threshold: float = 4.0
    cusum_k: float = 0.5
    cusum_h: float = 5.0
    min_scale: float = 1e-6

    def __post_init__(self) -> None:
        if self.warmup < 1:
            raise ValueError("warmup must be at least 1 observation")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.z_threshold <= 0 or self.cusum_h <= 0:
            raise ValueError("thresholds must be positive")
        if self.cusum_k < 0 or self.min_scale <= 0:
            raise ValueError("cusum_k must be >= 0 and min_scale > 0")


class EwmaZScoreDetector:
    """Robust z-score against EWMA mean and EWMA absolute deviation.

    Warmup uses simple averages (an EWMA seeded from one sample
    over-trusts it); after warmup each observation is scored **before**
    the state absorbs it, so an outlier cannot mask itself.  ``update``
    returns the score (``None`` during warmup) and sets :attr:`fired`.
    """

    name = "ewma_z"

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config if config is not None else DetectorConfig()
        self.fired = False
        self._warmup_values: list[float] = []
        self._mean = 0.0
        self._dev = 0.0
        self._ready = False

    def update(self, value: float) -> float | None:
        value = float(value)
        self.fired = False
        if not self._ready:
            self._warmup_values.append(value)
            if len(self._warmup_values) >= self.config.warmup:
                n = len(self._warmup_values)
                self._mean = sum(self._warmup_values) / n
                self._dev = (
                    sum(abs(x - self._mean) for x in self._warmup_values) / n
                )
                self._warmup_values = []
                self._ready = True
            return None
        scale = max(self._dev, self.config.min_scale)
        score = (value - self._mean) / scale
        self.fired = abs(score) >= self.config.z_threshold
        alpha = self.config.ewma_alpha
        deviation = abs(value - self._mean)
        self._mean = (1.0 - alpha) * self._mean + alpha * value
        self._dev = (1.0 - alpha) * self._dev + alpha * deviation
        return score


class CusumDetector:
    """Two-sided CUSUM change-point detector with a frozen baseline.

    The baseline mean and robust scale are frozen at the end of warmup
    (a drifting baseline would absorb exactly the level shifts this
    detector exists to catch).  Each observation's standardized deviation
    feeds two one-sided accumulators::

        s_pos = max(0, s_pos + z - k)      # upward shifts
        s_neg = max(0, s_neg - z - k)      # downward shifts

    A flag fires when either accumulator reaches ``cusum_h``; both reset
    afterwards so a persisting shift re-alarms rather than saturating.
    ``update`` returns the current statistic (``None`` during warmup)
    and sets :attr:`fired`.
    """

    name = "cusum"

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config if config is not None else DetectorConfig()
        self.fired = False
        self._warmup_values: list[float] = []
        self._mean = 0.0
        self._scale = 0.0
        self._s_pos = 0.0
        self._s_neg = 0.0
        self._ready = False

    def update(self, value: float) -> float | None:
        value = float(value)
        self.fired = False
        if not self._ready:
            self._warmup_values.append(value)
            if len(self._warmup_values) >= self.config.warmup:
                n = len(self._warmup_values)
                self._mean = sum(self._warmup_values) / n
                dev = sum(abs(x - self._mean) for x in self._warmup_values) / n
                self._scale = max(dev, self.config.min_scale)
                self._warmup_values = []
                self._ready = True
            return None
        z = (value - self._mean) / self._scale
        k = self.config.cusum_k
        self._s_pos = max(0.0, self._s_pos + z - k)
        self._s_neg = max(0.0, self._s_neg - z - k)
        score = max(self._s_pos, self._s_neg)
        if score >= self.config.cusum_h:
            self.fired = True
            self._s_pos = 0.0
            self._s_neg = 0.0
        return score


def detect_series(
    values: list[float],
    config: DetectorConfig | None = None,
    *,
    detector: str = "cusum",
) -> list[dict]:
    """Run one detector over a finished series; return the flagged points.

    The offline twin of the streaming path — same classes, same
    arithmetic — returning ``{"index", "value", "score", "detector"}``
    per flag.  ``detector`` is ``"cusum"`` or ``"ewma"``.
    """
    if detector == "cusum":
        det: CusumDetector | EwmaZScoreDetector = CusumDetector(config)
    elif detector == "ewma":
        det = EwmaZScoreDetector(config)
    else:
        raise ValueError(f"unknown detector {detector!r}")
    flags: list[dict] = []
    for index, raw in enumerate(values):
        value = float(raw)
        score = det.update(value)
        if score is not None and det.fired:
            flags.append(
                {
                    "index": index,
                    "value": value,
                    "score": score,
                    "detector": det.name,
                }
            )
    return flags


@dataclass(frozen=True)
class SeriesSpec:
    """One watched series: which journal events feed it, and how.

    ``extract`` maps a matching journal record to the observation
    (``None`` skips the record); ``config`` carries the per-series
    ``min_scale`` floor in the series' own units.
    """

    name: str
    kind: str
    extract: Callable[[dict], float | None]
    config: DetectorConfig


def _extract_p99(rec: dict) -> float | None:
    return rec["attrs"].get("p99")


def _extract_unserved(rec: dict) -> float | None:
    compliance = rec["attrs"].get("compliance")
    return None if compliance is None else 1.0 - float(compliance)


def _extract_cost(rec: dict) -> float | None:
    return rec["attrs"].get("cost")


_BASE = DetectorConfig()

#: The SLO/cost series every monitor watches.  min_scale
#: floors: 20 ms on P99 (sub-floor wobble is jitter, not an incident),
#: half a point of unserved fraction, one cent of per-interval cost.
DEFAULT_SERIES: tuple[SeriesSpec, ...] = (
    SeriesSpec(
        "slo.p99", "slo.interval", _extract_p99, replace(_BASE, min_scale=0.02)
    ),
    SeriesSpec(
        "slo.unserved",
        "slo.interval",
        _extract_unserved,
        replace(_BASE, min_scale=0.005),
    ),
    SeriesSpec(
        "cost.rate",
        "interval.plan",
        _extract_cost,
        replace(_BASE, min_scale=0.01),
    ),
)


class AnomalyMonitor:
    """Bus subscriber running both detectors over each watched series.

    Every flag emits a ``telemetry.anomaly`` event into the active
    journal — sim-time-stamped at the observation that fired, causally
    linked to the innermost open revocation warning (``None`` outside an
    incident) — and is mirrored on :attr:`anomalies` for direct
    inspection.  Detector state is per-monitor, so scenario episodes get
    a fresh monitor each (no cross-episode baseline bleed).  Every
    watched series (:data:`DEFAULT_SERIES`) is sim-time-derived, so the
    flags are as deterministic as the journal.
    """

    def __init__(self) -> None:
        self._watch: list[tuple[SeriesSpec, list]] = [
            (spec, [EwmaZScoreDetector(spec.config), CusumDetector(spec.config)])
            for spec in DEFAULT_SERIES
        ]
        self.anomalies: list[dict] = []

    def __call__(self, frame: dict) -> None:
        for rec in frame["events"]:
            if rec["kind"] == ANOMALY_EVENT:
                continue
            for spec, detectors in self._watch:
                if rec["kind"] != spec.kind:
                    continue
                value = spec.extract(rec)
                if value is None:
                    continue
                for det in detectors:
                    score = det.update(value)
                    if score is not None and det.fired:
                        self._flag(spec.name, det.name, rec, value, score)

    def _flag(
        self, series: str, detector: str, rec: dict, value: float, score: float
    ) -> None:
        entry = {
            "series": series,
            "detector": detector,
            "t": rec["t"],
            "interval": rec["interval"],
            "value": float(value),
            "score": round(float(score), 6),
        }
        self.anomalies.append(entry)
        ev = get_events()
        ev.emit(
            ANOMALY_EVENT,
            t=rec["t"],
            interval=rec["interval"],
            event_id=ev.unique_id("anom"),
            cause=ev.last_open_warning(),
            series=series,
            detector=detector,
            value=entry["value"],
            score=entry["score"],
        )
