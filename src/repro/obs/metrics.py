"""Lightweight metrics registry: counters, gauges, histograms.

The registry is always on — an increment is an attribute add, far below
the cost of anything it instruments — and it never feeds back into any
decision, prediction, or RNG stream, so experiment outputs are bitwise
identical with or without consumers reading it.

Instrumented metrics across the control loop include::

    sim.revocations            revocation events seen by the cost simulator
    lb.warnings                revocation warnings handled by the balancer
    lb.migrations              sessions migrated off doomed backends
    lb.admission_rejections    requests rejected by admission control
    lb.reprovision_requests    replacement-capacity callbacks issued
    mpo.solves / mpo.warm_start_hits   solver invocations / warm-started ones
    mpo.iterations             ADMM iterations per solve (histogram)
    controller.solve_ms        per-interval optimizer latency (histogram)

:meth:`MetricsRegistry.snapshot` returns a deterministic, JSON-ready dict
(sorted names, stable summary statistics) that experiment reports and the
CLI fold into their output.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "prometheus_text",
    "write_prometheus",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """An append-only sample distribution with a deterministic summary.

    Stores every observation (the control loop produces at most one sample
    per interval per metric, so memory stays bounded by run length); the
    snapshot reports count/total/min/max and interpolated p50/p95.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        self.values.append(value)

    @staticmethod
    def _quantile(ordered: list[float], q: float) -> float:
        """Linear-interpolated quantile of an already-sorted sample."""
        if not ordered:
            return 0.0
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def snapshot(self) -> dict:
        ordered = sorted(self.values)
        if not ordered:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0}
        return {
            "count": len(ordered),
            "total": float(sum(ordered)),
            "min": ordered[0],
            "max": ordered[-1],
            "p50": self._quantile(ordered, 0.50),
            "p95": self._quantile(ordered, 0.95),
        }


class MetricsRegistry:
    """Name-keyed store of counters, gauges, and histograms.

    Accessors create on first use, so instrumented code never has to
    pre-register::

        get_metrics().counter("lb.warnings").inc()

    A name is bound to its first-seen kind; reusing it as another kind
    raises (two call sites silently sharing a name is always a bug).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._metrics))

    def __len__(self) -> int:
        return len(self._metrics)

    def kinds(self) -> dict[str, str]:
        """Metric name -> declared kind (``counter``/``gauge``/``histogram``).

        The authoritative type map for exporters: a metric's kind comes
        from the class it was registered as, never from the Python type
        of its current value (an integer-valued gauge is still a gauge).
        """
        return {
            name: type(self._metrics[name]).__name__.lower()
            for name in sorted(self._metrics)
        }

    def snapshot(self) -> dict:
        """Deterministic dict of every metric's current value.

        Counters map to ints, gauges to floats, histograms to their summary
        dicts; names are sorted so two identical runs produce identical
        (and JSON-diffable) snapshots.
        """
        return {
            name: self._metrics[name].snapshot() for name in sorted(self._metrics)
        }

    def sim_snapshot(self) -> dict:
        """:meth:`snapshot` with each wall-clock histogram cut to its count.

        A ``*_ms`` histogram times real code: its sample count (one per
        solve) is a function of ``(config, seed)``, its statistics are
        not.  Flight-bundle headers carry this form, so identical-seed
        runs dump identical bundles.
        """
        return {
            name: (
                {"count": value["count"]}
                if name.endswith("_ms") and isinstance(value, dict)
                else value
            )
            for name, value in self.snapshot().items()
        }

    def fold(self, other: MetricsRegistry) -> None:
        """Take in ``other``'s metrics as if recorded here after this
        registry's own: counters add, histogram samples append, gauges
        take ``other``'s value.  ``pmap`` folds its cells' registries in
        item order, so serial and parallel sweeps end equal."""
        for name, metric in other._metrics.items():
            mine = self._get(name, type(metric))
            if isinstance(metric, Histogram):
                mine.values.extend(metric.values)
            elif isinstance(metric, Counter):
                mine.value += metric.value
            else:
                mine.value = metric.value


#: Prefix of every exported Prometheus family name.
_PROM_PREFIX = "spotweb_"


def _prom_name(name: str) -> str:
    return _PROM_PREFIX + name.replace(".", "_").replace("-", "_")


def _infer_kind(name: str, value: object) -> str:
    """Legacy value-type inference for plain snapshot dicts."""
    if isinstance(value, bool):
        raise TypeError(f"metric {name!r} has non-metric value {value!r}")
    if isinstance(value, int):
        return "counter"
    if isinstance(value, float):
        return "gauge"
    if isinstance(value, dict):
        return "histogram"
    raise TypeError(f"metric {name!r} has non-metric value {value!r}")


def _mangled_names(names: list[str]) -> dict[str, str]:
    """Map each metric name to a collision-free Prometheus name.

    Dot/dash mangling can collapse distinct metric names (``lb.spare-rps``
    and ``lb.spare.rps`` both mangle to ``lb_spare_rps``); later
    occurrences get a deterministic ``_2``/``_3``... suffix in input
    order, so the exported family names stay unique.
    """
    out: dict[str, str] = {}
    used: dict[str, int] = {}
    for name in names:
        pname = _prom_name(name)
        seen = used.get(pname, 0)
        used[pname] = seen + 1
        out[name] = pname if seen == 0 else f"{pname}_{seen + 1}"
    return out


def prometheus_text(
    source: "MetricsRegistry | dict", *, openmetrics: bool = False
) -> str:
    """Render a registry (or legacy snapshot dict) in Prometheus text format.

    Given a :class:`MetricsRegistry`, each family's type comes from the
    metric class it was registered as — an integer-valued gauge exports
    as a gauge.  Given a plain :meth:`MetricsRegistry.snapshot` dict, the
    type falls back to value inference (``int`` -> counter, ``float`` ->
    gauge, ``dict`` -> summary); booleans are rejected either way.

    Counters carry the conventional ``_total`` sample suffix, every
    family gets a ``# HELP`` line, histogram summaries export
    ``{quantile="0.5"|"0.95"}`` series plus ``_sum``/``_count``, and
    names that mangle to duplicates are suffixed deterministically (see
    :func:`_mangled_names`).  With ``openmetrics=True`` the output is
    terminated by the ``# EOF`` marker the OpenMetrics wire format
    requires.  Output order follows the snapshot, so it is as
    deterministic as the snapshot itself.
    """
    if isinstance(source, MetricsRegistry):
        snapshot = source.snapshot()
        kinds = source.kinds()
    else:
        snapshot = source
        kinds = {
            name: _infer_kind(name, value) for name, value in snapshot.items()
        }
    pnames = _mangled_names(list(snapshot))
    lines: list[str] = []
    for name, value in snapshot.items():
        pname = pnames[name]
        kind = kinds[name]
        if isinstance(value, bool):
            raise TypeError(f"metric {name!r} has non-metric value {value!r}")
        if kind == "counter":
            lines.append(f"# HELP {pname}_total SpotWeb counter {name}")
            lines.append(f"# TYPE {pname}_total counter")
            lines.append(f"{pname}_total {value}")
        elif kind == "gauge":
            lines.append(f"# HELP {pname} SpotWeb gauge {name}")
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {value}")
        elif kind == "histogram":
            lines.append(f"# HELP {pname} SpotWeb histogram summary {name}")
            lines.append(f"# TYPE {pname} summary")
            lines.append(f'{pname}{{quantile="0.5"}} {value["p50"]}')
            lines.append(f'{pname}{{quantile="0.95"}} {value["p95"]}')
            lines.append(f"{pname}_sum {value['total']}")
            lines.append(f"{pname}_count {value['count']}")
        else:
            raise TypeError(f"metric {name!r} has non-metric value {value!r}")
    if not lines:
        return ""
    if openmetrics:
        lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_prometheus(
    path: "str | Path",
    source: "MetricsRegistry | dict | None" = None,
) -> Path:
    """Atomically export metrics in Prometheus text format.

    Writes to a same-directory temp file and renames it into place, so an
    external scraper polling the path never reads a torn file.  ``source``
    defaults to the process-global registry.
    """
    path = Path(path)
    if source is None:
        source = get_metrics()
    text = prometheus_text(source)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    return path


_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _METRICS
