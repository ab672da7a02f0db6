"""Compare two sets of end-to-end results, workload by metric.

Each side is a result file written by ``run.py --out`` or a directory of
them, one file per suite run.  Every workload x end-to-end metric gets one
verdict, using the metric's bound and direction from ``BENCHMARK.json``.

A side's **observations** are its result sets' values, or, when it has a
single set, the samples behind that set's value (the set-ups behind
``setup_s``, the timed runs behind ``wall_s``).  Its **spread** is the
IQR of its observations over their median, and unknown with fewer than
two.  The noise of a cell is the wider spread of its two sides:

- **unresolved** — the noise is wider than the bound (or unknown), and
  not every change observation reads better than every parent one;
- **regressed** — otherwise, the change's median is worse than the
  parent's by more than the bound;
- **improved** — the pair rule holds: at least 10 parent/change pairs run
  alternately, the change wins at least 9 in 10 of them (ties count for
  neither), and the medians differ by more than the parent's IQR;
- **unchanged** — otherwise.

The exit status is 1 if any cell regressed or the change's share of failed
runs is higher than the parent's.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_side(path: Path) -> list[dict]:
    """Result sets of one side, oldest first."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = [json.loads(f.read_text()) for f in files]
    if not results:
        raise SystemExit(f"{path}: no result files")
    return sorted(results, key=lambda r: r.get("started_unix", 0.0))


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def spread(values: list[float]) -> float:
    """IQR over median; infinite (unknown) with fewer than two values."""
    median = statistics.median(values) if values else 0.0
    if len(values) < 2 or not median:
        return math.inf
    return iqr(values) / abs(median)


def observations(runs: list[dict], key: str) -> list[float]:
    """One value per result set, or a single set's own samples."""
    if len(runs) > 1:
        return [r["metrics"][key]["value"] for r in runs]
    metric = runs[0]["metrics"][key]
    return list(metric.get("samples") or [metric["value"]])


def alternating(parent: list[dict], change: list[dict]) -> bool:
    """Whether the two sides' runs interleave in time, one for one."""
    runs = sorted(
        [(r.get("started_unix", 0.0), "p") for r in parent]
        + [(r.get("started_unix", 0.0), "c") for r in change]
    )
    sides = [side for _t, side in runs]
    return len(parent) == len(change) and all(a != b for a, b in zip(sides, sides[1:]))


def verdict(
    parent: list[float],
    change: list[float],
    *,
    bound: float,
    lower_is_better: bool,
    paired: bool,
    parent_obs: list[float] | None = None,
    change_obs: list[float] | None = None,
) -> tuple[str, float]:
    """One cell's verdict and the change's relative worsening of the median.

    ``parent``/``change`` hold one value per result set; the observations
    default to them.
    """
    parent_obs = parent if parent_obs is None else parent_obs
    change_obs = change if change_obs is None else change_obs
    sign = 1.0 if lower_is_better else -1.0
    m_p, m_c = statistics.median(parent), statistics.median(change)
    worse = sign * (m_c - m_p) / abs(m_p) if m_p else 0.0
    noise = max(spread(parent_obs), spread(change_obs))

    def better(c: float, p: float) -> bool:
        return sign * (c - p) < 0

    all_better = all(better(c, p) for c in change_obs for p in parent_obs)
    if noise > bound and not all_better:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    if (
        paired
        and len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(m_c - m_p) > iqr(parent)
        and worse < 0
    ):
        return "improved", worse
    return "unchanged", worse


def compare(parent: list[dict], change: list[dict], bench: dict) -> tuple[list[dict], bool]:
    """Every cell's verdict, and whether the change passes (no regression)."""
    paired = alternating(parent, change)
    rows, ok = [], True
    workloads = [w["name"] for w in bench["workloads"]]
    for name in workloads:
        p_runs = [r["workloads"][name] for r in parent if name in r["workloads"]]
        c_runs = [r["workloads"][name] for r in change if name in r["workloads"]]
        if not p_runs or not c_runs:
            continue
        for metric in bench["end_to_end"]:
            key = metric["name"]
            p_vals = [r["metrics"][key]["value"] for r in p_runs]
            c_vals = [r["metrics"][key]["value"] for r in c_runs]
            p_obs, c_obs = observations(p_runs, key), observations(c_runs, key)
            cell, worse = verdict(
                p_vals,
                c_vals,
                bound=metric["bound"],
                lower_is_better=metric["better"] == "lower",
                paired=paired,
                parent_obs=p_obs,
                change_obs=c_obs,
            )
            ok = ok and cell != "regressed"
            rows.append(
                {
                    "workload": name,
                    "metric": key,
                    "unit": metric["unit"],
                    "parent": statistics.median(p_vals),
                    "change": statistics.median(c_vals),
                    "worse": worse,
                    "noise": max(spread(p_obs), spread(c_obs)),
                    "bound": metric["bound"],
                    "verdict": cell,
                }
            )

        def failed_frac(runs: list[dict]) -> float:
            return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))

        p_fail, c_fail = failed_frac(p_runs), failed_frac(c_runs)
        ok = ok and c_fail <= p_fail
        rows.append(
            {
                "workload": name,
                "metric": "failed_frac",
                "unit": "frac",
                "parent": p_fail,
                "change": c_fail,
                "worse": c_fail - p_fail,
                "noise": 0.0,
                "bound": 0.0,
                "verdict": "regressed" if c_fail > p_fail else "unchanged",
            }
        )
    return rows, ok


def compare_main(parent_path: Path, change_path: Path, bench_path: Path) -> int:
    bench = json.loads(bench_path.read_text())
    parent, change = load_side(parent_path), load_side(change_path)
    rows, ok = compare(parent, change, bench)
    pairs = min(len(parent), len(change))
    print(
        f"parent: {len(parent)} run(s), change: {len(change)} run(s), "
        f"alternating pairs: {pairs if alternating(parent, change) else 0}"
    )
    print(
        f"{'workload':14s} {'metric':12s} {'parent':>12s} {'change':>12s} {'worse':>8s} "
        f"{'noise':>8s} {'bound':>6s}  verdict"
    )
    for r in rows:
        print(
            f"{r['workload']:14s} {r['metric']:12s} {r['parent']:12.5g} {r['change']:12.5g} "
            f"{100 * r['worse']:7.2f}% {100 * r['noise']:7.1f}% {100 * r['bound']:5.0f}%  "
            f"{r['verdict']}"
        )
    return 0 if ok else 1
