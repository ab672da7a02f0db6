"""Benchmark result schemas, JSON persistence, and the perf gates.

``BENCH_mpo.json`` / ``BENCH_sim.json`` at the repo root are the recorded
baselines.  ``python -m repro bench`` regenerates them and fails when a
fresh run breaks any bound below; :func:`gate_failures` names each one.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "SCHEMA_MPO",
    "SCHEMA_SIM",
    "REGRESS_FACTOR",
    "HYBRID_SPEEDUP_FLOOR",
    "SMOKE_SPEEDUP_FLOOR",
    "PARALLEL_SPEEDUP_FLOOR",
    "CROSSOVER_VARS",
    "P99_TOLERANCE",
    "SESSION_SCALING_CEILING",
    "write_bench",
    "load_bench",
    "crossover_violations",
    "bench_regressions",
    "sim_regressions",
    "hybrid_speedup_violations",
    "gate_failures",
    "format_bench_mpo",
    "format_bench_sim",
    "format_checks",
]

SCHEMA_MPO = "spotweb-bench-mpo/1"
#: Interval cells plus cluster-engine cells (request / hybrid / 500k RPS).
SCHEMA_SIM = "spotweb-bench-sim/2"
_KNOWN_SCHEMAS = (SCHEMA_MPO, SCHEMA_SIM)

#: A fresh cell may run at most this many times slower than the same cell
#: of the committed baseline (warm-median latency or intervals/second).
REGRESS_FACTOR = 2.5
#: Hybrid over request-level intervals/second at the 20k req/s cell.
HYBRID_SPEEDUP_FLOOR = 50.0
#: Hybrid over request-level intervals/second at the 2k req/s smoke cell.
SMOKE_SPEEDUP_FLOOR = 10.0
#: Four-worker Table-1 sweep over the serial one (results bitwise equal).
PARALLEL_SPEEDUP_FLOOR = 2.0
#: From this many variables (N·H) on, structured must beat dense warm.
CROSSOVER_VARS = 288
#: Hybrid P99 may differ from request level by this relative error.
P99_TOLERANCE = 0.25
#: A session draw at 10,000 live sessions may cost this many times one at
#: 1,000.  The O(1) draw reads 1.0-1.2x on a 2-vCPU host; the list draw it
#: replaced (``rng.choice`` over the live sessions) read 7.6-8.2x there.
SESSION_SCALING_CEILING = 3.0


def write_bench(data: dict, path: str | Path) -> Path:
    """Write a benchmark dict as stable, diff-friendly JSON."""
    if data.get("schema") not in _KNOWN_SCHEMAS:
        raise ValueError(f"unknown bench schema: {data.get('schema')!r}")
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: str | Path) -> dict:
    """Load a benchmark JSON file, validating its schema tag."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") not in _KNOWN_SCHEMAS:
        raise ValueError(f"unknown bench schema: {data.get('schema')!r}")
    if not isinstance(data.get("cells"), list):
        raise ValueError("bench file has no 'cells' list")
    return data


def crossover_violations(mpo_data: dict) -> list[dict]:
    """Cells past the crossover where the structured path lost to dense.

    The structured factorization is O(H·N³) vs the dense O((N·H)³); by
    ``N·H >= CROSSOVER_VARS`` it must be winning on warm re-solves.
    Returns the offending speedup entries (empty list == healthy).
    """
    if mpo_data.get("schema") != SCHEMA_MPO:
        raise ValueError("crossover check needs a bench-mpo result")
    return [
        entry
        for entry in mpo_data.get("speedups", [])
        if entry["variables"] >= CROSSOVER_VARS and entry["warm_speedup"] < 1.0
    ]


def bench_regressions(fresh: dict, baseline: dict) -> list[dict]:
    """Warm-latency regressions of ``fresh`` against a recorded baseline.

    Cells are matched by ``(markets, horizon, backend)``; a cell regresses
    when its warm-median latency exceeds ``REGRESS_FACTOR`` times the
    baseline's.  Cells present on only one side are ignored (the CI quick
    grid is a subset of the full baseline grid), but zero overlap is an
    error — a vacuous comparison would silently gate nothing.
    """
    for data in (fresh, baseline):
        if data.get("schema") != SCHEMA_MPO:
            raise ValueError("regression check needs bench-mpo results")
    base = {
        (c["markets"], c["horizon"], c["backend"]): c
        for c in baseline["cells"]
    }
    matched = 0
    regressions = []
    for cell in fresh["cells"]:
        ref = base.get((cell["markets"], cell["horizon"], cell["backend"]))
        if ref is None or ref["warm_median_ms"] <= 0:
            continue
        matched += 1
        ratio = cell["warm_median_ms"] / ref["warm_median_ms"]
        if ratio > REGRESS_FACTOR:
            regressions.append(
                {
                    "markets": cell["markets"],
                    "horizon": cell["horizon"],
                    "backend": cell["backend"],
                    "warm_median_ms": cell["warm_median_ms"],
                    "baseline_warm_median_ms": ref["warm_median_ms"],
                    "ratio": ratio,
                }
            )
    if matched == 0:
        raise ValueError("no overlapping cells between fresh and baseline")
    return regressions


def _sim_cell_key(cell: dict) -> tuple:
    """Identity of a sim cell across runs.

    Interval cells carry ``policy``/``markets``; cluster-engine cells
    carry ``engine``/``peak_rps``.  Both kinds may coexist in one file.
    """
    if "engine" in cell:
        return ("engine", cell["engine"], float(cell["peak_rps"]))
    return ("policy", cell["policy"], cell["markets"])


def sim_regressions(fresh: dict, baseline: dict) -> list[dict]:
    """Throughput regressions of ``fresh`` against a recorded sim baseline.

    Cells are matched by :func:`_sim_cell_key`; a cell regresses when its
    median intervals/second falls below ``1/REGRESS_FACTOR`` of the
    baseline's.  Cells present on only one side are ignored (the CI quick
    grid skips the 500k cell), but zero overlap is an error — a vacuous
    comparison would silently gate nothing.
    """
    for data in (fresh, baseline):
        if data.get("schema") != SCHEMA_SIM:
            raise ValueError("sim regression check needs bench-sim results")
    base = {_sim_cell_key(c): c for c in baseline["cells"]}
    matched = 0
    regressions = []
    for cell in fresh["cells"]:
        ref = base.get(_sim_cell_key(cell))
        if ref is None or ref["intervals_per_sec_median"] <= 0:
            continue
        matched += 1
        ratio = (
            ref["intervals_per_sec_median"] / cell["intervals_per_sec_median"]
        )
        if ratio > REGRESS_FACTOR:
            regressions.append(
                {
                    "cell": _sim_cell_key(cell),
                    "intervals_per_sec_median": cell[
                        "intervals_per_sec_median"
                    ],
                    "baseline_intervals_per_sec_median": ref[
                        "intervals_per_sec_median"
                    ],
                    "slowdown": ratio,
                }
            )
    if matched == 0:
        raise ValueError("no overlapping cells between fresh and baseline")
    return regressions


def hybrid_speedup_violations(fresh: dict) -> list[dict]:
    """Hybrid cells not beating the request-level reference by enough.

    Each ``engine="hybrid"`` cell is paired with the ``engine="request"``
    cell of the same run at the same ``peak_rps``: both ran in one
    process, so host speed cancels out of the ratio.  Hybrid cells with
    no request reference at their rate (the 500k cell: the request tier
    cannot feasibly run it) are skipped; at least one pair must match.
    Returns the cells below ``HYBRID_SPEEDUP_FLOOR`` (empty list == the
    two-tier engine is earning its keep).
    """
    if fresh.get("schema") != SCHEMA_SIM:
        raise ValueError("hybrid speedup check needs bench-sim results")
    request_by_rate = {
        float(c["peak_rps"]): c
        for c in fresh["cells"]
        if c.get("engine") == "request"
    }
    matched = 0
    violations = []
    for cell in fresh["cells"]:
        if cell.get("engine") != "hybrid":
            continue
        ref = request_by_rate.get(float(cell["peak_rps"]))
        if ref is None or ref["intervals_per_sec_median"] <= 0:
            continue
        matched += 1
        speedup = (
            cell["intervals_per_sec_median"] / ref["intervals_per_sec_median"]
        )
        if speedup < HYBRID_SPEEDUP_FLOOR:
            violations.append(
                {
                    "peak_rps": float(cell["peak_rps"]),
                    "intervals_per_sec_median": cell[
                        "intervals_per_sec_median"
                    ],
                    "request_intervals_per_sec_median": ref[
                        "intervals_per_sec_median"
                    ],
                    "speedup": speedup,
                }
            )
    if matched == 0:
        raise ValueError("no hybrid/request cell pair to compare")
    return violations


def gate_failures(
    mpo: dict,
    sim: dict,
    accuracy: list[dict],
    smoke: dict,
    sweep: dict,
    sessions: dict,
    baselines: tuple[dict, dict] | None = None,
) -> list[str]:
    """One message per broken bound, each naming its constant.

    ``accuracy``, ``smoke``, ``sweep`` and ``sessions`` are the results of
    :mod:`repro.bench.sim`'s ``check_hybrid_accuracy``,
    ``check_hybrid_speedup``, ``check_parallel_speedup`` and
    ``check_session_scaling``;
    ``baselines`` is the committed ``(BENCH_mpo, BENCH_sim)`` pair, which
    adds the two regression gates.  The parallel floor applies only on a
    host with at least as many CPUs as the sweep had workers; the bitwise
    check always does.  Empty list == every gate holds.
    """
    failures = []
    slow = crossover_violations(mpo)
    if slow:
        failures.append(
            f"CROSSOVER_VARS: structured slower than dense past "
            f"N*H >= {CROSSOVER_VARS}: "
            + ", ".join(
                f"N={v['markets']} H={v['horizon']} ({v['warm_speedup']:.2f}x)"
                for v in slow
            )
        )
    slow = hybrid_speedup_violations(sim)
    if slow:
        failures.append(
            f"HYBRID_SPEEDUP_FLOOR: hybrid below {HYBRID_SPEEDUP_FLOOR:g}x "
            f"request level: "
            + ", ".join(
                f"peak={v['peak_rps']:g} ({v['speedup']:.1f}x)" for v in slow
            )
        )
    off = [c for c in accuracy if c["rel_error"] > P99_TOLERANCE]
    if off:
        failures.append(
            f"P99_TOLERANCE: {len(off)} accuracy cell(s) beyond "
            f"{P99_TOLERANCE:.0%} relative P99 error"
        )
    if smoke["speedup"] < SMOKE_SPEEDUP_FLOOR:
        failures.append(
            f"SMOKE_SPEEDUP_FLOOR: smoke cell hybrid only "
            f"{smoke['speedup']:.1f}x (need {SMOKE_SPEEDUP_FLOOR:g}x)"
        )
    if sweep["mismatches"]:
        failures.append(f"parallel sweep != serial at {sweep['mismatches']}")
    if (
        sweep["cpus"] >= sweep["workers"]
        and sweep["speedup"] < PARALLEL_SPEEDUP_FLOOR
    ):
        failures.append(
            f"PARALLEL_SPEEDUP_FLOOR: parallel sweep only "
            f"{sweep['speedup']:.2f}x (need {PARALLEL_SPEEDUP_FLOOR:g}x)"
        )
    if sessions["ratio"] > SESSION_SCALING_CEILING:
        failures.append(
            f"SESSION_SCALING_CEILING: a session draw costs "
            f"{sessions['ratio']:.2f}x more at {sessions['sessions'][1]} live "
            f"sessions than at {sessions['sessions'][0]} "
            f"(allowed {SESSION_SCALING_CEILING:g}x)"
        )
    if baselines is not None:
        mpo_base, sim_base = baselines
        slow = bench_regressions(mpo, mpo_base)
        if slow:
            failures.append(
                f"REGRESS_FACTOR: warm latency regressed beyond "
                f"{REGRESS_FACTOR:g}x: "
                + ", ".join(
                    f"N={r['markets']} H={r['horizon']} {r['backend']} "
                    f"({r['ratio']:.2f}x)"
                    for r in slow
                )
            )
        slow = sim_regressions(sim, sim_base)
        if slow:
            failures.append(
                f"REGRESS_FACTOR: simulator throughput regressed beyond "
                f"{REGRESS_FACTOR:g}x: "
                + ", ".join(
                    f"{r['cell']} ({r['slowdown']:.2f}x slower)" for r in slow
                )
            )
    return failures


def format_checks(
    accuracy: list[dict], smoke: dict, sweep: dict, sessions: dict
) -> str:
    """The accuracy grid, smoke cell, parallel sweep and session draw,
    one line each."""
    lines = [
        f"p99 accuracy peak={c['peak_rps']:g} servers={c['servers']} "
        f"revoke={c['revoke']}: hybrid {c['p99_hybrid_s']:.3f}s vs "
        f"request {c['p99_request_s']:.3f}s (rel err {c['rel_error']:.1%}, "
        f"tiers {c['tier_steps']})"
        for c in accuracy
    ]
    lines.append(
        f"perf smoke: hybrid {smoke['hybrid_intervals_per_sec']:.1f} ips "
        f"vs request {smoke['request_intervals_per_sec']:.1f} ips "
        f"-> {smoke['speedup']:.1f}x (tiers {smoke['tier_steps']})"
    )
    lines.append(
        f"parallel sweep: serial {sweep['serial_seconds']:.1f}s, "
        f"{sweep['workers']} workers {sweep['parallel_seconds']:.1f}s "
        f"-> {sweep['speedup']:.2f}x"
    )
    if sweep["cpus"] < sweep["workers"]:
        lines.append(
            f"parallel floor ({PARALLEL_SPEEDUP_FLOOR:g}x) not applied: "
            f"{sweep['cpus']} CPUs < {sweep['workers']} workers"
        )
    small, large = sessions["sessions"]
    lines.append(
        f"session draw: {sessions['draw_us'][0]:.2f} us at {small} live "
        f"sessions, {sessions['draw_us'][1]:.2f} us at {large} "
        f"-> {sessions['ratio']:.2f}x"
    )
    return "\n".join(lines)


def format_bench_mpo(data: dict) -> str:
    from repro.textfmt import format_table

    # Files recorded before the per-iteration keys existed print "-".
    rows = [
        [
            c["markets"],
            c["horizon"],
            c["backend"],
            c["cold_ms"],
            c["warm_median_ms"],
            c["warm_max_ms"],
            c.get("warm_iters_mean", "-"),
            c.get("warm_us_per_iter", "-"),
        ]
        for c in data["cells"]
    ]
    table = format_table(
        [
            "markets",
            "H",
            "backend",
            "cold_ms",
            "warm_med_ms",
            "warm_max_ms",
            "warm_iters",
            "us_per_iter",
        ],
        rows,
        title="MPO solve latency",
    )
    if data.get("speedups"):
        srows = [
            [
                s["markets"],
                s["horizon"],
                s["warm_speedup"],
                s["cold_speedup"],
                s["objective_gap"],
            ]
            for s in data["speedups"]
        ]
        table += "\n" + format_table(
            ["markets", "H", "warm_x", "cold_x", "obj_gap"],
            srows,
            title="structured vs dense",
        )
    return table


def format_bench_sim(data: dict) -> str:
    from repro.textfmt import format_table

    interval_cells = [c for c in data["cells"] if "policy" in c]
    cluster_cells = [c for c in data["cells"] if "engine" in c]
    parts = []
    if interval_cells:
        rows = [
            [
                c["policy"],
                c["markets"],
                c["intervals"],
                c["intervals_per_sec_median"],
                c["intervals_per_sec_max"],
            ]
            for c in interval_cells
        ]
        parts.append(
            format_table(
                ["policy", "markets", "intervals", "ips_median", "ips_max"],
                rows,
                title="cost simulator throughput (intervals/sec)",
            )
        )
    if cluster_cells:
        rows = [
            [
                c["engine"],
                c["peak_rps"],
                c["servers"],
                c["sim_seconds"],
                c["intervals_per_sec_median"],
                c["tier_steps"].get("fluid", 0),
                c["tier_steps"].get("request", 0),
                c["p99_s"],
            ]
            for c in cluster_cells
        ]
        parts.append(
            format_table(
                [
                    "engine",
                    "peak_rps",
                    "servers",
                    "sim_s",
                    "ips_median",
                    "fluid",
                    "request",
                    "p99_s",
                ],
                rows,
                title="cluster engine throughput (sim-intervals/sec)",
            )
        )
    return "\n".join(parts)
