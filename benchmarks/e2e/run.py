#!/usr/bin/env python3
"""End-to-end benchmark of the SpotWeb reproduction.

One workload in this process, printing one JSON result line last::

    python3 benchmarks/e2e/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every workload, each in a fresh child process, one at a time::

    python3 benchmarks/e2e/run.py [--out result.json] [--seed N] [--workloads a,b]

Two result sets, cell by cell::

    python3 benchmarks/e2e/run.py --compare PARENT CHANGE

Without ``--trace`` a run measures the end-to-end metrics with tracing,
events and telemetry off.  ``--trace 1`` alternates untraced and traced
runs and reports the per-layer ledger (see ``ledger.py``).  Every run's
outputs are checked; the exit code is non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"

#: Environment of every measured process: runtime contracts off (the
#: existing bench convention), single-threaded BLAS so the load is one
#: busy thread, and tracing/events/telemetry unset.
PINNED_ENV = {
    "SPOTWEB_CONTRACTS": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
UNSET_ENV = ("SPOTWEB_TRACE", "SPOTWEB_EVENTS", "SPOTWEB_TELEMETRY")

#: The names of ``workloads.WORKLOADS``, listed here because importing that
#: module imports ``repro``, which ``--compare`` and ``--help`` do not need.
WORKLOAD_NAMES = ("costsim_fig6b", "costsim_vod", "fig4a_lb", "fluid_500k", "closed_loop")

#: End-to-end metric -> unit.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Timed runs per process, at least, however long they take.
MIN_RUNS = 3
#: Set-ups per process (this one plus fresh ones), for the set-up median.
SETUPS = 3
#: A fresh set-up that takes longer than this counts as failed.
PROBE_TIMEOUT_S = 170


def per_layer_units() -> dict[str, str]:
    """Per-layer metric -> unit, in the order the traced run reports them."""
    from ledger import LAYERS

    units: dict[str, str] = {}
    for layer in LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.calls": "count", f"{layer}.share": "frac"})
    units.update(
        {
            "unattributed.self_s": "s",
            "unattributed.share": "frac",
            "trace.self_s": "s",
            "trace.residual_pct": "%",
            "core.controller.decide_ms_p50": "ms",
            "core.controller.decide_ms_p99": "ms",
            "solvers.iters_mean": "count",
            "solvers.unconverged": "count",
            "simulator.des.events": "count",
            "loadbalancer.accept_ratio": "frac",
            "simulator.server.accept_ratio": "frac",
            "simulator.fluid.sync_s": "s",
            "simulator.fluid.step_s": "s",
            "simulator.fluid.ns_per_server_step": "ns",
            "simulator.hybrid.moved": "count",
            "simulator.hybrid.fluid_share": "frac",
            "trace.overhead_pct": "%",
            "trace.wrapper_ns": "ns",
            "obs.calls": "count",
            "obs.off_est_s": "s",
        }
    )
    return units


def _pin_environment() -> None:
    os.environ.update(PINNED_ENV)
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _run_seconds() -> int:
    return int(json.loads(BENCHMARK.read_text())["run_seconds"])


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values: list[float], p: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(p / 100.0 * len(ordered)))])


# -------------------------------------------------------------------- checks
class Checker:
    """Checks one run's outputs.

    Outputs are compared after a JSON round-trip: exactly against
    ``reference.json`` at the workload's default seed, and exactly against
    the first run of the same seed otherwise (same seed, same outputs;
    wrapped and unwrapped runs alike).  Seed-independent invariants are
    checked at every seed.
    """

    def __init__(self, workload, reference: dict | None) -> None:
        self.workload = workload
        self.reference = reference
        self.first: dict | None = None

    def __call__(self, outputs: dict) -> list[str]:
        out = json.loads(json.dumps(outputs))
        problems = [f"invariant: {msg}" for msg in self.workload.invariants(out)]
        if self.reference is not None and out != self.reference:
            problems.append("outputs differ from reference.json")
        if self.first is None:
            self.first = out
        elif out != self.first:
            problems.append("outputs differ from an earlier run at the same seed")
        return problems


def load_reference(name: str, seed: int, default_seed: int) -> dict | None:
    """The workload's reference outputs, or None at a non-default seed."""
    if seed != default_seed or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(name)


# ------------------------------------------------------------- one workload
class Session:
    """One process's runs of one workload: set-up, checks, bookkeeping."""

    def __init__(self, name: str, seed: int | None) -> None:
        t0 = time.perf_counter()
        import workloads

        self.workload = workloads.WORKLOADS[name]()
        self.seed = self.workload.default_seed if seed is None else seed
        self.inputs = self.workload.build(self.seed)
        self.setup_s = time.perf_counter() - t0
        self.check = Checker(
            self.workload, load_reference(name, self.seed, self.workload.default_seed)
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        """Record one failed operation (a run, a set-up, a ledger check)."""
        self.failed += 1
        self.problems.append(problem)

    def run(
        self, *, before_timer=None, decide_ms: list[float] | None = None
    ) -> tuple[float, bool]:
        """Build inputs (unless left over from set-up), run, check.

        ``before_timer`` runs after the inputs exist and before the clock
        starts (the traced run installs its wrappers around the build, and
        resets them here).  ``decide_ms``, if given, collects the run's
        decision latencies.  Returns the wall time and whether it passed.
        """
        inputs, self.inputs = self.inputs, None
        if inputs is None:
            inputs = self.workload.build(self.seed)
        gc.collect()
        if before_timer is not None:
            before_timer()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outputs = self.workload.run(inputs)
        except Exception as exc:  # a failed run is counted, not fatal
            wall = time.perf_counter() - t0
            self.fail(f"run {self.attempted}: raised {exc!r}")
            return wall, False
        wall = time.perf_counter() - t0
        problems = self.check(outputs)
        if problems:
            self.fail(f"run {self.attempted}: " + "; ".join(problems))
        if decide_ms is not None:
            decide_ms.extend(self.workload.decide_ms(inputs))
        return wall, not problems


def _probe_command(name: str, seed: int) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-only"]


def _setup_probe(session: Session, name: str) -> float | None:
    """Set-up time of one fresh process, or None if it failed."""
    session.attempted += 1
    try:
        proc = subprocess.run(
            _probe_command(name, session.seed), capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        session.fail(f"set-up probe took over {PROBE_TIMEOUT_S} s")
        return None
    try:
        return float(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        session.fail(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None


def measure_e2e(session: Session, name: str, seconds: float) -> tuple[dict, dict]:
    """The untraced measurement: metrics and their sample counts.

    ``setup_s`` is the median of this process's set-up and fresh ones.
    The host slows for seconds at a time, so the fresh set-ups are spread
    over the window rather than run back to back; their spread is also
    what ``--compare`` takes as the noise of a single result set.  Every
    timed run does the same work (its outputs are checked equal), so their
    spread is host interference; ``wall_s`` is the least disturbed, the
    fastest.
    """
    session.run()  # warm-up: lazy imports, allocator, caches
    setups = [session.setup_s]

    def probe() -> None:
        value = _setup_probe(session, name)
        if value is not None:
            setups.append(value)

    walls: list[float] = []
    start = time.perf_counter()
    # One fresh set-up inside the window per interior point, the last after it.
    inside = [start + seconds * i / (SETUPS - 1) for i in range(1, SETUPS - 1)]
    while len(walls) < MIN_RUNS or time.perf_counter() < start + seconds:
        walls.append(session.run()[0])
        if inside and time.perf_counter() >= inside[0]:
            inside.pop(0)
            probe()
    for _ in range(len(inside) + min(1, SETUPS - 1)):
        probe()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": _median(setups), "n": len(setups), "samples": setups},
        "wall_s": {"value": min(walls), "n": len(walls), "samples": walls},
        "peak_rss_mb": {"value": rss_mb, "n": 1},
    }
    for key, metric in metrics.items():
        metric["unit"] = E2E_UNITS[key]
    return metrics, {}


def measure_layers(session: Session, name: str, seconds: float) -> tuple[dict, dict]:
    """Untraced and traced runs in turn; the per-layer ledger of the traced ones."""
    import ledger as lg
    from repro.obs.tracer import Tracer, load_trace

    plain, spanned, shim_s = lg.calibrate()
    obs_costs = lg.obs_off_costs()
    session.run()  # warm-up
    untraced, traced, booked = [], [], []
    # (layer, entry point) -> [self_s, calls, calls that returned True]
    totals: dict[tuple[str, str], list[float]] = {}
    unattributed = 0.0
    extras = dict.fromkeys(lg.EXTRA_COUNTS, 0.0)
    obs_calls = obs_est = 0.0
    decide_ms: list[float] = []  # from the untraced runs
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(session.run(decide_ms=decide_ms)[0])
        tracer = Tracer(enabled=True)
        ledger = lg.Ledger(tracer=tracer, plain=plain, spanned=spanned, shim_s=shim_s)
        inst = lg.install(ledger)
        try:
            wall, _ok = session.run(before_timer=lambda: lg.reset(inst))
        finally:
            lg.uninstall(inst)
        traced.append(wall)
        rows = ledger.fold(wall)
        unattributed += rows["unattributed"]["self_s"]
        booked.append(rows["trace"]["self_s"])
        for e in ledger.entries:
            acc = totals.setdefault((e.layer, e.name), [0.0, 0.0, 0.0])
            acc[0] += e.self_s
            acc[1] += e.calls
            acc[2] += e.accepted
        for key, value in inst.extras.items():
            extras[key] += value
        obs_calls += sum(ledger.shim_calls.values())
        obs_est += sum(obs_costs[k] * n for k, n in ledger.shim_calls.items())
    runs = len(traced)
    residual = lg.residual(untraced, traced, booked)
    warnings = []
    if abs(residual) > lg.RESIDUAL_LIMIT:
        # Flagged, not failed: a whole run slowed by the host moves it too.
        warnings.append(
            f"ledger off: traced wall less calibrated tracing cost is {100 * residual:+.1f}% "
            f"from the untraced wall (limit {100 * lg.RESIDUAL_LIMIT:.0f}%)"
        )
    trace_file = OUT_DIR / f"{name}-seed{session.seed}.trace.jsonl"
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(trace_file)  # the last traced run's spans
    try:
        load_trace(trace_file)
    except ValueError as exc:
        session.fail(f"trace file invalid: {exc}")

    def entry(layer: str, *names: str) -> list[float]:
        """Summed totals of a layer's entry points (all of them by default)."""
        sums = [0.0, 0.0, 0.0]
        for (lay, nm), acc in totals.items():
            if lay == layer and (not names or nm in names):
                sums = [a + b for a, b in zip(sums, acc)]
        return sums

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for layer in lg.LAYERS:
        self_s, calls, _accepted = entry(layer)
        values[f"{layer}.self_s"] = self_s / runs
        values[f"{layer}.calls"] = calls / runs
        values[f"{layer}.share"] = ratio(self_s, sum(traced))
    values["unattributed.self_s"] = unattributed / runs
    values["unattributed.share"] = ratio(unattributed, sum(traced))
    values["trace.self_s"] = sum(booked) / runs
    values["trace.residual_pct"] = 100.0 * residual
    values["core.controller.decide_ms_p50"] = _percentile(decide_ms, 50)
    values["core.controller.decide_ms_p99"] = _percentile(decide_ms, 99)
    solves = entry("solvers", "ADMMCore.solve")[1]
    values["solvers.iters_mean"] = ratio(extras["solvers.iterations"], solves)
    values["solvers.unconverged"] = extras["solvers.unconverged"] / runs
    values["simulator.des.events"] = extras["simulator.des.events"] / runs
    lb = entry("loadbalancer", "VanillaLoadBalancer.dispatch", "TransiencyAwareLoadBalancer.dispatch")
    values["loadbalancer.accept_ratio"] = ratio(lb[2], lb[1])
    submit = entry("simulator.server", "SimServer.submit")
    values["simulator.server.accept_ratio"] = ratio(submit[2], submit[1])
    sync = entry("simulator.fluid", "FluidEngine.sync")
    step = entry("simulator.fluid", "FluidEngine.step")
    values["simulator.fluid.sync_s"] = sync[0] / runs
    values["simulator.fluid.step_s"] = step[0] / runs
    values["simulator.fluid.ns_per_server_step"] = 1e9 * ratio(
        step[0], extras["simulator.fluid.server_steps"]
    )
    values["simulator.hybrid.moved"] = extras["simulator.hybrid.moved"] / runs
    values["simulator.hybrid.fluid_share"] = ratio(
        extras["simulator.hybrid.fluid_steps"],
        extras["simulator.hybrid.fluid_steps"] + extras["simulator.hybrid.request_steps"],
    )
    # The least disturbed run of each kind, as for wall_s and the residual.
    values["trace.overhead_pct"] = 100.0 * (min(traced) / min(untraced) - 1.0)
    values["trace.wrapper_ns"] = 1e9 * plain.total
    values["obs.calls"] = obs_calls / runs
    values["obs.off_est_s"] = obs_est / runs  # estimated, not measured
    units = per_layer_units()
    metrics = {k: {"value": v, "unit": units[k], "n": runs} for k, v in values.items()}
    metrics["core.controller.decide_ms_p50"]["n"] = len(decide_ms)
    metrics["core.controller.decide_ms_p99"]["n"] = len(decide_ms)
    ranking = sorted(
        ((layer, values[f"{layer}.share"]) for layer in lg.LAYERS),
        key=lambda item: -item[1],
    )
    detail = {
        "ranking": [[layer, share] for layer, share in ranking],
        "traced_wall_s": traced,
        "untraced_wall_s": untraced,
        "trace_booked_s": booked,
        "trace_file": str(trace_file.relative_to(ROOT)),
        "warnings": warnings,
    }
    return metrics, detail


def run_workload(name: str, seed: int | None, seconds: float, trace: bool) -> dict:
    """Measure one workload in this process; the detailed result."""
    session = Session(name, seed)
    measure = measure_layers if trace else measure_e2e
    metrics, detail = measure(session, name, seconds)
    return {
        "workload": name,
        "seed": session.seed,
        "trace": trace,
        "seconds": seconds,
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "warnings": [],
        "metrics": metrics,
        **detail,
    }


def result_line(result: dict) -> str:
    """The last stdout line of a workload run: these four keys and no others."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                k: {"value": m["value"], "unit": m["unit"]}
                for k, m in result["metrics"].items()
            },
        }
    )


def _print_metrics(name: str, metrics: dict) -> None:
    for key, m in metrics.items():
        print(f"{name:14s} {key:40s} {m['value']:14.6g} {m['unit']:6s} n={m['n']}")


# ------------------------------------------------------------------- suite
def run_suite(names: list[str], seed: int | None, seconds: float, out: Path) -> int:
    """Every workload in a fresh child, untraced then traced; one result file."""
    OUT_DIR.mkdir(exist_ok=True)
    result = {
        "schema": "spotweb-e2e/1",
        "started_unix": time.time(),
        "seed": seed,
        "seconds": seconds,
        "env": dict(PINNED_ENV, unset=list(UNSET_ENV)),
        "workloads": {},
    }
    ok = True
    for name in names:
        parts = []
        for trace in (0, 1):
            detail_path = OUT_DIR / f"{name}-trace{trace}.detail.json"
            detail_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(seconds), "--trace", str(trace), "--out", str(detail_path)]
            if seed is not None:
                cmd += ["--seed", str(seed)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if not detail_path.exists():
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name}: child exited {proc.returncode} without a result")
            parts.append(json.loads(detail_path.read_text()))
        e2e, layers = parts
        entry = {
            "seed": e2e["seed"],
            "correct": e2e["correct"] and layers["correct"],
            "attempted": e2e["attempted"] + layers["attempted"],
            "failed": e2e["failed"] + layers["failed"],
            "problems": e2e["problems"] + layers["problems"],
            "warnings": e2e["warnings"] + layers["warnings"],
            "metrics": e2e["metrics"],
            "layers": {k: m["value"] for k, m in layers["metrics"].items()},
            "ranking": layers["ranking"],
            "trace_file": layers["trace_file"],
        }
        result["workloads"][name] = entry
        ok = ok and entry["correct"]
        _print_metrics(name, e2e["metrics"])
        top = ", ".join(f"{layer} {100 * share:.0f}%" for layer, share in entry["ranking"][:3])
        print(f"{name:14s} top layers: {top}; failed {entry['failed']}/{entry['attempted']}")
        for problem in entry["problems"]:
            print(f"{name:14s} FAILED {problem}")
        for warning in entry["warnings"]:
            print(f"{name:14s} WARNING {warning}")
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def write_reference(names: list[str]) -> None:
    """Record each workload's outputs at its default seed as the oracle."""
    import workloads

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names:
        wl = workloads.WORKLOADS[name]()
        reference[name] = json.loads(json.dumps(wl.run(wl.build(wl.default_seed))))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


# -------------------------------------------------------------------- main
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES, help="measure one workload in this process")
    p.add_argument("--workloads", help="suite mode: comma-separated subset")
    p.add_argument("--seed", type=int, help="replaces every workload's default seed")
    p.add_argument("--seconds", type=float, help="measurement window (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer ledger")
    p.add_argument("--out", type=Path, help="write the detailed result here")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="compare two result files or directories of them")
    p.add_argument("--update-reference", action="store_true",
                   help="rewrite reference.json from the default seeds (after a deliberate output change)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        from compare import compare_main

        return compare_main(Path(args.compare[0]), Path(args.compare[1]), BENCHMARK)
    _pin_environment()
    seconds = args.seconds if args.seconds is not None else _run_seconds()
    if args.workload is None:
        names = args.workloads.split(",") if args.workloads else list(WORKLOAD_NAMES)
        unknown = sorted(set(names) - set(WORKLOAD_NAMES))
        if unknown:
            raise SystemExit(f"unknown workloads: {unknown}")
        if args.update_reference:
            write_reference(names)
            return 0
        return run_suite(names, args.seed, seconds, args.out or OUT_DIR / "result.json")
    if args.setup_only:
        print(Session(args.workload, args.seed).setup_s)
        return 0
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    _print_metrics(args.workload, result["metrics"])
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for warning in result["warnings"]:
        print(f"WARNING {warning}")
    print(result_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
