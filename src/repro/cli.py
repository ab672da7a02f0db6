"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``experiment <name>`` — run one paper experiment and print its rows
  (``table1``, ``table1_costs``, ``fig3``, ``fig4a``, ``fig4bcd``,
  ``fig5``, ``fig6a``, ``fig6b``, ``fig7a``, ``fig7b``, ``lookahead``).
  ``--parallel``/``--workers`` fan independent cells over a process pool
  with results identical to serial.
- ``run <name>`` — like ``experiment`` plus observability: ``--trace
  [PATH]`` records a span trace of the whole run to a ``spotweb-trace/1``
  JSONL file and prints the metrics snapshot; ``--events [PATH]``
  journals the service-level domain events (revocation warnings, drains,
  migrations, SLO state) to a ``spotweb-events/1`` JSONL file;
  ``--prom-out`` exports the metrics registry in Prometheus text format
  (atomically, refreshed at every sim interval while the telemetry bus
  is live); ``--quick`` shrinks the workload to CI size.  Two flags
  switch the in-process telemetry bus on: ``--serve-metrics PORT``
  (live OpenMetrics scrape endpoint, ``--serve-hold SEC`` keeps it up
  after the run) and ``--flightrec DIR`` (arm the flight recorder: SLO
  burn-rate alerts and crashes dump a bundle, a window of the journal).
- ``top <name>`` — live-refreshing ASCII dashboard of one run (fleet
  by market, RPS, P99, burn rate, cost, warnings, anomalies) driven
  off the telemetry bus; ``--once`` renders a single deterministic
  final snapshot instead of repainting.
- ``trace summarize|validate <file>`` — critical-path breakdown, top
  spans, and per-phase timeline of a recorded trace; or schema check.
- ``events validate|summarize|timeline|diff <file> [file_b]`` — schema +
  causal-integrity check, incident report, ASCII incident timeline, or a
  by-interval divergence diff of two journals; each also reads flight
  bundles.
- ``scenarios run|list|check`` — the adversarial scenario suite: run a
  pack (journals per cell), list the registered families, or evaluate
  journals against their invariant packs (non-zero exit on violation).
  ``run --flightrec DIR`` arms the flight recorder for the whole pack:
  in-episode SLO alerts auto-dump, and a failed ``--check`` dumps an
  ``invariant.violation`` bundle naming the broken invariants.
- ``list`` — list available experiments with one-line descriptions.
- ``catalog`` — print the instance catalog / market universe.
- ``advisor`` — print the emulated Spot Instance Advisor table for a
  synthetic dataset.
- ``bench`` — the one perf entry point: run the solver/simulator
  benchmarks, write the machine-readable ``BENCH_mpo.json`` /
  ``BENCH_sim.json`` baselines, and exit non-zero when any bound of
  :mod:`repro.bench.report` breaks (crossover, hybrid speedup floors,
  hybrid P99 tolerance, parallel sweep); ``--compare DIR`` also gates
  regressions against DIR's committed baselines.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

__all__ = ["main", "build_parser", "EXPERIMENTS"]


def _run_table1(args) -> str:
    from repro.experiments import table1

    return table1.format_table1()


def _run_table1_costs(args) -> str:
    from repro.experiments import table1

    return table1.format_table1_costs(
        table1.run_table1_costs(
            weeks=args.weeks,
            workload=args.workload,
            seed=args.seed,
            parallel=args.parallel,
            max_workers=args.workers,
        )
    )


def _run_fig3(args) -> str:
    from repro.experiments import fig3_workloads

    return fig3_workloads.format_fig3(
        fig3_workloads.run_fig3(weeks=args.weeks, seed=args.seed)
    )


def _run_fig4a(args) -> str:
    from repro.experiments import fig4a_loadbalancer

    return fig4a_loadbalancer.format_fig4a(
        fig4a_loadbalancer.run_fig4a(
            seed=args.seed,
            scale=args.scale,
            engine=getattr(args, "engine", "request"),
        )
    )


def _run_fig4bcd(args) -> str:
    from repro.experiments import fig4bcd_prediction

    return fig4bcd_prediction.format_fig4bcd(
        fig4bcd_prediction.run_fig4bcd(weeks=args.weeks, seed=args.seed)
    )


def _run_fig5(args) -> str:
    from repro.experiments import fig5_price_awareness

    return fig5_price_awareness.format_fig5(
        fig5_price_awareness.run_fig5(
            seed=args.seed, parallel=args.parallel, max_workers=args.workers
        )
    )


def _run_fig6a(args) -> str:
    from repro.experiments import fig6a_constant

    return fig6a_constant.format_fig6a(
        fig6a_constant.run_fig6a(
            hours=getattr(args, "hours", 72),
            seed=args.seed,
            parallel=args.parallel,
            max_workers=args.workers,
        )
    )


def _run_fig6b(args) -> str:
    from repro.experiments import fig6b_exosphere

    return fig6b_exosphere.format_fig6b(
        fig6b_exosphere.run_fig6b(
            weeks=args.weeks,
            seeds=(args.seed,),
            workload=args.workload,
            parallel=args.parallel,
            max_workers=args.workers,
        )
    )


def _run_fig7a(args) -> str:
    from repro.experiments import fig7a_accuracy

    return fig7a_accuracy.format_fig7a(
        fig7a_accuracy.run_fig7a(weeks=args.weeks, seed=args.seed)
    )


def _run_fig7b(args) -> str:
    from repro.experiments import fig7b_scalability

    return fig7b_scalability.format_fig7b(fig7b_scalability.run_fig7b())


def _run_lookahead(args) -> str:
    from repro.experiments import lookahead

    return lookahead.format_lookahead(
        lookahead.run_lookahead(
            weeks=args.weeks,
            seed=args.seed,
            parallel=args.parallel,
            max_workers=args.workers,
        )
    )


def _run_gcloud(args) -> str:
    from repro.experiments import gcloud

    return gcloud.format_gcloud(
        gcloud.run_gcloud(weeks=args.weeks, seed=args.seed)
    )


EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "table1": ("qualitative comparison of approaches", _run_table1),
    "table1_costs": ("Table-1 approaches head-to-head cost sweep", _run_table1_costs),
    "fig3": ("workload trace shapes", _run_fig3),
    "fig4a": ("transiency-aware load balancing (request-level DES)", _run_fig4a),
    "fig4bcd": ("prediction error with/without CI padding", _run_fig4bcd),
    "fig5": ("price-awareness, 3-market race", _run_fig5),
    "fig6a": ("SpotWeb vs constant portfolio + oracle autoscaler", _run_fig6a),
    "fig6b": ("SpotWeb vs ExoSphere-in-a-loop sweep", _run_fig6b),
    "fig7a": ("savings vs prediction accuracy", _run_fig7a),
    "fig7b": ("optimizer scalability", _run_fig7b),
    "lookahead": ("Sec. 7: look-ahead vs startup time", _run_lookahead),
    "gcloud": ("Sec. 7: Google-preemptible mode", _run_gcloud),
}

#: experiment name -> the module of ``repro.experiments`` its runner imports
_MODULES: dict[str, str] = {
    "table1": "table1",
    "table1_costs": "table1",
    "fig3": "fig3_workloads",
    "fig4a": "fig4a_loadbalancer",
    "fig4bcd": "fig4bcd_prediction",
    "fig5": "fig5_price_awareness",
    "fig6a": "fig6a_constant",
    "fig6b": "fig6b_exosphere",
    "fig7a": "fig7a_accuracy",
    "fig7b": "fig7b_scalability",
    "lookahead": "lookahead",
    "gcloud": "gcloud",
}


class _Observed:
    """The observability one command switches on, and its undo.

    ``run``, ``top`` and ``scenarios run --flightrec`` share this set-up:
    reset the metrics registry, switch the tracer and journal on as asked,
    and for telemetry enable the bus, subscribe an
    :class:`~repro.obs.anomaly.AnomalyMonitor` first (so its flags reach
    later sinks on the next frame, the order scenario episodes use) and
    start and announce the metrics endpoint.
    :meth:`restore` puts the tracer, journal, bus, flight recorder and
    crash hook back as they were.  Commands call it on their normal
    return, not in a ``finally``: an exception leaving ``main`` must
    still find the recorder armed and the crash hook installed.
    """

    def __init__(
        self, *, trace=False, events=False, telemetry=False, serve_metrics=None
    ):
        from repro.obs import events as ev
        from repro.obs import flightrec, live, metrics, tracer
        from repro.obs.anomaly import AnomalyMonitor

        self._was = (
            tracer.tracing_enabled(),
            ev.events_enabled(),
            live.telemetry_enabled(),
            flightrec.flightrec_enabled(),
            sys.excepthook,
        )
        self._sinks: list[Callable[[dict], None]] = []
        metrics.reset_metrics()
        if trace:
            tracer.enable_tracing()
        if events or telemetry:
            ev.enable_events()
        self.bus = live.enable_telemetry() if telemetry else None
        self.server = None
        if telemetry:
            self.subscribe(AnomalyMonitor())
            if serve_metrics is not None:
                self.server = self.subscribe(live.MetricsServer(serve_metrics))
                self.server.start()
                # Announce before the run so scrapers can find the port.
                print(f"serving metrics at {self.server.url}", flush=True)

    def subscribe(self, fn):
        """Subscribe ``fn`` to the bus until :meth:`restore`."""
        self._sinks.append(self.bus.subscribe(fn))
        return fn

    def restore(self) -> None:
        from repro.obs import events as ev
        from repro.obs import flightrec, live, tracer

        tracing, journaling, streaming, recording, hook = self._was
        if self.server is not None:
            self.server.stop()
        for fn in self._sinks:
            self.bus.unsubscribe(fn)
        if not recording:
            flightrec.disable_flightrec()
        if sys.excepthook is not hook:
            flightrec.uninstall_crash_hooks()
        if not streaming:
            live.disable_telemetry()
        if not journaling:
            ev.disable_events()
        if not tracing:
            tracer.disable_tracing()


def _format_metrics(snapshot: dict) -> str:
    """Render a metrics snapshot as indented ``name: value`` lines."""
    lines = ["metrics:"]
    for name, value in snapshot.items():
        if isinstance(value, dict):
            lines.append(
                f"  {name}: count={value['count']} p50={value['p50']:.3f} "
                f"p95={value['p95']:.3f} max={value['max']:.3f}"
            )
        else:
            lines.append(f"  {name}: {value}")
    return "\n".join(lines)


def _cmd_run(args) -> str:
    """Run one experiment with optional tracing, events and telemetry.

    Identical to ``experiment`` when all observability is off (the no-op
    tracer, event sink, and telemetry bus each add one method call per
    instrumented site).  With ``--trace`` the whole run executes under
    an ``experiment.<name>`` root span and the trace is written as
    ``spotweb-trace/1`` JSONL; with ``--events`` the domain-event journal
    is written as ``spotweb-events/1`` JSONL.  ``--serve-metrics`` and
    ``--flightrec`` switch the telemetry bus on, which implies events.
    Every opt-in also prints the metrics snapshot; ``--prom-out``
    additionally exports the registry in Prometheus text format (written
    atomically, and refreshed at every sim interval while the bus is
    live).  On return the observability switches are as they were.
    """
    import importlib
    import time

    from repro.obs import events, metrics, tracer

    if args.quick:
        args.weeks = 1
        args.hours = 24
    _desc, runner = EXPERIMENTS[args.name]
    telemetry_on = args.serve_metrics is not None or args.flightrec is not None
    # Frames carry the journal, so telemetry implies events.
    events_on = args.events is not None or telemetry_on
    if not (args.trace is not None or events_on or args.prom_out):
        return runner(args)
    observed = _Observed(
        trace=args.trace is not None,
        events=events_on,
        telemetry=telemetry_on,
        serve_metrics=args.serve_metrics,
    )
    recorder = None
    if args.flightrec is not None:
        from repro.obs.flightrec import enable_flightrec, install_crash_hooks

        recorder = enable_flightrec(args.flightrec)
        install_crash_hooks()
    if telemetry_on and args.prom_out:
        from repro.obs.live import PromFileWriter

        observed.subscribe(PromFileWriter(args.prom_out))
    with tracer.get_tracer().span(f"experiment.{args.name}", quick=args.quick):
        # The experiment module's import dominates a --quick run's
        # wall-clock; give it a span so the root stays >95% covered.
        with tracer.get_tracer().span("experiment.imports"):
            importlib.import_module(f"repro.experiments.{_MODULES[args.name]}")
        text = runner(args)
    if observed.bus is not None:
        observed.bus.flush()
    if args.trace is not None:
        records = tracer.get_tracer().records()
        out = args.trace or f"TRACE_{args.name}.jsonl"
        tracer.write_trace(records, out)
        text += f"\nwrote {len(records)} spans to {out}"
        if args.parallel:
            text += "\nNOTE: spans from process-pool workers are not captured"
    if events_on:
        journal = events.get_events().records()
        out = args.events or f"EVENTS_{args.name}.jsonl"
        events.write_events(journal, out)
        text += f"\nwrote {len(journal)} events to {out}"
    if recorder is not None:
        for bundle in recorder.dumped:
            text += f"\nflight recorder dumped {bundle}"
    snapshot = metrics.get_metrics().snapshot()
    if args.prom_out:
        metrics.write_prometheus(args.prom_out)
        text += f"\nwrote Prometheus metrics to {args.prom_out}"
    text += "\n" + _format_metrics(snapshot)
    if observed.server is not None and args.serve_hold > 0:
        # Keep the scrape endpoint alive for external pollers (CI curls
        # it here), serving the final registry state.
        observed.server.refresh()
        print(text)
        text = f"held metrics endpoint for {args.serve_hold:g}s"
        time.sleep(args.serve_hold)
    observed.restore()
    return text


def _cmd_trace(args) -> str:
    """Summarize or schema-validate a recorded trace file."""
    from repro.obs.summarize import summarize_file
    from repro.obs.tracer import load_trace

    if args.action == "summarize":
        return summarize_file(args.file, top=args.top)
    records = load_trace(args.file)  # load performs full schema validation
    return f"{args.file}: {len(records)} spans, schema OK"


def _cmd_events(args) -> str:
    """Validate, summarize, plot, or diff journals and flight bundles."""
    from repro.obs import eventreport
    from repro.obs.events import read_events

    if args.action == "validate":
        # read performs schema + causal-integrity validation, including
        # that every warning of a journal resolves to a terminal outcome.
        header, records = read_events(args.file)
        window = (
            f" (flight bundle, reason {header['reason']})"
            if "reason" in header
            else ""
        )
        return f"{args.file}: {len(records)} events, schema OK{window}"
    if args.action == "summarize":
        return eventreport.summarize_events_file(args.file, top=args.top)
    if args.action == "timeline":
        return eventreport.timeline_file(args.file)
    if args.file_b is None:
        raise SystemExit("events diff needs two journal files")
    result, text = eventreport.diff_files(args.file, args.file_b)
    if not result["identical"]:
        # Non-zero exit so CI can gate on determinism drift.
        raise SystemExit(text)
    return text


def _cmd_top(args) -> str:
    """Live dashboard over one experiment run, driven off the bus.

    Subscribes a :class:`~repro.obs.dash.DashRenderer` to the global
    telemetry bus and runs the experiment; each sim-interval frame
    repaints the board (in place on a TTY).  ``--once`` folds the stream
    silently into a :class:`~repro.obs.dash.DashState` and renders one
    final deterministic snapshot — no wall-clock datum enters the frame
    (the "last solve" cell renders ``-``), so identical-seed snapshots
    are byte-identical.  On return the observability switches are as
    they were.
    """
    from repro.obs.dash import DashRenderer, DashState, render_dash
    from repro.obs.metrics import get_metrics

    if args.quick:
        args.weeks = 1
        args.hours = 24
    _desc, runner = EXPERIMENTS[args.name]
    observed = _Observed(telemetry=True, serve_metrics=args.serve_metrics)
    state = DashState()
    if args.once:
        observed.subscribe(state)
    else:
        observed.subscribe(DashRenderer(state, every=args.refresh))
    runner(args)
    observed.bus.flush()
    observed.restore()
    if args.once:
        return render_dash(state)
    # The final frame may show the last optimizer latency: it is live
    # operator output, not a determinism-bearing artifact.
    solve_ms = None
    values = get_metrics().histogram("controller.solve_ms").values
    if values:
        solve_ms = float(values[-1])
    return render_dash(state, solve_ms=solve_ms)


def _cmd_list(_args) -> str:
    from repro.analysis import format_table

    rows = [[name, desc] for name, (desc, _) in EXPERIMENTS.items()]
    return format_table(["experiment", "description"], rows)


def _cmd_catalog(_args) -> str:
    from repro.analysis import format_table
    from repro.markets import default_catalog

    catalog = default_catalog()
    rows = [
        [t.name, t.vcpus, t.memory_gb, t.ondemand_price, t.capacity_rps]
        for t in catalog.types
    ]
    return format_table(
        ["type", "vcpus", "mem_gb", "ondemand_$/h", "capacity_rps"], rows
    )


def _cmd_simulate(args) -> str:
    """Policy comparison over a shared universe via the sweep engine.

    Each policy run is an independent cell (module-level worker in
    :mod:`repro.experiments.table1`), so ``--parallel`` fans them out with
    results identical to the serial run: every cell uses the same simulator
    seed, and the dataset/trace are rebuilt per process via ``shared_setup``.
    """
    from repro.analysis import CostLedger, format_table
    from repro.experiments.table1 import POLICY_NAMES, _cost_cell
    from repro.parallel import pmap

    names = args.policies or ["spotweb", "exosphere", "ondemand"]
    unknown = set(names) - set(POLICY_NAMES)
    if unknown:
        raise SystemExit(f"unknown policies: {sorted(unknown)}")
    cells = [
        {
            "policy": name,
            "name": name,
            "sim_seed": args.seed,
            "num_markets": args.markets,
            "weeks": args.weeks,
            "peak_rps": args.peak,
            "horizon": args.horizon,
            "workload": args.workload,
            "seed": args.seed,
        }
        for name in names
    ]
    reports = pmap(
        _cost_cell, cells, max_workers=(args.workers if args.parallel else 1)
    )
    ledger = CostLedger()
    for report in reports:
        ledger.add(report)
    baseline = names[-1]
    return format_table(
        CostLedger.headers(baseline=True),
        ledger.rows(baseline=baseline),
        title=(
            f"{args.weeks}-week simulation, {2 * args.markets} markets, "
            f"{args.workload} workload (savings vs {baseline})"
        ),
    )


def _cmd_bench(args) -> str:
    """Run the benchmarks, write ``BENCH_*.json`` and apply every perf gate.

    Exits non-zero, naming each broken bound of :mod:`repro.bench.report`,
    when the structured path loses to dense past the crossover, the hybrid
    engine misses a speedup floor or the P99 tolerance, or the parallel
    sweep is slow or differs from serial; ``--compare DIR`` adds the
    regression gates against DIR's committed baselines.  The quick grid
    keeps two anchors: H=4 cells overlap the committed full-grid baseline,
    and the 48-market H=6 cell sits exactly at the N*H=288 crossover.
    """
    from pathlib import Path

    from repro.bench import mpo as bench_mpo
    from repro.bench import report
    from repro.bench import sim as bench_sim

    # Read the baselines first: --out-dir may name the same directory (CI
    # compares against the repository root), and the writes below replace
    # its files with the fresh run.
    baselines = None
    if args.compare is not None:
        base = Path(args.compare)
        baselines = (
            report.load_bench(base / "BENCH_mpo.json"),
            report.load_bench(base / "BENCH_sim.json"),
        )
    if args.quick:
        mpo = bench_mpo.bench_mpo(
            market_counts=(12, 48), horizons=(4, 6), repeats=3, seed=args.seed
        )
        # The quick grid keeps the hybrid cell's horizon at full length —
        # its intervals/second depends on how far the fidelity window is
        # amortized — and trims everything else (repeats, the request
        # reference's horizon, the 500k cell).
        sim = bench_sim.bench_sim(
            num_markets=8,
            weeks=1,
            repeats=2,
            seed=args.seed,
            cluster_repeats=2,
            request_seconds=4.0,
            include_huge=False,
        )
    else:
        mpo = bench_mpo.bench_mpo(seed=args.seed)
        sim = bench_sim.bench_sim(seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mpo_path = report.write_bench(mpo, out / "BENCH_mpo.json")
    sim_path = report.write_bench(sim, out / "BENCH_sim.json")
    accuracy = bench_sim.check_hybrid_accuracy(seed=args.seed)
    smoke = bench_sim.check_hybrid_speedup(seed=args.seed)
    sweep = bench_sim.check_parallel_speedup(seed=args.seed)
    text = "\n".join(
        [
            report.format_bench_mpo(mpo),
            report.format_bench_sim(sim),
            f"wrote {mpo_path} and {sim_path}",
            report.format_checks(accuracy, smoke, sweep),
        ]
    )
    failures = report.gate_failures(mpo, sim, accuracy, smoke, sweep, baselines)
    if failures:
        print(text)
        raise SystemExit("\n".join(failures))
    if baselines is not None:
        text += f"\nno warm-latency or throughput regressions vs {args.compare}"
    return text + "\nevery perf gate holds"


def _cmd_scenarios(args) -> str:
    """Run / list / check the adversarial scenario suite.

    ``run`` executes a pack (or named scenarios) across engines, writes
    one ``spotweb-events/1`` journal per (scenario, engine) cell, and —
    with ``--check`` — immediately evaluates every invariant pack.
    ``check`` re-evaluates existing journal files (or a directory of
    them); any violation exits non-zero, which is the CI gate.
    """
    from pathlib import Path

    from repro import scenarios

    if args.action == "list":
        from repro.analysis import format_table

        rows = [
            [
                s.name,
                s.kind,
                "quick" if s.quick else "nightly",
                ",".join(scenarios.engines_for(s, ("request", "hybrid"))),
                s.description,
            ]
            for s in scenarios.SCENARIOS.values()
        ]
        return format_table(
            ["scenario", "kind", "pack", "engines", "description"], rows
        )

    if args.action == "run":
        engines = (
            ("request", "hybrid")
            if args.engine == "both"
            else (args.engine,)
        )
        recorder = None
        if args.flightrec:
            # Episode runners subscribe the armed global recorder to
            # their private buses, so SLO alerts auto-dump per episode.
            # Pool workers have their own unarmed recorder: --flightrec
            # captures bundles from serial (non --parallel) runs.
            from repro.obs.flightrec import enable_flightrec

            observed = _Observed()
            recorder = enable_flightrec(args.flightrec)
        runs = scenarios.run_suite(
            args.scenario or None,
            pack=args.pack,
            engines=engines,
            seed=args.seed,
            max_workers=(args.workers if args.parallel else 1),
        )
        lines = []
        for run in runs:
            path = scenarios.write_run(run, args.out_dir)
            lines.append(f"wrote {len(run.records)} events to {path}")
        if recorder is not None:
            for bundle in recorder.dumped:
                lines.append(f"flight recorder dumped {bundle}")
        if args.check:
            violations = scenarios.check_runs(runs)
            report = scenarios.format_check_report(runs, violations)
            if violations:
                if recorder is not None:
                    bundle = recorder.dump(
                        "invariant.violation",
                        trigger={
                            "violations": [str(v) for v in violations]
                        },
                    )
                    lines.append(f"flight recorder dumped {bundle}")
                print("\n".join(lines))
                raise SystemExit(report)
            lines.append(report)
        if recorder is not None:
            observed.restore()
        return "\n".join(lines)

    # action == "check": evaluate existing journals.
    paths = [Path(p) for p in args.journals]
    if args.dir is not None:
        paths.extend(sorted(Path(args.dir).glob("events_scenario_*.jsonl")))
    if not paths:
        raise SystemExit(
            "scenarios check needs journal files or --dir with "
            "events_scenario_*.jsonl journals"
        )
    runs = [scenarios.load_run(path) for path in paths]
    violations = scenarios.check_runs(runs)
    report = scenarios.format_check_report(runs, violations)
    if violations:
        raise SystemExit(report)
    return report


def _cmd_advisor(args) -> str:
    from repro.analysis import format_table
    from repro.markets import advisor_table, default_catalog, generate_market_dataset

    markets = default_catalog().spot_markets(args.markets)
    dataset = generate_market_dataset(markets, intervals=24 * 7, seed=args.seed)
    rows = advisor_table(markets, dataset.failure_probs, dataset.prices)
    return format_table(
        ["market", "interruption", "mean_prob", "savings_vs_od"],
        [
            [
                r["market"],
                r["interruption_frequency"],
                r["mean_probability"],
                r["savings_over_ondemand"],
            ]
            for r in rows
        ],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SpotWeb (HPDC'19) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run one paper experiment")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--weeks", type=int, default=2)
    p_exp.add_argument("--scale", type=float, default=0.5)
    p_exp.add_argument(
        "--engine",
        choices=("hybrid", "request", "fluid"),
        default="request",
        help="simulation engine for cluster experiments (fig4a)",
    )
    p_exp.add_argument(
        "--workload", choices=("wikipedia", "vod"), default="wikipedia"
    )
    p_exp.add_argument(
        "--parallel",
        action="store_true",
        help="fan independent cells out over a process pool",
    )
    p_exp.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cpu count)"
    )

    p_run = sub.add_parser(
        "run", help="run an experiment with optional tracing/metrics"
    )
    p_run.add_argument("name", choices=sorted(EXPERIMENTS))
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--weeks", type=int, default=2)
    p_run.add_argument("--hours", type=int, default=72, help="fig6a length")
    p_run.add_argument("--scale", type=float, default=0.5)
    p_run.add_argument(
        "--engine",
        choices=("hybrid", "request", "fluid"),
        default="request",
        help="simulation engine for cluster experiments (fig4a)",
    )
    p_run.add_argument(
        "--workload", choices=("wikipedia", "vod"), default="wikipedia"
    )
    p_run.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized workload (1 week / 24 hours)",
    )
    p_run.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="record a span trace to PATH (default: TRACE_<name>.jsonl)",
    )
    p_run.add_argument(
        "--events",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="journal domain events to PATH (default: EVENTS_<name>.jsonl)",
    )
    p_run.add_argument(
        "--prom-out",
        default=None,
        help="write the metrics registry in Prometheus text format "
        "(atomic; refreshed every sim interval when telemetry is on)",
    )
    p_run.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live OpenMetrics on http://127.0.0.1:PORT/metrics "
        "during the run (0 picks an ephemeral port)",
    )
    p_run.add_argument(
        "--serve-hold",
        type=float,
        default=0.0,
        metavar="SEC",
        help="keep the metrics endpoint up this long after the run",
    )
    p_run.add_argument(
        "--flightrec",
        default=None,
        metavar="DIR",
        help="arm the flight recorder; SLO-alert and crash bundles "
        "land in this directory",
    )
    p_run.add_argument(
        "--parallel",
        action="store_true",
        help="fan independent cells out over a process pool",
    )
    p_run.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cpu count)"
    )

    p_top = sub.add_parser(
        "top", help="live ASCII dashboard over one experiment run"
    )
    p_top.add_argument("name", choices=sorted(EXPERIMENTS))
    p_top.add_argument("--seed", type=int, default=0)
    p_top.add_argument("--weeks", type=int, default=2)
    p_top.add_argument("--hours", type=int, default=72, help="fig6a length")
    p_top.add_argument("--scale", type=float, default=0.5)
    p_top.add_argument(
        "--engine",
        choices=("hybrid", "request", "fluid"),
        default="request",
        help="simulation engine for cluster experiments (fig4a)",
    )
    p_top.add_argument(
        "--workload", choices=("wikipedia", "vod"), default="wikipedia"
    )
    p_top.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized workload (1 week / 24 hours)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="render one deterministic final snapshot, no live repaints",
    )
    p_top.add_argument(
        "--refresh",
        type=int,
        default=1,
        metavar="N",
        help="repaint every N telemetry frames (live mode)",
    )
    p_top.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve live OpenMetrics on this port during the run",
    )
    p_top.add_argument(
        "--parallel",
        action="store_true",
        help="fan independent cells out over a process pool",
    )
    p_top.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cpu count)"
    )

    p_trace = sub.add_parser("trace", help="inspect a recorded span trace")
    p_trace.add_argument("action", choices=("summarize", "validate"))
    p_trace.add_argument("file")
    p_trace.add_argument(
        "--top", type=int, default=12, help="rows in the top-spans table"
    )

    p_events = sub.add_parser("events", help="inspect a journal or flight bundle")
    p_events.add_argument(
        "action", choices=("validate", "summarize", "timeline", "diff")
    )
    p_events.add_argument("file")
    p_events.add_argument(
        "file_b", nargs="?", default=None, help="second journal (diff only)"
    )
    p_events.add_argument(
        "--top", type=int, default=12, help="rows in the event-kinds table"
    )

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("catalog", help="print the instance catalog")

    p_sim = sub.add_parser(
        "simulate", help="run a custom policy comparison simulation"
    )
    p_sim.add_argument(
        "--policies",
        nargs="*",
        choices=("spotweb", "exosphere", "constant", "qu", "ondemand"),
        help="policies to compare (default: spotweb exosphere ondemand)",
    )
    p_sim.add_argument("--markets", type=int, default=12)
    p_sim.add_argument("--weeks", type=int, default=1)
    p_sim.add_argument("--peak", type=float, default=30_000.0)
    p_sim.add_argument("--horizon", type=int, default=4)
    p_sim.add_argument(
        "--workload", choices=("wikipedia", "vod"), default="wikipedia"
    )
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--parallel",
        action="store_true",
        help="run the policies concurrently (identical results to serial)",
    )
    p_sim.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cpu count)"
    )

    p_scn = sub.add_parser(
        "scenarios", help="run/list/check the adversarial scenario suite"
    )
    p_scn.add_argument("action", choices=("run", "list", "check"))
    p_scn.add_argument(
        "journals",
        nargs="*",
        default=[],
        help="journal files to check (check only)",
    )
    p_scn.add_argument(
        "--pack",
        choices=("quick", "full"),
        default="quick",
        help="quick = push-CI pack; full adds the nightly-only cells",
    )
    p_scn.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="run only this scenario (repeatable; overrides --pack)",
    )
    p_scn.add_argument(
        "--engine",
        choices=("request", "hybrid", "both"),
        default="both",
        help="engine(s) for cluster scenarios (portfolio cells ignore it)",
    )
    p_scn.add_argument("--seed", type=int, default=0)
    p_scn.add_argument(
        "--out-dir",
        default="scenario_journals",
        help="directory for the per-cell journal files",
    )
    p_scn.add_argument(
        "--check",
        action="store_true",
        help="evaluate invariant packs right after running (exit non-zero "
        "on any violation)",
    )
    p_scn.add_argument(
        "--dir",
        default=None,
        help="check every events_scenario_*.jsonl journal in this directory",
    )
    p_scn.add_argument(
        "--flightrec",
        default=None,
        metavar="DIR",
        help="arm the flight recorder during `run`; SLO-alert and "
        "invariant-violation bundles land in this directory",
    )
    p_scn.add_argument(
        "--parallel",
        action="store_true",
        help="fan scenario cells out over a process pool",
    )
    p_scn.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cpu count)"
    )

    p_adv = sub.add_parser("advisor", help="print the emulated Spot Advisor")
    p_adv.add_argument("--markets", type=int, default=12)
    p_adv.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser(
        "bench",
        help="run the benchmarks, write BENCH_*.json, apply every perf gate",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="small CI-sized grid instead of the full baseline grid",
    )
    p_bench.add_argument("--out-dir", default=".")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--compare",
        default=None,
        metavar="DIR",
        help="also fail on regressions vs DIR's BENCH_mpo.json and "
        "BENCH_sim.json",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiment":
        _desc, runner = EXPERIMENTS[args.name]
        print(runner(args))
    elif args.command == "run":
        print(_cmd_run(args))
    elif args.command == "top":
        print(_cmd_top(args))
    elif args.command == "trace":
        print(_cmd_trace(args))
    elif args.command == "events":
        print(_cmd_events(args))
    elif args.command == "list":
        print(_cmd_list(args))
    elif args.command == "catalog":
        print(_cmd_catalog(args))
    elif args.command == "simulate":
        print(_cmd_simulate(args))
    elif args.command == "scenarios":
        print(_cmd_scenarios(args))
    elif args.command == "advisor":
        print(_cmd_advisor(args))
    elif args.command == "bench":
        print(_cmd_bench(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
