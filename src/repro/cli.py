"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``run <name>`` (alias ``experiment``) — run one paper experiment and
  print its rows (``table1``, ``table1_costs``, ``fig3``, ``fig4a``,
  ``fig4bcd``, ``fig5``, ``fig6a``, ``fig6b``, ``fig7a``, ``fig7b``,
  ``lookahead``, ``gcloud``).  Each experiment takes exactly the options
  its runner reads (:data:`EXPERIMENTS`); a sweep's ``--workers [N]``
  fans its independent cells over N processes (bare: one per CPU;
  absent: serial) with results identical to serial.  Observability:
  ``--trace [PATH]`` records a span trace of the whole run to a
  ``spotweb-trace/1`` JSONL file and prints the metrics snapshot;
  ``--events [PATH]`` journals the service-level domain events
  (revocation warnings, drains, migrations, SLO state) to a
  ``spotweb-events/1`` JSONL file; ``--prom-out`` exports the metrics
  registry in Prometheus text format (atomically, refreshed at every sim
  interval while the telemetry bus is live).  Two flags switch the
  in-process telemetry bus on: ``--serve-metrics PORT`` (live
  OpenMetrics scrape endpoint, ``--serve-hold SEC`` keeps it up after
  the run) and ``--flightrec DIR`` (arm the flight recorder: SLO
  burn-rate alerts dump a bundle, a window of the journal, and an
  exception leaving the run dumps a ``crash`` bundle).  Each run has a
  recording of its own (:mod:`repro.obs.recording`): whatever it
  switched on is off again when it returns or raises.
- ``top <name>`` — live-refreshing ASCII dashboard of one run (fleet
  by market, RPS, P99, burn rate, cost, warnings, anomalies) driven
  off the telemetry bus; ``--once`` renders a single deterministic
  final snapshot instead of repainting.  Takes the same experiment
  options as ``run``.
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
  in-episode SLO alerts auto-dump (with ``--workers`` too: bundles are
  numbered and listed in cell order either way), and a failed
  ``--check`` dumps an ``invariant.violation`` bundle naming the broken
  invariants.
- ``list`` — list available experiments with one-line descriptions.
- ``catalog`` — print the instance catalog / market universe.
- ``advisor`` — print the emulated Spot Instance Advisor table for a
  synthetic dataset.
- ``bench`` — the one perf entry point: run the solver/simulator
  benchmarks, write the machine-readable ``BENCH_mpo.json`` /
  ``BENCH_sim.json`` baselines, and exit non-zero when any bound of
  :mod:`repro.bench.report` breaks (crossover, hybrid speedup floors,
  hybrid P99 tolerance, parallel sweep, session-draw scaling);
  ``--compare DIR`` also gates regressions against DIR's committed
  baselines.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from contextlib import contextmanager
from typing import Callable, NamedTuple

from repro.textfmt import format_table

__all__ = ["main", "build_parser", "EXPERIMENTS"]


class _Experiment(NamedTuple):
    """One paper experiment as ``run`` and ``top`` drive it."""

    description: str
    #: the module of ``repro.experiments`` holding its runner
    module: str
    #: the options its runner reads, keys of :data:`_OPTIONS`
    options: tuple[str, ...]
    #: ``run(module, **options)`` runs it and formats its rows
    run: Callable[..., str]


EXPERIMENTS: dict[str, _Experiment] = {
    "table1": _Experiment(
        "qualitative comparison of approaches", "table1", (),
        lambda m: m.format_table1(),
    ),
    "table1_costs": _Experiment(
        "Table-1 approaches head-to-head cost sweep", "table1",
        ("weeks", "workload", "seed", "workers"),
        lambda m, **kw: m.format_table1_costs(m.run_table1_costs(**kw)),
    ),
    "fig3": _Experiment(
        "workload trace shapes", "fig3_workloads", ("weeks", "seed"),
        lambda m, **kw: m.format_fig3(m.run_fig3(**kw)),
    ),
    "fig4a": _Experiment(
        "transiency-aware load balancing (request-level DES)",
        "fig4a_loadbalancer", ("seed", "scale", "engine"),
        lambda m, **kw: m.format_fig4a(m.run_fig4a(**kw)),
    ),
    "fig4bcd": _Experiment(
        "prediction error with/without CI padding", "fig4bcd_prediction",
        ("weeks", "seed"),
        lambda m, **kw: m.format_fig4bcd(m.run_fig4bcd(**kw)),
    ),
    "fig5": _Experiment(
        "price-awareness, 3-market race", "fig5_price_awareness",
        ("seed", "workers"),
        lambda m, **kw: m.format_fig5(m.run_fig5(**kw)),
    ),
    "fig6a": _Experiment(
        "SpotWeb vs constant portfolio + oracle autoscaler", "fig6a_constant",
        ("hours", "seed", "workers"),
        lambda m, **kw: m.format_fig6a(m.run_fig6a(**kw)),
    ),
    "fig6b": _Experiment(
        "SpotWeb vs ExoSphere-in-a-loop sweep", "fig6b_exosphere",
        ("weeks", "seed", "workload", "workers"),
        lambda m, seed, **kw: m.format_fig6b(m.run_fig6b(seeds=(seed,), **kw)),
    ),
    "fig7a": _Experiment(
        "savings vs prediction accuracy", "fig7a_accuracy", ("weeks", "seed"),
        lambda m, **kw: m.format_fig7a(m.run_fig7a(**kw)),
    ),
    "fig7b": _Experiment(
        "optimizer scalability", "fig7b_scalability", (),
        lambda m: m.format_fig7b(m.run_fig7b()),
    ),
    "lookahead": _Experiment(
        "Sec. 7: look-ahead vs startup time", "lookahead",
        ("weeks", "seed", "workers"),
        lambda m, **kw: m.format_lookahead(m.run_lookahead(**kw)),
    ),
    "gcloud": _Experiment(
        "Sec. 7: Google-preemptible mode", "gcloud", ("weeks", "seed"),
        lambda m, **kw: m.format_gcloud(m.run_gcloud(**kw)),
    ),
}

#: Every experiment option, declared once: name -> ``add_argument`` keywords.
#: ``simulate``, ``scenarios``, ``advisor`` and ``bench`` share some of them.
_OPTIONS: dict[str, dict] = {
    "seed": {"type": int, "default": 0},
    "weeks": {"type": int, "default": 2},
    "hours": {"type": int, "default": 72},
    "scale": {"type": float, "default": 0.5},
    "engine": {
        "choices": ("hybrid", "request", "fluid"),
        "default": "request",
        "help": "simulation engine",
    },
    "workload": {"choices": ("wikipedia", "vod"), "default": "wikipedia"},
    "workers": {
        "nargs": "?",
        "type": int,
        "default": 1,
        "const": None,
        "metavar": "N",
        "help": "fan independent cells out over N processes, with results "
        "identical to serial (bare: one per CPU; default: serial)",
    },
}


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_OPTIONS[name])


def _import_experiment(name: str):
    """The ``repro.experiments`` module holding experiment ``name``."""
    return importlib.import_module(f"repro.experiments.{EXPERIMENTS[name].module}")


def _run_experiment(args) -> str:
    """Run the experiment ``args`` names with the options its runner reads."""
    exp = EXPERIMENTS[args.name]
    options = {name: getattr(args, name) for name in exp.options}
    return exp.run(_import_experiment(args.name), **options)


@contextmanager
def _recording(
    *, trace=False, events=False, telemetry=False, flightrec=None,
    serve_metrics=None,
):
    """The recording one command runs under, and its metrics endpoint.

    Fresh parts, switched on as asked; telemetry (frames carry the
    journal, so it implies events) subscribes an
    :class:`~repro.obs.anomaly.AnomalyMonitor` first, so its flags reach
    later sinks on the next frame (the order scenario episodes use),
    then the endpoint, then the recorder armed on ``flightrec``.  Yields
    ``(recording, server)``; the endpoint stops on every exit.
    """
    from repro.obs.anomaly import AnomalyMonitor
    from repro.obs.events import EventLog
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.live import MetricsServer, TelemetryBus
    from repro.obs.recording import Recording
    from repro.obs.tracer import Tracer

    recording = Recording(
        tracer=Tracer(enabled=trace),
        events=EventLog(enabled=events or telemetry),
        bus=TelemetryBus(enabled=telemetry),
        flightrec=None if flightrec is None else FlightRecorder(out_dir=flightrec),
    )
    server = None
    if telemetry:
        recording.bus.subscribe(AnomalyMonitor())
        if serve_metrics is not None:
            server = recording.bus.subscribe(MetricsServer(serve_metrics))
    if recording.flightrec is not None:
        recording.bus.subscribe(recording.flightrec)
    with recording:
        if server is not None:
            server.start()
            # Announce before the run so scrapers can find the port.
            print(f"serving metrics at {server.url}", flush=True)
        try:
            yield recording, server
        finally:
            if server is not None:
                server.stop()


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

    With all observability off it only runs the experiment and returns
    its rows (the no-op tracer, event sink, and telemetry bus each add
    one method call per instrumented site).  With ``--trace`` the whole
    run executes under an ``experiment.<name>`` root span and the trace
    is written as ``spotweb-trace/1`` JSONL; with ``--events`` the
    domain-event journal is written as ``spotweb-events/1`` JSONL.
    ``--serve-metrics`` and ``--flightrec`` switch the telemetry bus on,
    which implies events.  Every opt-in also prints the metrics snapshot;
    ``--prom-out`` additionally exports the registry in Prometheus text
    format (written atomically, and refreshed at every sim interval while
    the bus is live).  The run has a recording of its own
    (:func:`_recording`).
    """
    import time

    from repro.obs import events, metrics, tracer

    telemetry_on = args.serve_metrics is not None or args.flightrec is not None
    # Frames carry the journal, so telemetry implies events.
    events_on = args.events is not None or telemetry_on
    if not (args.trace is not None or events_on or args.prom_out):
        return _run_experiment(args)
    with _recording(
        trace=args.trace is not None,
        events=events_on,
        telemetry=telemetry_on,
        flightrec=args.flightrec,
        serve_metrics=args.serve_metrics,
    ) as (rec, server):
        if telemetry_on and args.prom_out:
            from repro.obs.live import PromFileWriter

            rec.bus.subscribe(PromFileWriter(args.prom_out))
        with rec.tracer.span(f"experiment.{args.name}"):
            # The experiment module's import dominates a short run's
            # wall-clock; give it a span so the root stays >95% covered.
            with rec.tracer.span("experiment.imports"):
                _import_experiment(args.name)
            text = _run_experiment(args)
        rec.bus.flush()
        if args.trace is not None:
            records = rec.tracer.records()
            out = args.trace or f"TRACE_{args.name}.jsonl"
            tracer.write_trace(records, out)
            text += f"\nwrote {len(records)} spans to {out}"
            if getattr(args, "workers", 1) != 1:
                text += "\nNOTE: spans from process-pool workers are not captured"
        if events_on:
            journal = rec.events.records()
            out = args.events or f"EVENTS_{args.name}.jsonl"
            events.write_events(journal, out)
            text += f"\nwrote {len(journal)} events to {out}"
        if rec.flightrec is not None:
            for bundle in rec.flightrec.dumped:
                text += f"\nflight recorder dumped {bundle}"
        if args.prom_out:
            metrics.write_prometheus(args.prom_out, rec.metrics)
            text += f"\nwrote Prometheus metrics to {args.prom_out}"
        text += "\n" + _format_metrics(rec.metrics.snapshot())
        if server is not None and args.serve_hold > 0:
            # Keep the scrape endpoint alive for external pollers (CI curls
            # it here), serving the final registry state.
            server.refresh()
            print(text)
            text = f"held metrics endpoint for {args.serve_hold:g}s"
            time.sleep(args.serve_hold)
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

    Subscribes a :class:`~repro.obs.dash.DashRenderer` to the command's
    telemetry bus and runs the experiment; each sim-interval frame
    repaints the board (in place on a TTY).  ``--once`` folds the stream
    silently into a :class:`~repro.obs.dash.DashState` and renders one
    final deterministic snapshot — no wall-clock datum enters the frame
    (the "last solve" cell renders ``-``), so identical-seed snapshots
    are byte-identical.  The run has a recording of its own
    (:func:`_recording`).
    """
    from repro.obs.dash import DashRenderer, DashState, render_dash

    state = DashState()
    with _recording(telemetry=True, serve_metrics=args.serve_metrics) as (rec, _):
        rec.bus.subscribe(
            state if args.once else DashRenderer(state, every=args.refresh)
        )
        _run_experiment(args)
        rec.bus.flush()
    if args.once:
        return render_dash(state)
    # The final frame may show the last optimizer latency: it is live
    # operator output, not a determinism-bearing artifact.
    solve_ms = None
    values = rec.metrics.histogram("controller.solve_ms").values
    if values:
        solve_ms = float(values[-1])
    return render_dash(state, solve_ms=solve_ms)


def _cmd_list(_args) -> str:
    rows = [[name, exp.description] for name, exp in EXPERIMENTS.items()]
    return format_table(["experiment", "description"], rows)


def _cmd_catalog(_args) -> str:
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
    :mod:`repro.experiments.table1`), so ``--workers`` fans them out with
    results identical to the serial run: every cell uses the same simulator
    seed, and the dataset/trace are rebuilt per process via ``shared_setup``.
    """
    from repro.experiments.table1 import POLICY_NAMES, _cost_cell
    from repro.parallel import pmap
    from repro.simulator.runner import CostLedger

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
    reports = pmap(_cost_cell, cells, max_workers=args.workers)
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
    engine misses a speedup floor or the P99 tolerance, the parallel
    sweep is slow or differs from serial, or a session draw grows with the
    live sessions; ``--compare DIR`` adds the regression gates against
    DIR's committed baselines.  The quick grid keeps two anchors: H=4
    cells overlap the committed full-grid baseline, and the 48-market H=6
    cell sits exactly at the N*H=288 crossover.
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
    sessions = bench_sim.check_session_scaling(seed=args.seed)
    text = "\n".join(
        [
            report.format_bench_mpo(mpo),
            report.format_bench_sim(sim),
            f"wrote {mpo_path} and {sim_path}",
            report.format_checks(accuracy, smoke, sweep, sessions),
        ]
    )
    failures = report.gate_failures(
        mpo, sim, accuracy, smoke, sweep, sessions, baselines
    )
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
        with _recording(flightrec=args.flightrec) as (rec, _):
            # Each cell's recorder holds its episodes' bundles; pmap
            # writes them here in cell order, serial or not.
            runs = scenarios.run_suite(
                args.scenario or None,
                pack=args.pack,
                engines=engines,
                seed=args.seed,
                workers=args.workers,
            )
            lines = []
            for run in runs:
                path = scenarios.write_run(run, args.out_dir)
                lines.append(f"wrote {len(run.records)} events to {path}")
            recorder = rec.flightrec
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


def _experiment_command(
    command: argparse.ArgumentParser,
    common: argparse.ArgumentParser,
    func: Callable[[argparse.Namespace], str],
) -> None:
    """One sub-parser per experiment under ``command``, each taking the
    options its runner reads plus the command's own ``common`` ones."""
    command.set_defaults(func=func)
    names = command.add_subparsers(dest="name", required=True, metavar="name")
    for name, exp in EXPERIMENTS.items():
        parser = names.add_parser(name, help=exp.description, parents=[common])
        _add_options(parser, *exp.options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SpotWeb (HPDC'19) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="record a span trace to PATH (default: TRACE_<name>.jsonl)",
    )
    run.add_argument(
        "--events",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="journal domain events to PATH (default: EVENTS_<name>.jsonl)",
    )
    run.add_argument(
        "--prom-out",
        default=None,
        help="write the metrics registry in Prometheus text format "
        "(atomic; refreshed every sim interval when telemetry is on)",
    )
    run.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live OpenMetrics on http://127.0.0.1:PORT/metrics "
        "during the run (0 picks an ephemeral port)",
    )
    run.add_argument(
        "--serve-hold",
        type=float,
        default=0.0,
        metavar="SEC",
        help="keep the metrics endpoint up this long after the run",
    )
    run.add_argument(
        "--flightrec",
        default=None,
        metavar="DIR",
        help="arm the flight recorder; SLO-alert and crash bundles "
        "land in this directory",
    )
    _experiment_command(
        sub.add_parser(
            "run",
            aliases=["experiment"],
            help="run one paper experiment, with optional tracing/metrics",
        ),
        run,
        _cmd_run,
    )

    top = argparse.ArgumentParser(add_help=False)
    top.add_argument(
        "--once",
        action="store_true",
        help="render one deterministic final snapshot, no live repaints",
    )
    top.add_argument(
        "--refresh",
        type=int,
        default=1,
        metavar="N",
        help="repaint every N telemetry frames (live mode)",
    )
    top.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve live OpenMetrics on this port during the run",
    )
    _experiment_command(
        sub.add_parser("top", help="live ASCII dashboard over one experiment run"),
        top,
        _cmd_top,
    )

    p_trace = sub.add_parser("trace", help="inspect a recorded span trace")
    p_trace.set_defaults(func=_cmd_trace)
    p_trace.add_argument("action", choices=("summarize", "validate"))
    p_trace.add_argument("file")
    p_trace.add_argument(
        "--top", type=int, default=12, help="rows in the top-spans table"
    )

    p_events = sub.add_parser("events", help="inspect a journal or flight bundle")
    p_events.set_defaults(func=_cmd_events)
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

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )
    sub.add_parser("catalog", help="print the instance catalog").set_defaults(
        func=_cmd_catalog
    )

    p_sim = sub.add_parser(
        "simulate", help="run a custom policy comparison simulation"
    )
    p_sim.set_defaults(func=_cmd_simulate)
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
    _add_options(p_sim, "workload", "seed", "workers")

    p_scn = sub.add_parser(
        "scenarios", help="run/list/check the adversarial scenario suite"
    )
    p_scn.set_defaults(func=_cmd_scenarios)
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
        "invariant-violation bundles land in this directory (serial "
        "and --workers runs write the same bundles)",
    )
    _add_options(p_scn, "seed", "workers")

    p_adv = sub.add_parser("advisor", help="print the emulated Spot Advisor")
    p_adv.set_defaults(func=_cmd_advisor)
    p_adv.add_argument("--markets", type=int, default=12)
    _add_options(p_adv, "seed")

    p_bench = sub.add_parser(
        "bench",
        help="run the benchmarks, write BENCH_*.json, apply every perf gate",
    )
    p_bench.set_defaults(func=_cmd_bench)
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="small CI-sized grid instead of the full baseline grid",
    )
    p_bench.add_argument("--out-dir", default=".")
    _add_options(p_bench, "seed")
    p_bench.add_argument(
        "--compare",
        default=None,
        metavar="DIR",
        help="also fail on regressions vs DIR's BENCH_mpo.json and "
        "BENCH_sim.json",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    print(args.func(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
