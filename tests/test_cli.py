"""Unit tests for the CLI."""

import importlib
import inspect
import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main

#: The options each experiment's runner reads: what ``run`` and ``top``
#: accept for it.
READS = {
    "table1": set(),
    "table1_costs": {"weeks", "workload", "seed", "workers"},
    "fig3": {"weeks", "seed"},
    "fig4a": {"seed", "scale", "engine"},
    "fig4bcd": {"weeks", "seed"},
    "fig5": {"seed", "workers"},
    "fig6a": {"hours", "seed", "workers"},
    "fig6b": {"weeks", "seed", "workload", "workers"},
    "fig7a": {"weeks", "seed"},
    "fig7b": set(),
    "lookahead": {"weeks", "seed", "workers"},
    "gcloud": {"weeks", "seed"},
}

#: Every experiment option: a non-default value as typed, and as parsed.
VALUES = {
    "seed": ("3", 3),
    "weeks": ("1", 1),
    "hours": ("5", 5),
    "scale": ("0.2", 0.2),
    "engine": ("fluid", "fluid"),
    "workload": ("vod", "vod"),
    "workers": ("2", 2),
}


def _fresh_interpreter(code: str) -> str:
    """The last line ``code`` prints in a new interpreter."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env,
    )
    return out.stdout.strip().splitlines()[-1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_name_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "table1_costs",
            "fig3",
            "fig4a",
            "fig4bcd",
            "fig5",
            "fig6a",
            "fig6b",
            "fig7a",
            "fig7b",
            "lookahead",
            "gcloud",
        }

    def test_every_experiment_names_an_importable_module(self):
        import importlib.util

        for exp in EXPERIMENTS.values():
            assert importlib.util.find_spec(f"repro.experiments.{exp.module}")

    def test_experiment_is_an_alias_of_run(self):
        from repro.cli import _cmd_run

        parser = build_parser()
        argv = ["fig6a", "--hours", "4", "--workers", "--trace"]
        alias, run = (parser.parse_args([cmd, *argv]) for cmd in ("experiment", "run"))
        assert alias.func is run.func is _cmd_run
        assert vars(alias) == dict(vars(run), command="experiment")

    def test_bench_takes_four_flags(self, capsys):
        import re

        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--quick", "--out-dir", "--seed", "--compare"}


class _Spy:
    """Stands in for an experiment module: checks each call's arguments
    bind to the real function's signature and keeps its keywords."""

    def __init__(self, module):
        self.module, self.keywords = module, []

    def __getattr__(self, name):
        real = getattr(self.module, name)

        def call(*args, **kwargs):
            inspect.signature(real).bind(*args, **kwargs)
            self.keywords.extend(kwargs.values())
            return name

        return call


class TestExperimentOptions:
    def test_table_lists_what_each_runner_reads(self):
        assert {name: set(exp.options) for name, exp in EXPERIMENTS.items()} == READS

    @pytest.mark.parametrize("command", ["run", "top"])
    def test_each_experiment_accepts_exactly_its_options(self, command, capsys):
        parser = build_parser()
        for name, reads in READS.items():
            for option, (typed, parsed) in VALUES.items():
                argv = [command, name, f"--{option}", typed]
                if option in reads:
                    assert getattr(parser.parse_args(argv), option) == parsed
                    continue
                with pytest.raises(SystemExit) as exited:
                    parser.parse_args(argv)
                assert exited.value.code == 2
                err = capsys.readouterr().err
                assert f"unrecognized arguments: --{option}" in err
            for gone in ("--quick", "--parallel"):
                with pytest.raises(SystemExit):
                    parser.parse_args([command, name, gone])

    def test_defaults_and_bare_workers(self):
        args = build_parser().parse_args(["run", "fig6b"])
        assert (args.weeks, args.seed, args.workload) == (2, 0, "wikipedia")
        assert args.workers == 1  # absent: serial
        args = build_parser().parse_args(["top", "fig4a"])
        assert (args.seed, args.scale, args.engine) == (0, 0.5, "request")
        assert build_parser().parse_args(["run", "fig6a"]).hours == 72
        bare = build_parser().parse_args(["run", "fig6a", "--workers"])
        assert bare.workers is None  # one process per CPU

    def test_each_adapter_passes_every_option_through(self):
        for name, exp in EXPERIMENTS.items():
            spy = _Spy(importlib.import_module(f"repro.experiments.{exp.module}"))
            values = {option: f"<{name}.{option}>" for option in exp.options}
            exp.run(spy, **values)
            passed = set()
            for value in spy.keywords:
                passed.update(value if isinstance(value, tuple) else (value,))
            assert set(values.values()) <= passed, name

    def test_workers_reach_the_sweep(self, monkeypatch, capsys):
        from repro.experiments import fig6a_constant

        seen, real = [], fig6a_constant.pmap

        def spy(fn, items, *, max_workers):
            seen.append(max_workers)
            return real(fn, items, max_workers=1)

        monkeypatch.setattr(fig6a_constant, "pmap", spy)
        for flags in (["--workers", "4"], ["--workers"], []):
            assert main(["run", "fig6a", "--hours", "4", *flags]) == 0
        assert seen == [4, None, 1]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6b" in out

    def test_list_loads_no_simulation_stack(self):
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "main(['list'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['repro', 'simulator'], ['repro', 'core'])))\n"
        )
        assert _fresh_interpreter(code) == "[]"

    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "r5d.24xlarge" in out
        assert "1.92e+03" in out  # the paper's calibrated 1920 req/s capacity

    def test_advisor(self, capsys):
        assert main(["advisor", "--markets", "4"]) == 0
        out = capsys.readouterr().out
        assert "interruption" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "SpotWeb" in out

    def test_experiment_fig3(self, capsys):
        assert main(["experiment", "fig3", "--weeks", "1"]) == 0
        out = capsys.readouterr().out
        assert "wikipedia" in out

    def test_experiment_fig4bcd_at_its_defaults(self, capsys):
        # --weeks 2: the default warm-up is two thirds of the trace.
        assert main(["experiment", "fig4bcd"]) == 0
        assert "spotweb" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(
            [
                "simulate",
                "--markets",
                "4",
                "--weeks",
                "1",
                "--policies",
                "qu",
                "ondemand",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "qu" in out and "ondemand" in out
        assert "savings" in out

    def test_simulate_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--policies", "tributary"])


class TestRunCommand:
    @pytest.fixture(autouse=True)
    def _same_recording_after(self):
        from repro.obs.recording import current

        before = current()
        yield
        assert current() is before

    def test_run_without_trace_matches_experiment(self, capsys):
        assert main(["run", "fig6a", "--hours", "6"]) == 0
        run_out = capsys.readouterr().out
        assert "spotweb_H2" in run_out
        assert "wrote" not in run_out  # no trace file without opt-in
        assert "metrics:" not in run_out

    def test_run_with_trace_writes_valid_jsonl(self, capsys, tmp_path):
        from repro.obs.tracer import load_trace

        out = tmp_path / "trace.jsonl"
        assert main(["run", "fig6a", "--hours", "6", "--trace", str(out)]) == 0
        text = capsys.readouterr().out
        assert "metrics:" in text
        assert "controller.steps" in text
        records = load_trace(out)  # validates the schema
        names = {r["name"] for r in records}
        assert "experiment.fig6a" in names
        assert "controller.step" in names
        assert "qp.iterate" in names

    def test_run_fig4bcd_quick(self, capsys):
        assert main(["run", "fig4bcd", "--weeks", "1"]) == 0
        assert "spotweb" in capsys.readouterr().out

    def test_run_imports_only_its_own_experiment(self, tmp_path):
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            f"main(['run', 'table1', '--trace', {str(tmp_path / 't.jsonl')!r}])\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.experiments')))\n"
        )
        last = _fresh_interpreter(code)
        assert last == "['repro.experiments', 'repro.experiments.table1']"

    def test_run_with_events_writes_valid_journal(self, capsys, tmp_path):
        from repro.obs.events import load_events

        out = tmp_path / "events.jsonl"
        assert main(["run", "fig6a", "--hours", "6", "--events", str(out)]) == 0
        text = capsys.readouterr().out
        assert "wrote" in text and "events" in text
        assert "metrics:" in text
        records = load_events(out)  # full schema + causal validation
        kinds = {r["kind"] for r in records}
        assert "controller.plan" in kinds
        assert "interval.plan" in kinds

    def test_run_prom_out(self, capsys, tmp_path):
        out = tmp_path / "metrics.prom"
        assert (
            main(["run", "fig6a", "--hours", "4", "--prom-out", str(out)]) == 0
        )
        text = out.read_text()
        assert "# TYPE spotweb_controller_steps_total counter" in text
        assert "# HELP spotweb_controller_steps_total" in text
        # Registry-typed export: histograms render as summaries even
        # though their snapshot value is a dict either way.
        assert "# TYPE spotweb_controller_solve_ms summary" in text


class TestObservabilityRestored:
    """``top``, ``run`` and ``scenarios run`` leave the recording in force
    as they found it, however they exit."""

    @staticmethod
    def _in_force():
        from repro.obs import get_bus, get_events, get_metrics, get_tracer
        from repro.obs.recording import current

        return current(), get_tracer(), get_events(), get_bus(), get_metrics()

    @staticmethod
    def _same(a, b):
        return all(x is y for x, y in zip(a, b))

    def test_top_and_run_restore_every_switch(self, capsys, tmp_path):
        import sys

        before, hook = self._in_force(), sys.excepthook
        assert main(["top", "fig6a", "--hours", "4", "--once"]) == 0
        assert self._same(self._in_force(), before)
        argv = ["run", "fig6a", "--hours", "4", "--trace", str(tmp_path / "t")]
        argv += ["--events", str(tmp_path / "e"), "--flightrec", str(tmp_path)]
        assert main(argv) == 0
        assert self._same(self._in_force(), before)
        assert sys.excepthook is hook
        argv = ["scenarios", "run", "--scenario", "storm_az", "--engine"]
        argv += ["request", "--out-dir", str(tmp_path / "j")]
        assert main(argv + ["--flightrec", str(tmp_path / "f")]) == 0
        assert self._same(self._in_force(), before)
        recording, tracer, log, bus, _ = before
        assert recording.flightrec is None
        assert not (tracer.enabled or log.enabled or bus.enabled)
        # A plain run after both journals nothing.
        count = log.record_count()
        assert main(["run", "fig6a", "--hours", "4"]) == 0
        assert log.record_count() == count

    def test_check_violation_dumps_and_restores(
        self, monkeypatch, capsys, tmp_path
    ):
        # A failed --check exits through SystemExit: the invariant bundle
        # is written and listed, and the recording before is back.
        from repro import scenarios
        from repro.obs.events import read_events
        from repro.scenarios import Violation

        broken = Violation("storm_az[request]", "slo_floor", "stubbed")
        monkeypatch.setattr(scenarios, "check_runs", lambda runs: [broken])
        before = self._in_force()
        argv = ["scenarios", "run", "--scenario", "storm_az", "--engine"]
        argv += ["request", "--out-dir", str(tmp_path / "j"), "--check"]
        with pytest.raises(SystemExit, match="1 invariant violation"):
            main(argv + ["--flightrec", str(tmp_path / "f")])
        assert self._same(self._in_force(), before)
        (bundle,) = (tmp_path / "f").glob("*_invariant_violation.jsonl")
        assert f"flight recorder dumped {bundle}" in capsys.readouterr().out
        header, _records = read_events(bundle)
        assert header["trigger"] == {"violations": [str(broken)]}

    def test_parallel_violation_bundle_carries_the_serial_metrics(
        self, monkeypatch, tmp_path
    ):
        # The invariant bundle's header holds the sweep's metrics: a
        # --workers run's pool workers count into it as a serial run does.
        from repro import scenarios
        from repro.obs.events import read_events
        from repro.scenarios import Violation

        broken = Violation("price_war[interval]", "cost_ceiling", "stubbed")
        monkeypatch.setattr(scenarios, "check_runs", lambda runs: [broken])
        headers = []
        for mode in ([], ["--workers", "2"]):
            out = tmp_path / f"run{len(headers)}"
            argv = ["scenarios", "run", "--scenario", "price_war", "--check"]
            argv += ["--out-dir", str(out / "j"), "--flightrec", str(out / "f")]
            with pytest.raises(SystemExit, match="1 invariant violation"):
                main(argv + mode)
            (bundle,) = (out / "f").glob("*_invariant_violation.jsonl")
            headers.append(read_events(bundle)[0])
        serial, parallel = headers
        assert serial["metrics"]["sim.intervals"] > 0
        assert parallel["metrics"] == serial["metrics"]

    def test_crash_dumps_a_bundle_and_restores(self, monkeypatch, tmp_path):
        # The run completes a sweep, then raises: the recording flushes
        # the sweep's adopted records to the recorder before the crash
        # dump, so the bundle holds a window, not an empty buffer.
        import sys

        from repro import cli
        from repro.experiments.fig6a_constant import run_fig6a
        from repro.obs.events import read_events

        def sweep_then_boom(module, **options):
            run_fig6a(hours=4)
            raise RuntimeError("boom")

        boom = cli.EXPERIMENTS["fig6a"]._replace(run=sweep_then_boom)
        monkeypatch.setitem(cli.EXPERIMENTS, "fig6a", boom)
        before, hook = self._in_force(), sys.excepthook
        with pytest.raises(RuntimeError, match="boom"):
            main(["run", "fig6a", "--flightrec", str(tmp_path)])
        assert self._same(self._in_force(), before)
        assert sys.excepthook is hook
        (bundle,) = tmp_path.glob("flightrec_*_crash.jsonl")
        header, records = read_events(bundle)
        assert header["trigger"] == {"exception": "RuntimeError", "message": "boom"}
        assert header["records"] == len(records) > 0


class TestTraceCommand:
    def _write_trace(self, tmp_path):
        from repro.obs.tracer import Tracer, write_trace

        tracer = Tracer(enabled=True)
        with tracer.span("root"):
            with tracer.span("controller.step"):
                with tracer.span("controller.solve"):
                    pass
        return write_trace(tracer.records(), tmp_path / "t.jsonl")

    def test_validate(self, capsys, tmp_path):
        path = self._write_trace(tmp_path)
        assert main(["trace", "validate", str(path)]) == 0
        assert "schema OK" in capsys.readouterr().out

    def test_validate_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "nope"}\n')
        with pytest.raises(ValueError):
            main(["trace", "validate", str(path)])

    def test_summarize(self, capsys, tmp_path):
        path = self._write_trace(tmp_path)
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "top spans" in out

    def test_validate_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"schema": "spotweb-trace/1", "kind": "header"}\n{broken\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            main(["trace", "validate", str(path)])


class TestEventsCommand:
    def _write_journal(self, tmp_path, name="events.jsonl", mutate=None):
        from repro.obs.events import EventLog, write_events

        log = EventLog(enabled=True)
        wid = log.open_warning(1, t=10.0, capacity_rps=50.0)
        with log.causal(wid):
            log.emit("server.drain", t=11.0, backend=1)
            log.emit("session.migrate", t=11.0, backend=1, migrated=5)
        log.resolve_warning(wid, t=20.0)
        records = log.records()
        if mutate is not None:
            records = mutate(records)
        return write_events(records, tmp_path / name)

    def test_validate(self, capsys, tmp_path):
        path = self._write_journal(tmp_path)
        assert main(["events", "validate", str(path)]) == 0
        assert "schema OK" in capsys.readouterr().out

    def test_validate_rejects_unresolved_warning(self, tmp_path):
        path = self._write_journal(
            tmp_path,
            mutate=lambda recs: [
                r for r in recs if r["kind"] != "warning.resolved"
            ],
        )
        with pytest.raises(ValueError, match="never resolved"):
            main(["events", "validate", str(path)])

    def test_summarize(self, capsys, tmp_path):
        path = self._write_journal(tmp_path)
        assert main(["events", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "incident report" in out
        assert "outcomes: migrated=1" in out

    def test_timeline(self, capsys, tmp_path):
        path = self._write_journal(tmp_path)
        assert main(["events", "timeline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "incident timeline" in out
        assert "w0 warning.issued" in out

    def test_diff_identical(self, capsys, tmp_path):
        a = self._write_journal(tmp_path, "a.jsonl")
        b = self._write_journal(tmp_path, "b.jsonl")
        assert main(["events", "diff", str(a), str(b)]) == 0
        assert "zero divergence" in capsys.readouterr().out

    def test_diff_divergent_exits_nonzero(self, tmp_path):
        def mutate(recs):
            recs[1] = dict(recs[1], attrs=dict(recs[1]["attrs"], backend=9))
            return recs

        a = self._write_journal(tmp_path, "a.jsonl")
        b = self._write_journal(tmp_path, "b.jsonl", mutate=mutate)
        with pytest.raises(SystemExit, match="divergent"):
            main(["events", "diff", str(a), str(b)])

    def test_validate_and_summarize_a_bundle(self, capsys, tmp_path):
        from repro.obs.flightrec import FlightRecorder

        recorder = FlightRecorder(out_dir=tmp_path)
        journal = self._write_journal(tmp_path)
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        recorder({"t": 20.0, "interval": 0, "events": records[2:]})
        bundle = recorder.dump("manual", trigger={"why": "test"})
        assert main(["events", "validate", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "3 events, schema OK (flight bundle, reason manual)" in out
        assert main(["events", "summarize", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("flight bundle flightrec_001_manual.jsonl")
        assert 'trigger: {"why": "test"}' in out

    def test_diff_requires_two_files(self, tmp_path):
        a = self._write_journal(tmp_path)
        with pytest.raises(SystemExit, match="two journal files"):
            main(["events", "diff", str(a)])


class TestBenchCompare:
    @pytest.fixture
    def baseline(self, bench_stubs, tmp_path):
        """A baseline directory holding the stubbed run with its one warm
        cell at 8 ms; the fresh stubbed run times it at 10 ms."""
        import copy

        from repro.bench.report import write_bench

        base = tmp_path / "base"
        base.mkdir()
        mpo = copy.deepcopy(bench_stubs["mpo"])
        mpo["cells"][0]["warm_median_ms"] = 8.0
        write_bench(mpo, base / "BENCH_mpo.json")
        write_bench(bench_stubs["sim"], base / "BENCH_sim.json")
        return base

    def test_compare_gate(self, capsys, tmp_path, bench_stubs, baseline):
        """bench --compare fails only when a warm median regresses."""
        argv = [
            "bench",
            "--quick",
            "--out-dir",
            str(tmp_path / "out"),
            "--compare",
            str(baseline),
        ]
        assert main(argv) == 0  # 10.0 vs 8.0 is within 2.5x
        assert "no warm-latency or throughput regressions" in (
            capsys.readouterr().out
        )

        bench_stubs["mpo"]["cells"][0]["warm_median_ms"] = 20.1
        with pytest.raises(SystemExit, match="REGRESS_FACTOR.*2.51x"):
            main(argv)

    def test_compare_against_a_file_in_the_out_dir(self, bench_stubs, baseline):
        """The fresh BENCH_mpo.json lands on the baseline's path; the gate
        must still compare against the baseline as it was."""
        bench_stubs["mpo"]["cells"][0]["warm_median_ms"] = 20.1
        argv = ["bench", "--quick", "--out-dir", str(baseline)]
        with pytest.raises(SystemExit, match="regressed"):
            main(argv + ["--compare", str(baseline)])
