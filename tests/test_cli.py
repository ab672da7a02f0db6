"""Unit tests for the CLI."""

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


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

        from repro import cli

        assert set(cli._MODULES) == set(EXPERIMENTS)
        for module in cli._MODULES.values():
            assert importlib.util.find_spec(f"repro.experiments.{module}")

    def test_bench_takes_four_flags(self, capsys):
        import re

        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--quick", "--out-dir", "--seed", "--compare"}


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6b" in out

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
    def _restore_obs(self):
        from repro.obs.events import disable_events, get_events
        from repro.obs.metrics import reset_metrics
        from repro.obs.tracer import disable_tracing, get_tracer

        yield
        disable_tracing()
        get_tracer().clear()
        disable_events()
        get_events().clear()
        reset_metrics()

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
        assert main(["run", "fig4bcd", "--quick"]) == 0
        assert "spotweb" in capsys.readouterr().out

    def test_run_imports_only_its_own_experiment(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        code = (
            "import sys\n"
            "from repro.cli import main\n"
            f"main(['run', 'table1', '--trace', {str(tmp_path / 't.jsonl')!r}])\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.experiments')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=env,
        )
        last = out.stdout.strip().splitlines()[-1]
        assert last == "['repro.experiments', 'repro.experiments.table1']"

    def test_quick_shrinks_workload(self, monkeypatch):
        seen = {}
        from repro import cli

        def fake_runner(args):
            seen["weeks"] = args.weeks
            seen["hours"] = args.hours
            return "ok"

        monkeypatch.setitem(cli.EXPERIMENTS, "fig6a", ("desc", fake_runner))
        assert main(["run", "fig6a", "--quick"]) == 0
        assert seen == {"weeks": 1, "hours": 24}

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
    """``top``, ``run`` and ``scenarios run`` leave the observability
    switches as they were."""

    @staticmethod
    def _switches():
        from repro.obs.events import events_enabled
        from repro.obs.flightrec import flightrec_enabled
        from repro.obs.live import telemetry_enabled
        from repro.obs.tracer import tracing_enabled

        return (
            tracing_enabled(),
            events_enabled(),
            telemetry_enabled(),
            flightrec_enabled(),
        )

    def test_top_and_run_restore_every_switch(self, capsys, tmp_path):
        import sys

        from repro.obs.events import get_events
        from repro.obs.flightrec import get_flightrec
        from repro.obs.live import get_bus

        hook = sys.excepthook
        assert main(["top", "fig6a", "--hours", "4", "--once"]) == 0
        assert self._switches() == (False, False, False, False)
        argv = ["run", "fig6a", "--hours", "4", "--trace", str(tmp_path / "t")]
        argv += ["--events", str(tmp_path / "e"), "--flightrec", str(tmp_path)]
        assert main(argv) == 0
        assert self._switches() == (False, False, False, False)
        assert sys.excepthook is hook
        argv = ["scenarios", "run", "--scenario", "storm_az", "--engine"]
        argv += ["request", "--out-dir", str(tmp_path / "j")]
        assert main(argv + ["--flightrec", str(tmp_path / "f")]) == 0
        assert self._switches() == (False, False, False, False)
        assert get_flightrec() not in get_bus()._subscribers
        # A plain run after both journals nothing.
        count = get_events().record_count()
        assert main(["run", "fig6a", "--hours", "4"]) == 0
        assert get_events().record_count() == count

    def test_exception_leaves_the_recorder_armed(self, monkeypatch, tmp_path):
        import sys

        from repro import cli
        from repro.obs.events import disable_events
        from repro.obs.flightrec import disable_flightrec, uninstall_crash_hooks
        from repro.obs.live import disable_telemetry

        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.EXPERIMENTS, "fig6a", ("desc", boom))
        hook = sys.excepthook
        try:
            with pytest.raises(RuntimeError, match="boom"):
                main(["run", "fig6a", "--flightrec", str(tmp_path)])
            # The crash hook must still find an armed recorder.
            assert self._switches()[1:] == (True, True, True)
            assert sys.excepthook is not hook
        finally:
            uninstall_crash_hooks()
            disable_flightrec()
            disable_telemetry()
            disable_events()
        assert sys.excepthook is hook


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

        recorder = FlightRecorder(enabled=True, out_dir=tmp_path)
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
