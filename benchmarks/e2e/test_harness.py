"""Self-tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import statistics
import sys

import pytest

import compare
import ledger as lg
import run
import workloads
from repro.obs.tracer import Tracer
from repro.workloads import wikipedia_like

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _nested_tree(ledger: lg.Ledger, clock: FakeClock):
    """top(3s self) -> mid(2.5s self) -> 2 x leaf(1s each)."""

    def leaf():
        clock.t += 1.0

    def mid():
        clock.t += 2.0
        leaf_w()
        clock.t += 0.5
        leaf_w()

    def top():
        clock.t += 3.0
        mid_w()

    leaf_w = ledger.wrap(lg.Entry("leaf", "leaf", span=False), leaf)
    mid_w = ledger.wrap(lg.Entry("mid", "mid", span=False), mid)
    return ledger.wrap(lg.Entry("top", "top", span=False), top)


@pytest.mark.parametrize(
    "costs, expected",
    [
        (
            lg.Costs(),
            {"leaf": 2.0, "mid": 2.5, "top": 3.0, "unattributed": 1.0, "trace": 0.0},
        ),
        # Each call books c_in less to itself and c_out less to its caller.
        (
            lg.Costs(c_in=0.1, c_out=0.2),
            {"leaf": 1.8, "mid": 2.0, "top": 2.7, "unattributed": 0.8, "trace": 1.2},
        ),
    ],
)
def test_self_time_folding_on_a_fake_clock(costs, expected):
    clock = FakeClock()
    ledger = lg.Ledger(clock=clock, plain=costs)
    top = _nested_tree(ledger, clock)
    clock.t += 0.25  # outside every wrapper
    top()
    clock.t += 0.75
    wall = clock.t
    rows = ledger.fold(wall)
    assert {k: round(v["self_s"], 9) for k, v in rows.items()} == expected
    assert rows["leaf"]["calls"] == 2 and rows["top"]["calls"] == 1
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(wall)
    assert sum(r["share"] for r in rows.values()) == pytest.approx(1.0)


def test_shim_cost_is_taken_from_the_calling_layer():
    clock = FakeClock()
    ledger = lg.Ledger(clock=clock, shim_s=0.25)

    def accessor():
        clock.t += 0.25  # what one shim call costs on this clock

    shim = ledger.counting_shim(accessor, "get_x")

    def work():
        clock.t += 1.0
        shim()
        shim()

    ledger.wrap(lg.Entry("outer", "outer", span=False), work)()
    shim()
    rows = ledger.fold(clock.t)
    assert ledger.shim_calls == {"get_x": 3}
    assert rows["outer"]["self_s"] == 1.0
    assert rows["trace"]["self_s"] == 0.75
    assert rows["unattributed"]["self_s"] == 0.0
    ledger.reset()
    assert ledger.shim_calls == {"get_x": 0}


@pytest.mark.parametrize(
    "traced, booked, flagged",
    [
        ([1.10, 1.30], [0.10, 0.10], False),  # the calibration covers it
        ([1.10, 1.30], [0.02, 0.02], True),  # 8% of tracing cost uncounted
        ([1.0, 1.30], [0.05, 0.05], True),  # booked more than it cost
    ],
)
def test_residual_measures_uncounted_tracing_cost(traced, booked, flagged):
    untraced = [1.0, 1.2]
    res = lg.residual(untraced, traced, booked)
    assert (abs(res) > lg.RESIDUAL_LIMIT) is flagged
    assert res == pytest.approx(min(t - b for t, b in zip(traced, booked)) - 1.0)


def test_a_raising_call_still_books_its_time():
    clock = FakeClock()
    ledger = lg.Ledger(clock=clock)

    def boom():
        clock.t += 2.0
        raise RuntimeError("boom")

    outer = ledger.wrap(lg.Entry("outer", "outer", span=False), lambda: boom_w())
    boom_w = ledger.wrap(lg.Entry("boom", "boom", span=False), boom)
    with pytest.raises(RuntimeError):
        outer()
    rows = ledger.fold(clock.t)
    assert rows["boom"]["self_s"] == 2.0 and rows["outer"]["self_s"] == 0.0
    assert rows["unattributed"]["self_s"] == 0.0


def _bound_state() -> list[tuple[object, str, object]]:
    state = [(owner, name, vars(owner)[name]) for _l, owner, name in lg.entry_points()]
    for mod_name, module in sorted(sys.modules.items()):
        if module is not None and mod_name.startswith("repro"):
            state.extend((module, k, v) for k, v in sorted(vars(module).items()) if callable(v))
    return state


def test_install_then_uninstall_restores_every_binding():
    before = _bound_state()
    inst = lg.install(lg.Ledger(tracer=Tracer(enabled=True)))
    try:
        assert vars(lg.entry_points()[0][1])[lg.entry_points()[0][2]] is not before[0][2]
        from repro.simulator import hybrid, system

        assert system.materialize_fleet is hybrid.materialize_fleet
        assert importlib.import_module("repro.obs").get_tracer.__name__ == "shim"
    finally:
        lg.uninstall(inst)
    after = _bound_state()
    assert len(after) == len(before)
    assert all(a[2] is b[2] for a, b in zip(after, before))


def _run_both_ways(build, run_fn):
    """Outputs of an unwrapped and a wrapped run, and the wrapped ledger."""
    plain = json.loads(json.dumps(run_fn(build())))
    ledger = lg.Ledger(tracer=Tracer(enabled=True))
    inst = lg.install(ledger)
    try:
        inputs = build()
        lg.reset(inst)
        wrapped = json.loads(json.dumps(run_fn(inputs)))
    finally:
        lg.uninstall(inst)
    return plain, wrapped, ledger.fold(1.0), inst


def test_wrapped_costsim_run_matches_unwrapped():
    build = workloads._costsim(
        markets=6,
        horizon=2,
        intervals=30,
        trace=wikipedia_like(1, seed=1).scaled(3000.0),
        market_seed=1,
    )
    plain, wrapped, rows, inst = _run_both_ways(lambda: build(1), workloads._costsim_run)
    assert wrapped == plain
    assert rows["solvers"]["calls"] > 0 and rows["core.controller"]["calls"] == 30
    assert inst.extras["solvers.iterations"] > 0
    assert sum(inst.ledger.shim_calls.values()) > 0
    inputs = build(1)
    workloads._costsim_run(inputs)
    decide_ms = workloads._costsim_decide_ms(inputs)
    assert len(decide_ms) == 30 and min(decide_ms) > 0


def test_wrapped_cluster_run_matches_unwrapped(monkeypatch):
    monkeypatch.setattr(workloads, "FIG4A_SCALE", 0.02)
    plain, wrapped, rows, inst = _run_both_ways(lambda: 0, workloads._fig4a_run)
    assert wrapped == plain
    for layer in ("simulator.cluster", "loadbalancer", "simulator.server", "simulator.fluid"):
        assert rows[layer]["calls"] > 0, layer
    assert inst.extras["simulator.hybrid.moved"] > 0


@pytest.fixture
def fake_workload(monkeypatch, tmp_path):
    """A tiny stand-in for costsim_fig6b and a reference file to check it."""
    fake = workloads.Workload(
        "costsim_fig6b", 3, lambda seed: seed, lambda _seed: {"x": 1}, lambda _out: []
    )
    monkeypatch.setitem(workloads.WORKLOADS, "costsim_fig6b", lambda: fake)
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(os, "environ", dict(os.environ))
    reference = tmp_path / "reference.json"
    monkeypatch.setattr(run, "REFERENCE", reference)
    return reference


@pytest.mark.parametrize(
    "script, problem",
    [("import time; time.sleep(30)", "took over"), ("print('no number')", "exited 0")],
)
def test_a_failed_setup_probe_counts_as_one_failure(fake_workload, monkeypatch, script, problem):
    monkeypatch.setattr(run, "_probe_command", lambda _name, _seed: [sys.executable, "-c", script])
    monkeypatch.setattr(run, "PROBE_TIMEOUT_S", 1.0)
    session = run.Session("costsim_fig6b", None)
    assert run._setup_probe(session, "costsim_fig6b") is None
    assert (session.attempted, session.failed) == (1, 1)
    assert problem in session.problems[0]


@pytest.mark.parametrize("stored, code", [({"x": 1}, 0), ({"x": 2}, 1)])
def test_reference_mismatch_gives_nonzero_exit(fake_workload, capsys, stored, code):
    fake_workload.write_text(json.dumps({"costsim_fig6b": stored}))
    assert run.main(["--workload", "costsim_fig6b", "--seconds", "0"]) == code
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is (code == 0)
    assert result["failed"] == (0 if code == 0 else result["attempted"])


def test_benchmark_json_schema():
    bench = json.loads(run.BENCHMARK.read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in bench[group]]
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    workload_names = [w["name"] for w in bench["workloads"]]
    assert workload_names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == run.E2E_UNITS
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 and m["better"] == "lower" for m in e2e.values())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    per_layer = set(run.per_layer_units())
    assert set(lg.LAYER_MOVES) == set(lg.LAYERS)
    for layer, moves in lg.LAYER_MOVES.items():
        assert f"{layer}.self_s" in per_layer
        assert set(moves["metrics"]) <= set(e2e), layer
        assert set(moves["workloads"]) <= set(workload_names), layer


def test_compare_verdicts():
    def cell(parent, change, paired=True):
        return compare.verdict(parent, change, bound=0.1, lower_is_better=True, paired=paired)[0]

    steady = [1.0, 1.01, 0.99, 1.0]
    assert cell(steady, [1.02, 1.03]) == "unchanged"
    assert cell(steady, [1.2, 1.25]) == "regressed"
    assert cell([1.0, 1.5, 0.7, 1.2], [1.3, 1.31]) == "unresolved"
    assert cell([1.0], [1.3]) == "unresolved"  # one value a side: noise unknown
    parent = [1.0 + 0.01 * (i % 3) for i in range(10)]
    assert cell(parent, [0.8] * 10) == "improved"
    assert cell(parent, [0.8] * 10, paired=False) == "unchanged"
    assert cell(parent[:5], [0.8] * 5) == "unchanged"  # too few pairs to claim


def _result_set(setups: list[float], walls: list[float], rss: float) -> dict:
    metrics = {
        "setup_s": {"value": statistics.median(setups), "samples": setups},
        "wall_s": {"value": min(walls), "samples": walls},
        "peak_rss_mb": {"value": rss},
    }
    return {"workloads": {"fluid_500k": {"attempted": 4, "failed": 0, "metrics": metrics}}}


def test_compare_takes_a_single_sets_noise_from_its_samples():
    bench = json.loads(run.BENCHMARK.read_text())
    walls = [0.75, 0.76, 0.80, 0.78]

    def verdicts(change: dict) -> dict[str, str]:
        rows, ok = compare.compare([_result_set([0.80, 0.81, 0.79], walls, 108.0)], [change], bench)
        cells = {r["metric"]: r["verdict"] for r in rows}
        assert ok is (cells["setup_s"] != "regressed")
        return cells

    # A set-up slowed as a whole (every probe of the change, unevenly): noise.
    assert verdicts(_result_set([1.00, 1.41, 1.16], walls, 108.0))["setup_s"] == "unresolved"
    # Steady on both sides and 40% slower: a regression.
    assert verdicts(_result_set([1.12, 1.13, 1.11], walls, 108.0))["setup_s"] == "regressed"
    cells = verdicts(_result_set([0.81, 0.80, 0.79], walls, 108.5))
    assert cells["setup_s"] == cells["wall_s"] == "unchanged"
    assert cells["peak_rss_mb"] == "unresolved"  # measured once a process
