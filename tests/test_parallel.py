"""Unit tests for the parallel sweep helpers."""

import os
from collections import Counter

import numpy as np
import pytest

from repro.obs.events import EventLog, get_events, read_events
from repro.obs.flightrec import FlightRecorder
from repro.obs.live import TelemetryBus
from repro.obs.recording import Recording
from repro.parallel import (
    clear_shared_setup,
    derive_seed,
    pmap,
    shared_setup,
    sweep_grid,
)


def _square(x):
    return x * x


def _pid_tag(x):
    return (x, os.getpid())


def _logged_cell(item):
    """Module-level cell: note the run in its log, journal one event, and
    raise when the item is the sweep's failing one."""
    log, x, failing = item
    with open(log, "a") as fh:
        fh.write(f"{x}\n")
    get_events().emit("test.cell", t=float(x))
    if x == failing:
        raise ValueError(f"cell {x} failed")
    return x * x


def _runs(log):
    """How often each item ran, as its log says."""
    return Counter(int(line) for line in log.read_text().split())


class TestPmap:
    def test_order_preserved_serial(self):
        assert pmap(_square, [3, 1, 2], max_workers=1) == [9, 1, 4]

    def test_order_preserved_parallel(self):
        out = pmap(_square, list(range(20)), max_workers=4)
        assert out == [x * x for x in range(20)]

    def test_empty(self):
        assert pmap(_square, []) == []

    def test_parallel_uses_multiple_processes_when_possible(self):
        out = pmap(_pid_tag, list(range(8)), max_workers=4)
        pids = {pid for _, pid in out}
        # Either real parallelism (several pids) or the graceful serial
        # fallback (exactly this process) — both are correct.
        assert len(pids) >= 1
        assert [x for x, _ in out] == list(range(8))


class TestPmapFailures:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_cell_leaves_its_predecessors_in_the_crash_bundle(
        self, workers, tmp_path
    ):
        # Each cell runs once, the cell's ValueError reaches the caller,
        # the cells before it were adopted as they arrived, and the failing
        # cell's records came back with its exception: the crash bundle
        # holds all three cells' records.  The cell's own crash bundle is
        # written first, in item order.
        log = tmp_path / "runs.log"
        recording = Recording(
            events=EventLog(enabled=True),
            bus=TelemetryBus(enabled=True),
            flightrec=FlightRecorder(out_dir=tmp_path / "fr"),
        )
        recording.bus.subscribe(recording.flightrec)
        items = [(str(log), x, 2) for x in range(4)]
        with pytest.raises(ValueError, match="cell 2 failed"):
            with recording:
                pmap(_logged_cell, items, max_workers=workers)
        runs = _runs(log)
        assert [runs[x] for x in range(3)] == [1, 1, 1] and runs[3] <= 1
        cell_bundle, bundle = recording.flightrec.dumped
        header, records = read_events(bundle)
        assert header["reason"] == "crash" and header["records"] == 3
        assert [r["attrs"]["cell"] for r in records] == [0, 1, 2]
        cell_header, _ = read_events(cell_bundle)
        assert cell_header["reason"] == "crash"
        assert cell_header["trigger"]["message"] == "cell 2 failed"

    def test_a_pool_that_cannot_start_runs_the_cells_serially(
        self, monkeypatch, tmp_path
    ):
        import repro.parallel

        def no_pool(*args, **kwargs):
            raise OSError("no semaphores")

        serial = pmap(
            _logged_cell,
            [(str(tmp_path / "serial.log"), x, None) for x in range(4)],
            max_workers=1,
        )
        monkeypatch.setattr(repro.parallel, "ProcessPoolExecutor", no_pool)
        log = tmp_path / "fallback.log"
        items = [(str(log), x, None) for x in range(4)]
        assert pmap(_logged_cell, items, max_workers=2) == serial
        assert _runs(log) == {0: 1, 1: 1, 2: 1, 3: 1}


class TestSweepGrid:
    def test_cross_product(self):
        grid = sweep_grid(a=(1, 2), b=("x",))
        assert grid == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]

    def test_empty_grid(self):
        assert sweep_grid() == [{}]

    def test_order_stable(self):
        grid = sweep_grid(m=(6, 12), h=(2, 4))
        assert grid[0] == {"m": 6, "h": 2}
        assert grid[-1] == {"m": 12, "h": 4}


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = derive_seed(0, "table1_costs", 1)
        assert a == derive_seed(0, "table1_costs", 1)
        assert a != derive_seed(0, "table1_costs", 2)
        assert a != derive_seed(1, "table1_costs", 1)

    def test_known_value_stable_across_runs(self):
        # SHA-256-based, so immune to Python hash randomization: the value
        # below must never change, or saved sweep results stop reproducing.
        assert derive_seed(7, "cell", 3) == 587788171464849038

    def test_valid_rng_seed(self):
        seed = derive_seed(123, "x", "y", 4.5)
        assert 0 <= seed < 2**63
        np.random.default_rng(seed)  # accepted


class TestSharedSetup:
    def test_factory_called_once_per_key(self):
        clear_shared_setup()
        calls = []

        def factory():
            calls.append(1)
            return {"data": 42}

        first = shared_setup(("t", 1), factory)
        second = shared_setup(("t", 1), factory)
        assert first is second
        assert len(calls) == 1
        shared_setup(("t", 2), factory)
        assert len(calls) == 2
        clear_shared_setup()
        shared_setup(("t", 1), factory)
        assert len(calls) == 3


class TestSerialParallelIdentical:
    @pytest.mark.slow
    def test_table1_costs_bitwise_identical(self):
        from repro.experiments import table1

        kw = dict(
            policies=("exosphere", "ondemand"),
            reps=2,
            num_markets=3,
            weeks=1,
            peak_rps=8_000.0,
            seed=0,
        )
        serial = table1.run_table1_costs(**kw)
        clear_shared_setup()
        parallel = table1.run_table1_costs(**kw, workers=2)
        assert set(serial.reports) == set(parallel.reports)
        for key, rs in serial.reports.items():
            rp = parallel.reports[key]
            assert rs.total_cost == rp.total_cost  # bitwise, not approx
            assert rs.unserved_requests == rp.unserved_requests
            np.testing.assert_array_equal(rs.counts, rp.counts)
            np.testing.assert_array_equal(rs.interval_costs, rp.interval_costs)

    def test_sweep_metrics_match_serial(self):
        # Each cell counts into its own registry, which pmap folds into
        # the caller's: a pool's workers lose none of their metrics.
        from repro.experiments.fig6a_constant import run_fig6a
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.recording import current

        snapshots = []
        for workers in (1, 2):
            clear_shared_setup()
            with current().replace(metrics=MetricsRegistry()) as rec:
                run_fig6a(hours=4, workers=workers)
            snapshots.append(rec.metrics.sim_snapshot())
        serial, parallel = snapshots
        assert serial["mpo.solves"] > 0 and serial["sim.intervals"] > 0
        assert parallel == serial

    @pytest.mark.slow
    def test_fig6a_parallel_matches_serial(self):
        from repro.experiments import fig6a_constant

        kw = dict(horizons=(2,), hours=24, seed=3)
        serial = fig6a_constant.run_fig6a(**kw)
        clear_shared_setup()
        par = fig6a_constant.run_fig6a(**kw, workers=2)
        assert serial.constant.total_cost == par.constant.total_cost
        assert (
            serial.spotweb_by_horizon[2].total_cost
            == par.spotweb_by_horizon[2].total_cost
        )
