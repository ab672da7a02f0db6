"""Tests for the two-tier hybrid engine: fluid tier, handoffs, accuracy."""

import numpy as np
import pytest

from repro.obs.events import EventLog, validate_events
from repro.obs.recording import current
from repro.simulator import (
    ClusterConfig,
    FluidEngine,
    HybridClusterSimulation,
)
from repro.simulator.fluid import (
    QUANTILE_EDGES,
    response_nodes,
    split_offered,
    stochastic_wait,
    warm_multiplier,
)
from repro.simulator.hybrid import (
    ENGINES,
    TIER_FLUID,
    TIER_REQUEST,
    HybridConfig,
)
from repro.simulator.metrics import LatencyRecorder

from conftest import ReferenceFluidEngine, ReferenceLatencyRecorder, server_mass


def build(engine="hybrid", *, servers=4, capacity=100.0, seed=0, **hybrid_kw):
    config = ClusterConfig(seed=seed)
    cluster = HybridClusterSimulation(
        config,
        engine=engine,
        hybrid=HybridConfig(settle_seconds=5.0, **hybrid_kw),
        keep_raw=True,
    )
    for _ in range(servers):
        cluster.add_server(capacity, boot_seconds=0.0)
    for server in cluster.servers.values():
        server.prewarm(-config.warmup_seconds)
    return cluster


class TestFluidHelpers:
    def test_warm_multiplier_decays_to_one(self):
        since = np.array([0.0, 0.0, 100.0])
        warm = np.array([60.0, 60.0, 60.0])
        cold = np.array([2.0, 2.0, 2.0])
        early = warm_multiplier(0.0, since, warm, cold)
        late = warm_multiplier(120.0, since, warm, cold)
        assert early[0] == pytest.approx(2.0)
        assert late[0] == pytest.approx(1.0)
        # Not-yet-serving rows report the full cold multiplier.
        assert early[2] == pytest.approx(2.0)

    def test_split_offered_proportional(self):
        out = split_offered(100.0, np.array([1.0, 3.0]))
        assert out == pytest.approx([25.0, 75.0])
        assert split_offered(10.0, np.zeros(2)).sum() == 0.0

    def test_stochastic_wait_monotone_in_rho(self):
        svc = np.full(3, 0.1)
        k = np.full(3, 4.0)
        w = stochastic_wait(np.array([0.2, 0.6, 0.95]), svc, k)
        assert w[0] < w[1] < w[2]
        # Saturated rho stays finite via the clip.
        assert np.isfinite(
            stochastic_wait(np.array([2.0]), svc[:1], k[:1])
        ).all()

    def test_response_nodes_shape_and_order(self):
        nodes = response_nodes(np.array([0.5]), np.array([0.1]))
        assert nodes.shape == (1, QUANTILE_EDGES.size - 1)
        assert (np.diff(nodes[0]) > 0).all()
        assert nodes[0, 0] > 0.5


class TestFluidEngineConservation:
    def run_steps(self, cluster, steps=50, rate=300.0):
        fluid = FluidEngine(cluster.sim)
        for k in range(steps):
            fluid.sync(cluster.servers, float(k))
            fluid.step(float(k), 1.0, rate)
        return fluid

    def test_ledger_balances(self):
        fluid = self.run_steps(build())
        assert fluid.balance_error() < 1e-6

    def test_withdraw_deposit_round_trip(self):
        cluster = build()
        fluid = self.run_steps(cluster, rate=380.0)
        before = fluid.total_mass()
        counts = fluid.withdraw()
        moved = sum(counts.values())
        assert moved == int(sum(int(v) for v in counts.values()))
        # Residuals below one request stay fluid.
        assert fluid.total_mass() == pytest.approx(before - moved)
        for sid, n in counts.items():
            fluid.deposit(sid, n)
        assert fluid.total_mass() == pytest.approx(before)
        assert fluid.balance_error() < 1e-6

    def test_dead_server_mass_reported_failed(self):
        cluster = build()
        fluid = self.run_steps(cluster, rate=380.0)
        victim = cluster.servers[0]
        victim.kill()
        failed = fluid.sync(cluster.servers, 100.0)
        assert failed >= 0.0
        assert 0 not in server_mass(fluid)
        assert fluid.balance_error() < 1e-6

    def test_steady_state_mass_tracks_littles_law(self):
        # Below saturation the persistent mass must approximate
        # rate * response_time (in-system work), not drain to zero —
        # materialization depends on it.
        cluster = build()
        fluid = self.run_steps(cluster, steps=100, rate=300.0)
        mass = fluid.total_mass()
        assert 300.0 * 0.05 < mass < 300.0 * 1.0


LEDGER = ("offered", "served", "dropped", "failed", "deposited", "withdrawn")


def bits(values):
    """The float64 bytes of a number or a sequence of numbers."""
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_mass(a, b):
    """Same per-server mass, bit for bit, given as id -> mass maps."""
    assert sorted(a) == sorted(b)
    assert bits([a[sid] for sid in sorted(a)]) == bits([b[sid] for sid in sorted(b)])


def assert_same_ledger(a, b):
    for total in LEDGER:
        attr = f"{total}_total"
        assert bits(getattr(a, attr)) == bits(getattr(b, attr)), attr


def assert_same_engine(cached, fresh):
    """Bitwise equality of two engines' columns, order, mass and ledger."""
    assert cached._order == fresh._order
    assert cached._cols.keys() == fresh._cols.keys()
    for name, col in cached._cols.items():
        assert col.dtype == fresh._cols[name].dtype, name
        assert col.tobytes() == fresh._cols[name].tobytes(), name
    assert_same_mass(server_mass(cached), server_mass(fresh))
    assert_same_ledger(cached, fresh)


def assert_same_step(a, b):
    for name in ("t", "dt", "offered", "served", "dropped", "queue_mass", "max_rho"):
        assert bits(getattr(a, name)) == bits(getattr(b, name)), name
    for name in ("latencies", "weights"):
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
        assert getattr(a, name).shape == getattr(b, name).shape, name
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def assert_same_recorder(a, b):
    """Bitwise equality of the served-mass state of two recorders."""
    assert bits([a._served, a._late]) == bits([b._served, b._late])
    da, db = a.digest, b.digest
    assert [type(c) for c in da.counts] == [type(c) for c in db.counts]
    assert bits(da.counts) == bits(db.counts)
    assert bits([da.count, da.total, da.max]) == bits([db.count, db.total, db.max])


class TestFluidSyncCache:
    def test_unchanged_fleet_reuses_columns(self):
        cluster = build()
        fluid = FluidEngine(cluster.sim)
        fluid.sync(cluster.servers, 0.0)
        fluid.step(0.0, 1.0, 300.0)
        cols = fluid._cols
        arrays = {name: col for name, col in cols.items() if name != "mass"}
        assert fluid.sync(cluster.servers, 1.0) == 0.0
        assert fluid._cols is cols
        assert all(cols[name] is col for name, col in arrays.items())
        # A lifecycle change invalidates the cache.
        cluster.servers[0].drain()
        fluid.sync(cluster.servers, 2.0)
        assert fluid._cols is not cols
        assert fluid._cols["draining"].tolist() == [True, False, False, False]

    def test_steady_run_never_rebuilds_columns(self):
        # Count gate on the sync cache and the step's fleet work: a warm
        # fleet that never changes keeps its columns, its fleet terms and
        # its per-server map through 300 fluid steps (rebuilding on every
        # sync, recomputing the terms every step or writing the map back
        # after every step makes the matching count 300).  Compare objects
        # with `is`: a freed object's id() can be reused by the next one.
        cluster = build(servers=40, capacity=100.0)
        rate = 0.8 * 40 * 100.0
        cluster.run(10.0, rate)  # the first fluid sync builds the columns
        fluid = cluster.fluid

        class CountingMap(dict):
            writes = 0

            def __setitem__(self, key, value):
                self.writes += 1
                super().__setitem__(key, value)

            def update(self, *args, **kwargs):
                self.writes += 1
                super().update(*args, **kwargs)

        fluid._mass = CountingMap(fluid._mass)
        real_sync, real_step = fluid.sync, fluid.step
        rebuilds = map_writes = 0
        terms_used = []  # each fleet-terms object the steps ran on

        def counting_sync(servers, now):
            nonlocal rebuilds, map_writes
            before, writes = fluid._cols, fluid._mass.writes
            failed = real_sync(servers, now)
            rebuilds += fluid._cols is not before
            map_writes += fluid._mass.writes != writes
            return failed

        def counting_step(now, dt, rate):
            nonlocal map_writes
            writes = fluid._mass.writes
            step = real_step(now, dt, rate)
            map_writes += fluid._mass.writes != writes
            if not terms_used or fluid._terms is not terms_used[-1]:
                terms_used.append(fluid._terms)
            return step

        fluid.sync = counting_sync
        fluid.step = counting_step
        steps = dict(cluster.tier_steps)
        cluster.run(300 * cluster.hybrid.interval_seconds, rate)
        assert cluster.tier_steps[TIER_FLUID] - steps[TIER_FLUID] == 300
        assert cluster.tier_steps[TIER_REQUEST] == steps[TIER_REQUEST]
        assert rebuilds == 0
        assert len(terms_used) == 1  # computed once, at the first warm step
        assert map_writes == 0

    def test_cached_sync_matches_rebuild_every_step(self):
        # A seeded random mix of fleet events, steps and handoffs.  The
        # cached engine must match, bit for bit, one that rebuilds on
        # every sync, and the reference copy of the engine from before
        # the fleet terms were cached and the map written lazily
        # (conftest.ReferenceFluidEngine); a recorder fed by the cached
        # engine must match the reference recorder fed by the reference.
        # The mix covers boots with cold caches that warm up mid-run,
        # prewarms into the past, partial-dt steps, an all-draining fleet
        # (zero split weight) and rows that serve no mass in a step.
        config = ClusterConfig(seed=0)
        cluster = HybridClusterSimulation(config, engine="fluid")
        sim, servers = cluster.sim, cluster.servers
        cached, fresh = FluidEngine(sim), FluidEngine(sim)
        reference = ReferenceFluidEngine(sim)
        engines = (cached, fresh, reference)
        recorder, ref_recorder = LatencyRecorder(), ReferenceLatencyRecorder()
        rng = np.random.default_rng(42)
        for _ in range(3):
            cluster.add_server(100.0, boot_seconds=0.0)
        hits = rebuilds = reused = warming = no_split = idle = 0
        for _ in range(600):
            event = rng.integers(0, 16)
            live = [sid for sid in sorted(servers) if servers[sid].alive]
            if event == 0:
                cluster.add_server(
                    float(rng.uniform(50.0, 150.0)),
                    boot_seconds=float(rng.choice([0.0, 3.0, 7.5])),
                )
            elif event == 1 and live:
                servers[int(rng.choice(live))].drain()
            elif event == 2 and live:
                servers[int(rng.choice(live))].kill()
            elif event == 3 and live and rng.random() < 0.5:
                # A warm fleet, as build() makes one: the terms freeze.
                for sid in live:
                    servers[sid].prewarm(
                        sim.now - config.warmup_seconds - float(rng.uniform(0.0, 30.0))
                    )
            elif event == 3 and live:
                # Into the past: some rows land warm, some mid-warm-up.
                servers[int(rng.choice(live))].prewarm(
                    sim.now - float(rng.uniform(0.0, 150.0))
                )
            elif event == 4 and live:
                # Revocation: warning now, kill when the window closes.
                victim = servers[int(rng.choice(live))]
                victim.drain()
                sim.schedule(float(rng.uniform(0.5, 4.0)), victim.kill)
            elif event == 5:
                counts = cached.withdraw()
                assert counts == fresh.withdraw() == reference.withdraw()
                for sid in sorted(counts):
                    keep = counts[sid] // 2
                    for engine in engines:
                        engine.deposit(sid, keep)
            elif event == 6 and live:
                sid = int(rng.choice(live))
                n = int(rng.integers(1, 20))
                for engine in engines:
                    engine.deposit(sid, n)
            elif event == 7 and rng.random() < 0.1:
                # The whole fleet drains: nothing accepts new work.
                for sid in live:
                    servers[sid].drain()
            elif event == 8:
                assert bits(cached.total_mass()) == bits(reference.total_mass())
            t0 = sim.now
            dt = float(rng.choice([0.5, 1.0, float(rng.uniform(0.05, 1.0))]))
            sim.advance(t0 + dt)  # boots and scheduled kills fire here
            before, terms = cached._cols, cached._terms
            fresh._synced = None
            failed = cached.sync(servers, t0 + dt)
            assert failed == fresh.sync(servers, t0 + dt)
            assert failed == reference.sync(servers, t0 + dt)
            if cached._cols is before:
                hits += 1
            else:
                rebuilds += 1
            assert_same_engine(cached, fresh)
            capacity = sum(s.capacity_rps for s in servers.values() if s.alive)
            rate = float(rng.choice([0.0, float(rng.uniform(0.0, 1.2))])) * capacity
            step = cached.step(t0, dt, rate)
            assert_same_step(step, fresh.step(t0, dt, rate))
            ref_step = reference.step(t0, dt, rate)
            assert_same_step(step, ref_step)
            assert_same_engine(cached, fresh)
            assert_same_mass(server_mass(cached), reference._mass)
            for engine in (fresh, reference):
                assert_same_ledger(cached, engine)
            recorder.record_served_mass(t0 + dt, step.latencies, step.weights)
            ref_recorder.record_served_mass(
                t0 + dt, ref_step.latencies, ref_step.weights
            )
            assert_same_recorder(recorder, ref_recorder)
            if cached._order:
                all_serving = (cached._cols["since"] <= t0 + dt / 2.0).all()
                reused += cached._terms is terms
                warming += bool(all_serving) and cached._terms.valid_from > t0 + dt
                no_split += cached._terms.share is None
                idle += step.weights.size < cached._cols["mass"].size * (
                    QUANTILE_EDGES.size - 1
                )
        assert hits > 50 and rebuilds > 50
        # Every case the mix is meant to cover happened.
        assert reused > 20 and warming > 50 and no_split > 20 and idle > 50
        for engine in engines:
            assert engine.balance_error() < 1e-6
        assert bits([e.total_mass() for e in engines[1:]]) == bits(
            [cached.total_mass()] * 2
        )


class TestHandoffs:
    def test_materialize_absorb_conserves_work(self):
        cluster = build()
        cluster.schedule_revocation(1, 30.0, warning_seconds=5.0)
        cluster.run(90.0, 300.0)
        assert cluster.tier_switches >= 2
        assert cluster.tier_steps[TIER_FLUID] > 0
        assert cluster.tier_steps[TIER_REQUEST] > 0
        assert cluster.fluid.balance_error() < 1e-6

    def test_materialize_gives_balancer_real_utilization(self):
        # The drain-vs-defer decision reads utilization; a fluid->request
        # handoff must leave the doomed servers visibly busy.
        cluster = build(servers=4)
        cluster.sim.advance(20.0)
        cluster.fluid.sync(cluster.servers, cluster.sim.now)
        for k in range(30):
            cluster.fluid.sync(cluster.servers, cluster.sim.now)
            cluster.fluid.step(cluster.sim.now, 1.0, 360.0)
            cluster.sim.advance(cluster.sim.now + 1.0)
        cluster._tier = TIER_FLUID
        cluster._switch_tier(TIER_REQUEST, cluster.sim.now)
        in_flight = sum(s.in_flight for s in cluster.servers.values())
        assert in_flight > 0

    def test_absorb_requires_tracking(self):
        from repro.simulator import ClusterSimulation

        plain = ClusterSimulation(ClusterConfig(seed=0))
        server = plain.add_server(100.0, boot_seconds=0.0)
        with pytest.raises(RuntimeError):
            server.absorb()


class TestEngines:
    def test_engine_validation(self):
        with pytest.raises(ValueError):
            HybridClusterSimulation(ClusterConfig(), engine="warp")
        assert set(ENGINES) == {"hybrid", "request", "fluid"}

    def test_hybrid_config_validation(self):
        with pytest.raises(ValueError):
            HybridConfig(interval_seconds=0.0)
        with pytest.raises(ValueError):
            HybridConfig(settle_seconds=-1.0)
        with pytest.raises(ValueError):
            HybridConfig(overload_utilization=1.5)

    def test_full_window_hybrid_is_bitwise_request(self):
        # With a fidelity window covering the whole run, the hybrid engine
        # must reproduce the request-level engine exactly, sample by sample.
        request = build("request")
        request.run(60.0, 300.0)
        hybrid = build("hybrid")
        hybrid._open_window(float("inf"), cause=None, trigger="start")
        hybrid.run(60.0, 300.0)
        assert request.recorder.served == hybrid.recorder.served
        assert request.recorder.latencies == hybrid.recorder.latencies
        assert request.recorder.timestamps == hybrid.recorder.timestamps

    def test_fluid_engine_runs_without_requests(self):
        cluster = build("fluid")
        rec = cluster.run(60.0, 300.0)
        assert cluster.tier_steps[TIER_REQUEST] == 0
        assert rec.served > 0
        assert rec.drop_rate() < 0.05

    def test_quantile_accuracy_on_quick_grid(self):
        # Digest-quantile tolerance: hybrid P99 within 25% of the pure
        # request-level reference on a small steady scenario.
        request = build("request", servers=4)
        request.run(120.0, 300.0)
        hybrid = build("hybrid", servers=4)
        hybrid.run(120.0, 300.0)
        p99_r = request.recorder.percentile(99)
        p99_h = hybrid.recorder.percentile(99)
        assert abs(p99_h - p99_r) / p99_r < 0.25

    def test_rate_spike_opens_window(self):
        cluster = build("hybrid", spike_threshold=0.3)

        def rate(t):
            return 900.0 if t > 30.0 else 300.0

        cluster.run(60.0, rate)
        assert cluster.tier_steps[TIER_REQUEST] > 0

    def test_in_system_accounts_both_tiers(self):
        cluster = build("hybrid")
        cluster.run(45.0, 300.0)
        total = cluster.in_system()
        assert total >= 0.0
        assert total == pytest.approx(
            cluster.fluid.total_mass()
            + sum(s.in_flight for s in cluster.servers.values())
        )


class TestTierSwitchEvents:
    def run_evented(self):
        with current().replace(events=EventLog(enabled=True)) as rec:
            cluster = build("hybrid")
            cluster.schedule_revocation(2, 30.0, warning_seconds=5.0)
            cluster.run(90.0, 300.0)
        return rec.events.records()

    def test_tier_switch_events_validate_and_link(self):
        records = self.run_evented()
        validate_events(records)
        switches = [r for r in records if r["kind"] == "sim.tier_switch"]
        assert switches, "hybrid run with a revocation must switch tiers"
        warning_ids = {
            r["id"] for r in records if r["kind"] == "warning.issued"
        }
        warn_switch = [
            s for s in switches if s["attrs"]["trigger"] == "warning"
        ]
        assert warn_switch
        assert all(s["cause"] in warning_ids for s in warn_switch)
        request_entries = [
            s for s in switches if s["attrs"]["tier"] == TIER_REQUEST
        ]
        assert request_entries

    def test_journal_deterministic_across_reruns(self):
        a = self.run_evented()
        b = self.run_evented()
        strip = lambda recs: [  # noqa: E731
            {k: v for k, v in r.items() if k != "wall"} for r in recs
        ]
        assert strip(a) == strip(b)
