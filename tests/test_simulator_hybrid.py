"""Tests for the two-tier hybrid engine: fluid tier, handoffs, accuracy."""

import numpy as np
import pytest

from repro import obs
from repro.obs.events import validate_events
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
        assert 0 not in fluid._mass
        assert fluid.balance_error() < 1e-6

    def test_steady_state_mass_tracks_littles_law(self):
        # Below saturation the persistent mass must approximate
        # rate * response_time (in-system work), not drain to zero —
        # materialization depends on it.
        cluster = build()
        fluid = self.run_steps(cluster, steps=100, rate=300.0)
        mass = fluid.total_mass()
        assert 300.0 * 0.05 < mass < 300.0 * 1.0


def assert_same_engine(cached, fresh):
    """Bitwise equality of two engines' columns, order, mass and ledger."""
    assert cached._order == fresh._order
    assert cached._cols.keys() == fresh._cols.keys()
    for name, col in cached._cols.items():
        assert col.dtype == fresh._cols[name].dtype, name
        assert col.tobytes() == fresh._cols[name].tobytes(), name
    assert cached._mass == fresh._mass
    for total in ("offered", "served", "dropped", "failed", "deposited", "withdrawn"):
        attr = f"{total}_total"
        assert getattr(cached, attr) == getattr(fresh, attr), attr


def assert_same_step(a, b):
    for name in ("t", "dt", "offered", "served", "dropped", "queue_mass", "max_rho"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("latencies", "weights"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


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

    def test_cached_sync_matches_rebuild_every_step(self):
        # A seeded random mix of fleet events, steps and handoffs: the
        # cached engine must match, bit for bit, one that rebuilds on
        # every sync.
        config = ClusterConfig(seed=0)
        cluster = HybridClusterSimulation(config, engine="fluid")
        sim, servers = cluster.sim, cluster.servers
        cached, fresh = FluidEngine(sim), FluidEngine(sim)
        rng = np.random.default_rng(42)
        for _ in range(3):
            cluster.add_server(100.0, boot_seconds=0.0)
        hits = rebuilds = 0
        for _ in range(400):
            event = rng.integers(0, 10)
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
            elif event == 3 and live:
                servers[int(rng.choice(live))].prewarm(
                    sim.now - float(rng.uniform(0.0, 90.0))
                )
            elif event == 4 and live:
                # Revocation: warning now, kill when the window closes.
                victim = servers[int(rng.choice(live))]
                victim.drain()
                sim.schedule(float(rng.uniform(0.5, 4.0)), victim.kill)
            elif event == 5:
                counts = cached.withdraw()
                assert counts == fresh.withdraw()
                for sid in sorted(counts):
                    keep = counts[sid] // 2
                    cached.deposit(sid, keep)
                    fresh.deposit(sid, keep)
            elif event == 6 and live:
                sid = int(rng.choice(live))
                n = int(rng.integers(1, 20))
                cached.deposit(sid, n)
                fresh.deposit(sid, n)
            t0 = sim.now
            dt = float(rng.choice([0.5, 1.0]))
            sim.advance(t0 + dt)  # boots and scheduled kills fire here
            before = cached._cols
            fresh._synced = None
            assert cached.sync(servers, t0 + dt) == fresh.sync(servers, t0 + dt)
            if cached._cols is before:
                hits += 1
            else:
                rebuilds += 1
            assert_same_engine(cached, fresh)
            rate = float(rng.uniform(0.0, 1.2)) * sum(
                s.capacity_rps for s in servers.values() if s.alive
            )
            assert_same_step(cached.step(t0, dt, rate), fresh.step(t0, dt, rate))
            assert_same_engine(cached, fresh)
        assert hits > 50 and rebuilds > 50
        assert cached.balance_error() < 1e-6


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
        obs.enable_events()
        obs.get_events().clear()
        try:
            cluster = build("hybrid")
            cluster.schedule_revocation(2, 30.0, warning_seconds=5.0)
            cluster.run(90.0, 300.0)
            return obs.get_events().records()
        finally:
            obs.disable_events()

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
