"""Unit tests for the multi-worker FIFO server model."""

import numpy as np
import pytest

from repro.simulator import (
    FluidEngine,
    LatencyRecorder,
    ServerPhase,
    SimServer,
    Simulator,
)


def make_server(sim=None, recorder=None, **kwargs):
    sim = sim or Simulator()
    recorder = recorder or LatencyRecorder()
    defaults = dict(
        server_id=0,
        capacity_rps=100.0,
        service_time=0.1,
        boot_seconds=0.0,
        warmup_seconds=0.0,
        cold_multiplier=1.0,
        seed=1,
    )
    defaults.update(kwargs)
    return sim, recorder, SimServer(sim, recorder, **defaults)


class TestLifecycle:
    def test_boots_then_accepts(self):
        sim = Simulator()
        rec = LatencyRecorder()
        server = SimServer(
            sim, rec, server_id=0, capacity_rps=100.0, boot_seconds=10.0
        )
        assert server.phase is ServerPhase.BOOTING
        assert not server.submit()
        sim.run_until(10.0)
        assert server.phase is ServerPhase.RUNNING
        assert server.submit()

    def test_drain_blocks_new_but_allows_migrated(self):
        sim, rec, server = make_server()
        server.drain()
        assert server.phase is ServerPhase.DRAINING
        assert not server.submit()
        assert server.submit(migrated=True)

    def test_drained_while_booting_stays_draining(self):
        # A replacement revoked mid-boot must not come back to life when
        # its boot event fires: no new requests, no fluid traffic share.
        sim = Simulator()
        rec = LatencyRecorder()
        doomed = SimServer(
            sim, rec, server_id=0, capacity_rps=100.0, boot_seconds=10.0
        )
        healthy = SimServer(
            sim, rec, server_id=1, capacity_rps=100.0, boot_seconds=0.0
        )
        sim.run_until(1.0)
        doomed.drain()
        sim.run_until(20.0)
        assert doomed.phase is ServerPhase.DRAINING
        assert doomed.serving_since == 10.0
        assert not doomed.submit()
        assert doomed.submit(migrated=True)
        fluid = FluidEngine(sim)
        fluid.sync({0: doomed, 1: healthy}, sim.now)
        step = fluid.step(sim.now, 1.0, 50.0)
        assert step.dropped == 0.0
        assert fluid._mass[0] == 0.0
        assert fluid._mass[1] == step.queue_mass == 50.0

    def test_serving_since_is_read_only(self):
        sim, rec, server = make_server()
        with pytest.raises(AttributeError):
            server.serving_since = -60.0
        epoch = sim.fleet_epoch
        server.prewarm(-60.0)
        assert server.serving_since == -60.0
        assert sim.fleet_epoch > epoch

    def test_lifecycle_changes_bump_fleet_epoch(self):
        sim = Simulator()
        rec = LatencyRecorder()
        epochs = [sim.fleet_epoch]
        server = SimServer(
            sim, rec, server_id=0, capacity_rps=100.0, boot_seconds=5.0
        )
        epochs.append(sim.fleet_epoch)
        sim.run_until(5.0)  # boot
        epochs.append(sim.fleet_epoch)
        server.drain()
        epochs.append(sim.fleet_epoch)
        server.kill()
        epochs.append(sim.fleet_epoch)
        assert all(b > a for a, b in zip(epochs, epochs[1:]))
        # Serving a request changes no fluid column: the epoch stays put.
        _, _, busy = make_server(sim, rec, server_id=1)
        before = sim.fleet_epoch
        assert busy.submit()
        sim.run_until(10.0)
        assert sim.fleet_epoch == before

    def test_kill_fails_in_flight(self):
        sim, rec, server = make_server()
        for _ in range(5):
            assert server.submit()
        lost = server.kill()
        assert lost == 5
        assert rec.failed == 5
        assert server.phase is ServerPhase.DEAD
        assert not server.submit()
        # Pending completion events must not record served latencies.
        sim.run_until(10.0)
        assert rec.served == 0

    def test_workers_sized_from_capacity(self):
        _, _, server = make_server(capacity_rps=200.0, service_time=0.05)
        assert server.workers == 10


class TestQueueing:
    def test_latency_grows_with_load(self):
        sim, rec, server = make_server(capacity_rps=50.0)
        # Burst of 200 requests at t=0 into a 5-worker pool: queueing delay.
        for _ in range(200):
            server.submit()
        sim.run()
        assert rec.served == 200
        assert rec.percentile(90) > rec.percentile(10)
        assert rec.mean() > 0.1

    def test_admission_bound(self):
        sim, rec, server = make_server(
            capacity_rps=10.0, queue_limit_seconds=0.5
        )
        accepted = sum(server.submit() for _ in range(500))
        assert accepted < 500
        assert server.expected_wait() <= 0.6 + 0.5

    def test_stable_load_low_latency(self):
        sim, rec, server = make_server(capacity_rps=100.0, seed=3)
        rng = np.random.default_rng(0)
        t = 0.0
        # 50 rps Poisson arrivals for 20 s at 50% utilization.
        while t < 20.0:
            t += rng.exponential(1 / 50.0)
            sim.schedule_at(t, server.submit)
        sim.run()
        assert rec.served > 900
        assert rec.percentile(50) < 0.3


class TestWarmup:
    def test_cold_cache_inflates_service(self):
        sim1, rec1, cold = make_server(
            warmup_seconds=60.0, cold_multiplier=3.0, seed=5
        )
        for _ in range(50):
            cold.submit()
        sim1.run()
        sim2, rec2, warm = make_server(
            warmup_seconds=0.0, cold_multiplier=1.0, seed=5
        )
        for _ in range(50):
            warm.submit()
        sim2.run()
        assert rec1.mean() > rec2.mean()

    def test_warmup_decays(self):
        sim, rec, server = make_server(
            warmup_seconds=10.0, cold_multiplier=4.0, seed=6
        )
        # Probe the multiplier indirectly through the mean sampled service.
        samples_cold = [server._current_service_time() for _ in range(2000)]
        sim.run_until(20.0)  # past warmup
        samples_warm = [server._current_service_time() for _ in range(2000)]
        assert np.mean(samples_cold) > 2.5 * np.mean(samples_warm)


class TestValidation:
    def test_bad_params(self):
        sim = Simulator()
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            SimServer(sim, rec, server_id=0, capacity_rps=0.0)
        with pytest.raises(ValueError):
            SimServer(
                sim, rec, server_id=0, capacity_rps=10.0, cold_multiplier=0.5
            )

    def test_utilization_range(self):
        sim, rec, server = make_server()
        assert server.utilization() == 0.0
        for _ in range(50):
            server.submit()
        assert 0.0 <= server.utilization() <= 1.0
