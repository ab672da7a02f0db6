"""Integration-style tests for the request-level cluster simulation."""

import numpy as np
import pytest

from repro.loadbalancer import TransiencyAwareLoadBalancer
from repro.simulator import ClusterConfig, ClusterSimulation


def quick_config(**kw):
    defaults = dict(seed=0, boot_seconds=5.0, warmup_seconds=5.0)
    defaults.update(kw)
    return ClusterConfig(**defaults)


class TestSteadyState:
    def test_low_utilization_serves_everything(self):
        cluster = ClusterSimulation(quick_config())
        cluster.add_server(100.0, boot_seconds=0.0)
        rec = cluster.run(30.0, rate=40.0)
        assert rec.drop_rate() < 0.01
        assert rec.mean() < 0.5
        assert rec.served > 30 * 40 * 0.8

    def test_overload_drops(self):
        cluster = ClusterSimulation(quick_config())
        cluster.add_server(20.0, boot_seconds=0.0)
        rec = cluster.run(30.0, rate=100.0)
        assert rec.drop_rate() > 0.3

    def test_time_varying_rate(self):
        cluster = ClusterSimulation(quick_config())
        cluster.add_server(200.0, boot_seconds=0.0)
        rec = cluster.run(20.0, rate=lambda t: 10.0 if t < 10 else 100.0)
        early = rec.window(0.0, 10.0)
        late = rec.window(10.0, 20.0)
        assert late.size > 3 * early.size


class TestRevocation:
    def test_revocation_kills_after_warning(self):
        cfg = quick_config(warning_seconds=5.0)
        cluster = ClusterSimulation(cfg)
        s = cluster.add_server(100.0, boot_seconds=0.0)
        cluster.schedule_revocation(s.server_id, 10.0)
        cluster.run(30.0, rate=10.0)
        assert not s.alive
        # Capacity timeline recorded the death.
        times = [t for t, _ in cluster.capacity_timeline]
        assert any(abs(t - 15.0) < 1e-6 for t in times)

    def test_transiency_lb_reprovision_hook(self):
        cfg = quick_config(warning_seconds=20.0, boot_seconds=5.0)
        cluster_ref = {}

        def reprovision(capacity, _now):
            cluster_ref["c"].add_server(capacity)

        factory = lambda rec: TransiencyAwareLoadBalancer(  # noqa: E731
            rec, reprovision=reprovision
        )
        cluster = ClusterSimulation(cfg, factory)
        cluster_ref["c"] = cluster
        a = cluster.add_server(50.0, boot_seconds=0.0)
        cluster.add_server(50.0, boot_seconds=0.0)
        cluster.schedule_revocation(a.server_id, 5.0)
        rec = cluster.run(60.0, rate=80.0)
        # A replacement was started (3 servers total seen).
        assert len(cluster.servers) == 3
        assert rec.drop_rate() < 0.2


class TestSessions:
    def test_sessions_created_and_reused(self):
        cfg = quick_config(new_session_probability=0.5)
        cluster = ClusterSimulation(cfg)
        cluster.add_server(100.0, boot_seconds=0.0)
        cluster.run(10.0, rate=50.0)
        assert cluster._next_session > 10
        assert len(cluster.balancer.sessions) > 0

    def test_session_draw_matches_list_choice_reference(self):
        # The draw is one index into the live window; it must give the same
        # ids, and leave the generator in the same state, as the list of the
        # last 10k sessions plus ``rng.choice`` it replaced.  14k draws at
        # p=0.8 create ~11.2k sessions, so the window rolls over.
        seed, p_new, draws = 7, 0.8, 14_000
        cluster = ClusterSimulation(
            quick_config(seed=seed, new_session_probability=p_new)
        )
        rng = np.random.default_rng(seed)
        sessions, next_session = [], 0
        expected = []
        for _ in range(draws):
            if not sessions or rng.random() < p_new:
                sessions.append(next_session)
                expected.append(next_session)
                next_session += 1
                if len(sessions) > 10_000:
                    sessions.pop(0)
            else:
                expected.append(int(rng.choice(sessions)))
        got = [cluster._session_for_request() for _ in range(draws)]
        assert next_session > 10_000
        assert got == expected
        assert cluster._next_session == next_session
        assert cluster._rng.bit_generator.state == rng.bit_generator.state


class TestValidation:
    def test_bad_duration(self):
        cluster = ClusterSimulation(quick_config())
        with pytest.raises(ValueError):
            cluster.run(0.0, rate=10.0)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            ClusterConfig(service_time=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(new_session_probability=2.0)
