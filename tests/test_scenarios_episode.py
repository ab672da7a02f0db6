"""Tests for cluster episodes, storms, and the stranded-session probe."""

import pytest

from repro.loadbalancer import TransiencyAwareLoadBalancer, VanillaLoadBalancer
from repro.obs.events import EventLog, get_events
from repro.obs.metrics import get_metrics
from repro.scenarios import EpisodeSpec, StormSpec, run_episode
from repro.simulator import ClusterConfig, ClusterSimulation
from repro.simulator.metrics import LatencyRecorder


def _mini_spec(**kw):
    defaults = dict(
        name="mini",
        duration=90.0,
        capacities=(30.0, 30.0, 30.0),
        base_rps=40.0,
        storms=(StormSpec(at=30.0, servers=(0,)),),
        warning_seconds=20.0,
        slo_interval_seconds=30.0,
    )
    defaults.update(kw)
    return EpisodeSpec(**defaults)


class TestRunEpisode:
    def test_same_seed_identical_journal(self):
        a = run_episode(_mini_spec(), engine="request", seed=3)
        b = run_episode(_mini_spec(), engine="request", seed=3)
        assert a == b

    def test_different_seed_differs(self):
        a = run_episode(_mini_spec(), engine="request", seed=3)
        b = run_episode(_mini_spec(), engine="request", seed=4)
        assert a != b

    def test_journal_brackets_and_outcome(self):
        records = run_episode(_mini_spec(), engine="request", seed=0)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "scenario.begin"
        assert kinds[-1] == "scenario.outcome"
        outcome = records[-1]["attrs"]
        assert outcome["cost"] > 0
        assert outcome["stranded"] == 0
        assert outcome["ledger_error"] == pytest.approx(0.0, abs=1e-6)

    def test_storm_flows_through_warning_chain(self):
        records = run_episode(_mini_spec(), engine="request", seed=0)
        kinds = [r["kind"] for r in records]
        assert "storm.begin" in kinds
        issued = [r for r in records if r["kind"] == "warning.issued"]
        resolved = {
            r["cause"] for r in records if r["kind"] == "warning.resolved"
        }
        assert len(issued) == 1
        assert {r["id"] for r in issued} <= resolved

    def test_hybrid_engine_balances_ledger(self):
        records = run_episode(_mini_spec(), engine="hybrid", seed=0)
        outcome = records[-1]["attrs"]
        assert outcome["engine"] == "hybrid"
        assert outcome["ledger_error"] < 1e-6

    def test_caller_event_log_restored(self):
        before = get_events()
        run_episode(_mini_spec(), engine="request", seed=0)
        assert get_events() is before

    def test_episode_counts_into_a_private_registry(self):
        # A flight bundle's metrics header is then a function of the
        # episode alone, not of the episodes that ran before it.
        before = get_metrics()
        snapshot = before.snapshot()
        run_episode(_mini_spec(), engine="request", seed=0)
        assert get_metrics() is before
        assert before.snapshot() == snapshot

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            run_episode(_mini_spec(), engine="quantum")

    def test_reprovision_cap_zero_disables_replacement(self):
        # Hot fleet: survivors cannot absorb the storm, so the balancer
        # asks for replacements — unless the cap forbids them.
        hot = dict(base_rps=80.0)
        capped = run_episode(
            _mini_spec(reprovision_cap_rps=0.0, **hot),
            engine="request", seed=0,
        )
        free = run_episode(_mini_spec(**hot), engine="request", seed=0)
        launches = lambda recs: sum(  # noqa: E731
            1 for r in recs if r["kind"] == "server.launch"
        )
        assert launches(capped) == 3
        assert launches(free) == 4


class TestEpisodeSpecValidation:
    def test_storm_index_out_of_range(self):
        with pytest.raises(ValueError):
            _mini_spec(storms=(StormSpec(at=1.0, servers=(9,)),))

    def test_empty_storm(self):
        with pytest.raises(ValueError):
            StormSpec(at=1.0, servers=())

    def test_negative_storm_time(self):
        with pytest.raises(ValueError):
            StormSpec(at=-1.0, servers=(0,))

    def test_bad_scalars(self):
        with pytest.raises(ValueError):
            _mini_spec(duration=0.0)
        with pytest.raises(ValueError):
            _mini_spec(capacities=())
        with pytest.raises(ValueError):
            _mini_spec(base_rps=0.0)
        with pytest.raises(ValueError):
            _mini_spec(flash_crowds=-1)


class TestScheduleStorm:
    def _cluster(self):
        cfg = ClusterConfig(seed=0, warning_seconds=5.0)
        return ClusterSimulation(cfg)

    def test_storm_revokes_all_listed(self):
        cluster = self._cluster()
        servers = [cluster.add_server(50.0, boot_seconds=0.0)
                   for _ in range(3)]
        cluster.schedule_storm([0, 1], 5.0)
        cluster.run(20.0, rate=10.0)
        assert not servers[0].alive
        assert not servers[1].alive
        assert servers[2].alive

    def test_storm_emits_marker(self):
        from repro.obs.recording import current

        with current().replace(events=EventLog(enabled=True)):
            cluster = self._cluster()
            for _ in range(2):
                cluster.add_server(50.0, boot_seconds=0.0)
            cluster.schedule_storm([0, 1, 1], 2.0)
            cluster.run(10.0, rate=5.0)
            storms = [
                r for r in get_events().records()
                if r["kind"] == "storm.begin"
            ]
        assert len(storms) == 1
        assert storms[0]["attrs"]["servers"] == 2
        assert storms[0]["attrs"]["capacity_rps"] == pytest.approx(100.0)

    def test_storm_validation(self):
        cluster = self._cluster()
        cluster.add_server(50.0)
        with pytest.raises(ValueError):
            cluster.schedule_storm([], 1.0)
        with pytest.raises(KeyError):
            cluster.schedule_storm([7], 1.0)


class _FakeBackend:
    def __init__(self, server_id, alive=True):
        self.server_id = server_id
        self.capacity_rps = 10.0
        self.alive = alive
        self.accepting = alive

    def submit(self, session_id=None, *, migrated=False, service_scale=1.0):
        return True

    def expected_wait(self):
        return 0.0


class TestStrandedSessions:
    def test_zero_when_backends_alive(self):
        lb = VanillaLoadBalancer(LatencyRecorder())
        lb.add_backend(_FakeBackend(0))
        lb.sessions.assign(1, 0)
        assert lb.stranded_sessions() == 0

    def test_counts_sessions_on_dead_backend(self):
        lb = VanillaLoadBalancer(LatencyRecorder())
        backend = _FakeBackend(0)
        lb.add_backend(backend)
        lb.sessions.assign(1, 0)
        lb.sessions.assign(2, 0)
        backend.alive = False
        assert lb.stranded_sessions() == 2

    def test_counts_stale_affinity_records(self):
        # remove_backend evicts cleanly; a stale record pointing at a
        # backend the balancer no longer knows must still count.
        lb = TransiencyAwareLoadBalancer(LatencyRecorder())
        lb.add_backend(_FakeBackend(0))
        lb.sessions.assign(5, 0)
        lb.sessions.assign(6, 99)
        assert lb.stranded_sessions() == 1
        lb.remove_backend(0)
        assert lb.stranded_sessions() == 1

    def test_counts_by_backend_skips_empty(self):
        lb = VanillaLoadBalancer(LatencyRecorder())
        lb.add_backend(_FakeBackend(0))
        lb.sessions.assign(1, 0)
        lb.sessions.close(1)
        assert lb.sessions.counts_by_backend() == {}
