"""Unit tests for the monitoring hub and halog-style balancer stats."""

import numpy as np
import pytest

from repro.loadbalancer import BalancerStats, RequestRecord
from repro.markets import default_catalog
from repro.monitoring import MonitoringHub


@pytest.fixture
def hub(small_markets):
    return MonitoringHub(small_markets)


class TestMonitoringHub:
    def test_snapshot_requires_feeds(self, hub):
        with pytest.raises(RuntimeError, match="price"):
            hub.snapshot(0.0)
        hub.ingest_prices(np.full(6, 0.5))
        with pytest.raises(RuntimeError, match="failure"):
            hub.snapshot(0.0)

    def test_snapshot_contents(self, hub, small_markets):
        hub.ingest_prices(np.full(6, 0.5))
        hub.ingest_failure_probs(np.full(6, 0.1))
        hub.ingest_workload(1234.0)
        hub.ingest_balancer_stats({"p90_s": 0.2})
        snap = hub.snapshot(42.0)
        assert snap.timestamp == 42.0
        assert snap.observed_rps == 1234.0
        np.testing.assert_allclose(
            snap.per_request_prices,
            0.5 / np.array([m.capacity_rps for m in small_markets]),
        )
        assert snap.balancer_stats["p90_s"] == 0.2

    def test_histories_accumulate(self, hub):
        hub.ingest_prices(np.full(6, 0.5))
        hub.ingest_failure_probs(np.full(6, 0.1))
        hub.snapshot(0.0)
        hub.ingest_prices(np.full(6, 0.6))
        hub.ingest_failure_probs(np.full(6, 0.2))
        hub.snapshot(1.0)
        assert hub.price_history().shape == (2, 6)
        assert hub.failure_history()[1, 0] == 0.2

    def test_warning_relay(self, hub):
        seen = []
        hub.on_warning(lambda bid, now: seen.append((bid, now)))
        hub.relay_warning(7, 99.0)
        assert seen == [(7, 99.0)]

    def test_feed_validation(self, hub):
        with pytest.raises(ValueError):
            hub.ingest_prices(np.ones(3))
        with pytest.raises(ValueError):
            hub.ingest_prices(-np.ones(6))
        with pytest.raises(ValueError):
            hub.ingest_failure_probs(2 * np.ones(6))
        with pytest.raises(ValueError):
            hub.ingest_workload(-1.0)
        with pytest.raises(ValueError):
            MonitoringHub([])

    def test_empty_histories(self, hub):
        assert hub.price_history().shape == (0, 6)
        assert hub.failure_history().shape == (0, 6)


class TestBalancerStats:
    def test_arrival_rate_and_throughput(self):
        stats = BalancerStats(window_seconds=100.0)
        for i in range(101):
            stats.record_served(float(i), backend_id=0, latency=0.1)
        assert stats.arrival_rate() == pytest.approx(1.01, abs=0.05)
        assert stats.throughput() == pytest.approx(1.01, abs=0.05)

    def test_drop_rate(self):
        stats = BalancerStats()
        stats.record_served(0.0, 0, 0.1)
        stats.record_unserved(1.0)
        assert stats.drop_rate() == pytest.approx(0.5)

    def test_window_trims_old_records(self):
        stats = BalancerStats(window_seconds=10.0)
        stats.record_served(0.0, 0, 5.0)  # will age out
        for t in range(100, 110):
            stats.record_served(float(t), 0, 0.1)
        pct = stats.latency_percentiles((99.0,))
        assert pct[99.0] < 1.0

    def test_per_backend_load(self):
        stats = BalancerStats()
        stats.record_served(0.0, 1, 0.1)
        stats.record_served(1.0, 1, 0.1)
        stats.record_served(2.0, 2, 0.1)
        load = stats.per_backend_load()
        assert load == {1: 2, 2: 1}

    def test_snapshot_payload(self):
        stats = BalancerStats()
        for t in range(20):
            stats.record_served(float(t), 0, 0.05 * (t % 4))
        snap = stats.snapshot()
        assert set(snap) == {
            "arrival_rate_rps",
            "throughput_rps",
            "drop_rate",
            "p50_s",
            "p90_s",
            "p99_s",
        }

    def test_empty(self):
        stats = BalancerStats()
        assert stats.arrival_rate() == 0.0
        assert np.isnan(stats.latency_percentiles((50.0,))[50.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            BalancerStats(window_seconds=0.0)
        with pytest.raises(ValueError):
            BalancerStats().record_served(0.0, 0, -1.0)
        stats = BalancerStats()
        stats.record_unserved(5.0)
        with pytest.raises(ValueError, match="earlier than the newest"):
            stats.record_served(4.0, 0, 0.1)

    def test_len_counts_the_window(self):
        stats = BalancerStats(window_seconds=10.0)
        for t in (0.0, 5.0, 10.0, 10.0, 15.0):
            stats.record_served(t, 0, 0.1)
        assert len(stats) == 4  # 15 - 10 = 5: the record at 0 left
        stats.record_unserved(30.0)
        assert len(stats) == 1

    @pytest.mark.parametrize("max_records", [100, 5_000])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_polls_match_a_full_history_scan(self, seed, max_records):
        # Eviction on record must not move a poll: compare with the old
        # reporter, which kept every record and cut the window per poll.
        rng = np.random.default_rng(seed)
        stats = BalancerStats(window_seconds=30.0, max_records=max_records)
        old = _FullHistoryStats(window_seconds=30.0, max_records=max_records)
        t = 0.0
        for step in range(6_000):
            # Bursts (equal stamps), steady gaps and idle spells longer
            # than the window, on a 1/64 s grid so that records land exactly
            # on the window's edge.
            kind = rng.choice(3, p=[0.2, 0.79, 0.01])
            gap = (0.0, rng.exponential(0.05), rng.uniform(0.0, 90.0))[kind]
            t += np.round(gap * 64.0) / 64.0
            if rng.random() < 0.1:
                stats.record_unserved(t)
                old.record_unserved(t)
            else:
                backend, latency = int(rng.integers(0, 5)), float(rng.exponential(0.2))
                stats.record_served(t, backend, latency)
                old.record_served(t, backend, latency)
            if step % 37 == 0:
                got, want = stats.snapshot(), old.snapshot()
                assert got.keys() == want.keys()
                for key in want:
                    same = got[key] == want[key] or (
                        np.isnan(got[key]) and np.isnan(want[key])
                    )
                    assert same, (step, key, got[key], want[key])
                assert stats.per_backend_load() == old.per_backend_load()
                assert len(stats) == len(old._trim())


class _FullHistoryStats:
    """BalancerStats before records were evicted on arrival (verbatim)."""

    def __init__(self, window_seconds: float = 300.0, max_records: int = 500_000):
        from collections import deque

        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.window_seconds = float(window_seconds)
        self._records = deque(maxlen=max_records)

    def record_served(self, timestamp, backend_id, latency):
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self._records.append(RequestRecord(timestamp, backend_id, latency))

    def record_unserved(self, timestamp):
        self._records.append(RequestRecord(timestamp, None, None))

    def _trim(self):
        if not self._records:
            return []
        horizon = self._records[-1].timestamp - self.window_seconds
        return [r for r in self._records if r.timestamp >= horizon]

    def arrival_rate(self):
        recs = self._trim()
        if len(recs) < 2:
            return 0.0
        span = max(recs[-1].timestamp - recs[0].timestamp, 1e-9)
        return len(recs) / span

    def throughput(self):
        recs = [r for r in self._trim() if r.latency is not None]
        if len(recs) < 2:
            return 0.0
        span = max(recs[-1].timestamp - recs[0].timestamp, 1e-9)
        return len(recs) / span

    def drop_rate(self):
        recs = self._trim()
        if not recs:
            return 0.0
        unserved = sum(1 for r in recs if r.latency is None)
        return unserved / len(recs)

    def latency_percentiles(self, percentiles=(50.0, 90.0, 99.0)):
        lats = [r.latency for r in self._trim() if r.latency is not None]
        if not lats:
            return {p: float("nan") for p in percentiles}
        arr = np.asarray(lats)
        return {p: float(np.percentile(arr, p)) for p in percentiles}

    def per_backend_load(self):
        out = {}
        for r in self._trim():
            if r.backend_id is not None and r.latency is not None:
                out[r.backend_id] = out.get(r.backend_id, 0) + 1
        return out

    def snapshot(self):
        pct = self.latency_percentiles()
        return {
            "arrival_rate_rps": self.arrival_rate(),
            "throughput_rps": self.throughput(),
            "drop_rate": self.drop_rate(),
            "p50_s": pct[50.0],
            "p90_s": pct[90.0],
            "p99_s": pct[99.0],
        }
