"""Unit tests for the monitoring hub."""

import numpy as np
import pytest

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
        snap = hub.snapshot(42.0)
        assert snap.timestamp == 42.0
        assert snap.observed_rps == 1234.0
        np.testing.assert_allclose(
            snap.per_request_prices,
            0.5 / np.array([m.capacity_rps for m in small_markets]),
        )

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
