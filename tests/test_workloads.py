"""Unit and property tests for workload traces, generators and spikes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import (
    SpikeSpec,
    WorkloadTrace,
    constant_workload,
    inject_spikes,
    step_workload,
    vod_like,
    wikipedia_like,
)


class TestWorkloadTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadTrace(np.array([]))
        with pytest.raises(ValueError):
            WorkloadTrace(np.array([-1.0]))
        with pytest.raises(ValueError):
            WorkloadTrace(np.array([1.0]), interval_seconds=0)

    def test_window(self):
        trace = WorkloadTrace(np.arange(10, dtype=np.float64) + 1)
        sub = trace.window(2, 5)
        np.testing.assert_array_equal(sub.rates, [3.0, 4.0, 5.0])
        with pytest.raises(ValueError):
            trace.window(5, 2)

    def test_scaled(self):
        trace = WorkloadTrace(np.array([1.0, 2.0, 4.0]))
        scaled = trace.scaled(100.0)
        assert scaled.rates.max() == pytest.approx(100.0)
        np.testing.assert_allclose(scaled.rates, [25.0, 50.0, 100.0])

    def test_save_load(self, tmp_path):
        trace = wikipedia_like(1, seed=0)
        path = tmp_path / "t.npz"
        trace.save(path)
        loaded = WorkloadTrace.load(path)
        np.testing.assert_array_equal(loaded.rates, trace.rates)
        assert loaded.name == trace.name

    def test_stats(self):
        trace = WorkloadTrace(np.array([1.0, 3.0]))
        s = trace.stats()
        assert s["mean_rps"] == 2.0
        assert s["peak_to_mean"] == 1.5


class TestGenerators:
    def test_lengths(self):
        assert len(wikipedia_like(3, seed=0)) == 3 * 7 * 24
        assert len(vod_like(2, seed=0)) == 2 * 7 * 24

    def test_deterministic(self):
        a = wikipedia_like(1, seed=5)
        b = wikipedia_like(1, seed=5)
        np.testing.assert_array_equal(a.rates, b.rates)

    def test_wikipedia_is_smooth_and_diurnal(self):
        trace = wikipedia_like(3, seed=0)
        s = trace.stats()
        assert s["cv"] < 0.4  # smooth
        # Strong hour-of-day structure.
        days = trace.rates[: 21 * 24].reshape(21, 24)
        profile_var = days.mean(axis=0).var()
        assert profile_var / days.var() > 0.6

    def test_vod_is_spikier_than_wikipedia(self):
        wiki = wikipedia_like(3, seed=1)
        vod = vod_like(3, seed=1)
        assert vod.stats()["peak_to_mean"] > 2 * wiki.stats()["peak_to_mean"]
        assert vod.stats()["cv"] > 2 * wiki.stats()["cv"]

    def test_constant_and_step(self):
        c = constant_workload(5, 100.0)
        assert np.all(c.rates == 100.0)
        s = step_workload(4, 25.0, 110.0, 2)
        np.testing.assert_array_equal(s.rates, [25.0, 25.0, 110.0, 110.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            wikipedia_like(0)
        with pytest.raises(ValueError):
            step_workload(4, 1.0, 2.0, 9)


class TestSpikes:
    def test_spike_raises_peak(self):
        base = constant_workload(48, 100.0)
        spiked = inject_spikes(base, [SpikeSpec(start=10, magnitude=2.0)])
        assert spiked.rates[11] == pytest.approx(200.0)
        assert spiked.rates[:10].max() == 100.0

    def test_decay_tail(self):
        base = constant_workload(48, 100.0)
        spiked = inject_spikes(
            base, [SpikeSpec(start=5, magnitude=3.0, decay=0.5)]
        )
        tail = spiked.rates[7:12] - 100.0
        assert np.all(np.diff(tail) <= 0)

    def test_spike_beyond_end_ignored(self):
        base = constant_workload(10, 100.0)
        spiked = inject_spikes(base, [SpikeSpec(start=50, magnitude=2.0)])
        np.testing.assert_array_equal(spiked.rates, base.rates)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpikeSpec(start=-1, magnitude=2.0)
        with pytest.raises(ValueError):
            SpikeSpec(start=0, magnitude=0.5)
        with pytest.raises(ValueError):
            SpikeSpec(start=0, magnitude=2.0, decay=1.5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000), magnitude=st.floats(1.0, 5.0))
def test_spikes_never_reduce_load(seed, magnitude):
    rng = np.random.default_rng(seed)
    base = WorkloadTrace(rng.uniform(10, 100, size=48))
    start = int(rng.integers(0, 48))
    spiked = inject_spikes(base, [SpikeSpec(start=start, magnitude=magnitude)])
    assert np.all(spiked.rates >= base.rates - 1e-9)
