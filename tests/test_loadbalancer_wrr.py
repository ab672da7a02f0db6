"""Unit and property tests for smooth weighted round robin."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.loadbalancer import SmoothWeightedRoundRobin


class TestBasics:
    def test_empty_returns_none(self):
        assert SmoothWeightedRoundRobin().pick() is None

    def test_single_backend(self):
        wrr = SmoothWeightedRoundRobin({"a": 1.0})
        assert all(wrr.pick() == "a" for _ in range(5))

    def test_proportional_distribution(self):
        wrr = SmoothWeightedRoundRobin({"a": 3.0, "b": 1.0})
        picks = Counter(wrr.pick() for _ in range(400))
        assert picks["a"] == 300
        assert picks["b"] == 100

    def test_smoothness_interleaves(self):
        """Smooth WRR must not send long bursts to the heavy backend."""
        wrr = SmoothWeightedRoundRobin({"a": 2.0, "b": 1.0})
        seq = [wrr.pick() for _ in range(12)]
        # 'b' appears once every 3 picks, never starved for 5+ in a row.
        longest_a_run = max(
            len(run)
            for run in "".join("x" if s == "a" else "." for s in seq).split(".")
        )
        assert longest_a_run <= 2

    def test_exclusion(self):
        wrr = SmoothWeightedRoundRobin({"a": 1.0, "b": 1.0})
        assert wrr.pick(exclude={"a"}) == "b"
        assert wrr.pick(exclude={"a", "b"}) is None


class TestUpdates:
    def test_set_weight_and_remove(self):
        wrr = SmoothWeightedRoundRobin({"a": 1.0})
        wrr.set_weight("b", 1.0)
        assert "b" in wrr
        wrr.set_weight("b", 0.0)  # <= 0 removes
        assert "b" not in wrr
        wrr.remove("a")
        assert wrr.pick() is None

    def test_set_weights_replaces(self):
        wrr = SmoothWeightedRoundRobin({"a": 1.0, "b": 1.0})
        wrr.set_weights({"b": 2.0, "c": 1.0})
        assert "a" not in wrr and "c" in wrr
        assert len(wrr) == 2

    def test_zero_weights_dropped(self):
        wrr = SmoothWeightedRoundRobin({"a": 1.0, "b": 0.0})
        assert "b" not in wrr

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SmoothWeightedRoundRobin({"a": -1.0})

    def test_unexcluded_pick_matches_the_filtered_path(self):
        # pick() without exclusions skips building the filtered table; it
        # must give the same picks and credits, bit for bit, as the filtered
        # path, which an exclusion of an absent key forces.
        def run(exclude):
            rng = np.random.default_rng(5)
            wrr = SmoothWeightedRoundRobin({k: float(k + 1) for k in range(6)})
            trace = []
            for _ in range(2000):
                op = rng.random()
                key = int(rng.integers(0, 10))
                if op < 0.8:
                    trace.append(wrr.pick(exclude=exclude))
                elif op < 0.9:
                    wrr.set_weight(key, float(rng.uniform(-0.5, 10.0)))
                elif op < 0.97:
                    wrr.remove(key)
                else:
                    wrr.set_weights(
                        {k: float(rng.uniform(0.0, 5.0)) for k in range(key + 1)}
                    )
                trace.append(dict(wrr._credit))
            return trace

        assert run(None) == run({"absent"})

    def test_online_reweight_shifts_distribution(self):
        wrr = SmoothWeightedRoundRobin({"a": 1.0, "b": 1.0})
        [wrr.pick() for _ in range(10)]
        wrr.set_weights({"a": 9.0, "b": 1.0})
        picks = Counter(wrr.pick() for _ in range(100))
        assert picks["a"] == 90


@settings(max_examples=30, deadline=None)
@given(
    weights=st.dictionaries(
        st.integers(0, 20),
        st.floats(0.1, 100.0),
        min_size=1,
        max_size=8,
    ),
)
def test_long_run_distribution_proportional_to_weights(weights):
    """Over K * sum cycles each backend receives picks ~ weight share."""
    wrr = SmoothWeightedRoundRobin(weights)
    total_w = sum(weights.values())
    n = 3000
    picks = Counter(wrr.pick() for _ in range(n))
    for key, w in weights.items():
        expected = n * w / total_w
        assert abs(picks[key] - expected) <= max(3.0, 0.1 * expected)
