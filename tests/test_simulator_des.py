"""Unit tests for the discrete-event engine."""

import numpy as np
import pytest

from repro.simulator import Event, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run_until(10.0)
        assert fired == ["a", "b", "c"]
        assert sim.now == 10.0

    def test_fifo_tiebreak_at_equal_times(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0, fired.append, i)
        sim.run_until(2.0)
        assert fired == [0, 1, 2, 3, 4]

    def test_equal_times_fire_in_schedule_order_across_cancellations(self):
        # Many events on a few instants, scheduled out of time order through
        # both entry points, a third of them cancelled: the survivors fire
        # by time, and at equal times in the order they were scheduled.
        sim = Simulator()
        rng = np.random.default_rng(3)
        fired, expected = [], []
        for i in range(300):
            t = float(rng.integers(1, 4))
            if i % 2:
                event = sim.schedule(t, fired.append, i)
            else:
                event = sim.schedule_at(t, fired.append, i)
            if rng.random() < 1 / 3:
                event.cancel()
            else:
                expected.append((t, i))
        sim.run_until(5.0)
        assert fired == [i for _t, i in sorted(expected)]
        assert sim.processed == len(expected)

    def test_clock_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run_until(5.0)
        assert times == [2.5]

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run_until(4.0)
        assert fired == []
        assert sim.pending == 1
        sim.run_until(6.0)
        assert fired == [1]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        sim.run_until(3.0)
        assert fired == ["outer", "inner"]

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append(1))
        ev.cancel()
        sim.run_until(2.0)
        assert fired == []
        assert sim.processed == 0

    def test_past_scheduling_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(-1e-12, lambda: None)
        assert sim.pending == 0
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)
        with pytest.raises(ValueError):
            sim.run_until(5.0)

    def test_run_drains_everything(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(100.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2]
        assert sim.pending == 0

    def test_args_passed(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, lambda a, b: out.append(a + b), 2, 3)
        sim.run()
        assert out == [5]

    def test_event_repr(self):
        e = Event(1.0, 0, lambda: None, ())
        assert "pending" in repr(e)
