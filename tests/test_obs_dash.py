"""Tests for the `repro top` dashboard state folding and rendering."""

import io

from repro.obs.dash import HISTORY, DashRenderer, DashState, render_dash


def frame(t, interval, events):
    return {"t": t, "interval": interval, "events": events}


def event(kind, t, interval=0, **attrs):
    return {
        "kind": kind,
        "t": t,
        "interval": interval,
        "id": None,
        "cause": None,
        "attrs": attrs,
    }


def sample_frame(state):
    """Fold one representative frame into ``state``."""
    state(
        frame(
            60.0,
            0,
            [
                event(
                    "interval.plan",
                    60.0,
                    demand_rps=1200.0,
                    capacity_rps=1500.0,
                    servers=5,
                    shortfall_rps=0.0,
                    revoked=2,
                    cost=0.25,
                ),
                event(
                    "telemetry.fleet",
                    60.0,
                    servers=5,
                    by_market={"m0": 3, "m2": 2},
                ),
                event("warning.issued", 55.0),
                event(
                    "telemetry.anomaly",
                    60.0,
                    series="slo.p99",
                    detector="cusum",
                    value=2.0,
                    score=6.5,
                ),
                event(
                    "slo.interval",
                    60.0,
                    requests=480,
                    compliance=0.97,
                    burn=3.0,
                    p50=0.1,
                    p95=0.5,
                    p99=0.9,
                ),
            ],
        )
    )


class TestDashState:
    def test_folds_one_frame(self):
        state = DashState()
        sample_frame(state)
        assert state.t == 60.0 and state.interval == 0
        assert state.demand_rps == 1200.0
        assert state.capacity_rps == 1500.0
        assert state.servers == 5
        assert state.by_market == {"m0": 3, "m2": 2}
        assert state.revocations == 2
        assert state.cost_last == 0.25 and state.cost_total == 0.25
        assert state.open_warnings == 1 and state.warnings == 1
        assert list(state.p99) == [0.9]
        assert list(state.burn) == [3.0]
        assert state.requests == 480
        assert len(state.anomalies) == 1

    def test_warning_resolution_and_cost_accumulate(self):
        state = DashState()
        sample_frame(state)
        state(
            frame(
                120.0,
                1,
                [
                    event("warning.resolved", 115.0),
                    event("interval.plan", 120.0, cost=0.30),
                ],
            )
        )
        assert state.open_warnings == 0 and state.warnings == 1
        assert state.cost_last == 0.30
        assert state.cost_total == 0.55
        assert state.t == 120.0 and state.interval == 1

    def test_history_is_bounded(self):
        state = DashState()
        for i in range(HISTORY + 6):
            state(
                frame(
                    30.0 * i,
                    i,
                    [event("slo.interval", 30.0 * i, i, p99=float(i))],
                )
            )
        assert list(state.p99) == [float(i) for i in range(6, HISTORY + 6)]
        assert state.t == 30.0 * (HISTORY + 5)


class TestRenderDash:
    def test_snapshot_is_deterministic_and_complete(self):
        a, b = DashState(), DashState()
        sample_frame(a)
        sample_frame(b)
        text = render_dash(a)
        assert text == render_dash(b)
        assert "spotweb top  t=60s  interval=0" in text
        assert "m0=3 m2=2" in text
        assert "1 open / 1 total" in text
        assert "recent anomalies: slo.p99/cusum t=60 score=6.5" in text
        # No wall-clock datum in the deterministic snapshot.
        assert "| -" in text

    def test_solve_ms_is_passed_in_not_measured(self):
        state = DashState()
        sample_frame(state)
        assert "12.3 ms" in render_dash(state, solve_ms=12.3)

    def test_empty_state_renders(self):
        text = render_dash(DashState())
        assert "interval=-" in text


class TestDashRenderer:
    def test_repaints_every_nth_tick(self):
        stream = io.StringIO()
        renderer = DashRenderer(stream=stream, every=2)
        for i in range(4):
            renderer(frame(30.0 * i, i, []))
        frames = stream.getvalue().count("spotweb top")
        assert frames == 2
        # Non-TTY stream: no ANSI clear codes in the output.
        assert "\x1b[" not in stream.getvalue()

    def test_folds_non_tick_deltas_without_rendering(self):
        stream = io.StringIO()
        renderer = DashRenderer(stream=stream, every=2)
        sample_frame(renderer)
        # The first frame folds into the state without a repaint.
        assert stream.getvalue() == ""
        assert renderer.state.servers == 5
        renderer(frame(90.0, 1, []))
        assert "spotweb top  t=90s  interval=1" in stream.getvalue()
