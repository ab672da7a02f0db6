"""Smoke + shape tests for the experiment runners (small scales).

Full-scale paper configurations run in ``benchmarks/``; these tests check
each experiment end-to-end at reduced scale, asserting the *direction* of
each result (who wins), not magnitudes.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig3_workloads,
    fig4a_loadbalancer,
    fig4bcd_prediction,
    fig5_price_awareness,
    fig6a_constant,
    fig6b_exosphere,
    fig7a_accuracy,
    fig7b_scalability,
    gcloud,
    lookahead,
    table1,
)


class TestTable1:
    def test_spotweb_row_all_capabilities(self):
        rows = table1.run_table1()
        spotweb = [r for r in rows if r.name == "SpotWeb"][0]
        assert spotweb.slo_awareness == "Yes"
        assert spotweb.future_forecast == "Yes"
        assert spotweb.latency_aware_provisioning

    def test_format_renders(self):
        out = table1.format_table1()
        assert "ExoSphere" in out and "SpotWeb" in out


class TestFig3:
    def test_traces_have_paper_shapes(self):
        res = fig3_workloads.run_fig3(weeks=2, seed=0)
        wiki, vod = res["wikipedia"], res["vod"]
        assert wiki.diurnal_strength > 0.6
        assert wiki.spike_count < vod.spike_count
        assert vod.peak_to_mean > 2 * wiki.peak_to_mean
        assert "wikipedia" in fig3_workloads.format_fig3(res)


class TestFig4a:
    @pytest.mark.slow
    def test_transiency_lb_beats_vanilla(self):
        res = fig4a_loadbalancer.run_fig4a(seed=0, scale=0.25)
        sw, van = res["spotweb"], res["vanilla"]
        # The headline shape: near-zero drops vs a drop cliff.
        assert sw.drop_rate < 0.05
        assert van.drop_rate > 0.15
        assert sw.recorder.percentile(90) < van.recorder.percentile(90)
        out = fig4a_loadbalancer.format_fig4a(res)
        assert "vanilla" in out


class TestFig4bcd:
    def test_padding_shifts_errors_positive(self):
        from repro.workloads import wikipedia_like

        res = fig4bcd_prediction.run_fig4bcd(
            trace=wikipedia_like(3, seed=2), warmup_days=14
        )
        base, spot = res["baseline"].stats, res["spotweb"].stats
        assert spot.frac_under < 0.15
        assert base.frac_under > 0.25
        assert spot.mean_over > base.mean_over
        out = fig4bcd_prediction.format_fig4bcd(res)
        assert "spotweb" in out

    def test_warmup_covering_the_trace_raises(self):
        from repro.workloads import wikipedia_like

        with pytest.raises(ValueError, match="14-day warm-up .* 14-day trace"):
            fig4bcd_prediction.run_fig4bcd(
                trace=wikipedia_like(2, seed=2), warmup_days=14
            )


class TestFig5And6a:
    def test_mpo_beats_constant_portfolio(self):
        res = fig5_price_awareness.run_fig5(hours=48, peak_rps=4000.0, seed=3)
        assert res.cheapest_market_switches >= 1
        assert res.savings > 0.0
        assert "price-awareness" in fig5_price_awareness.format_fig5(res)

    def test_fig6a_both_horizons_beat_constant(self):
        res = fig6a_constant.run_fig6a(horizons=(2, 4), hours=48, seed=3)
        assert res.savings(2) > 0.0
        assert res.savings(4) > 0.0
        assert "constant" in fig6a_constant.format_fig6a(res)


class TestFig6b:
    @pytest.mark.slow
    def test_spotweb_beats_exosphere_loop(self):
        res = fig6b_exosphere.run_fig6b(
            market_counts=(6, 12),
            horizons=(2, 4),
            weeks=1,
            seeds=(3,),
        )
        vals = list(res.savings.values())
        assert np.mean(vals) > 0.0
        out = fig6b_exosphere.format_fig6b(res)
        assert "ExoSphere" in out


class TestFig7a:
    @pytest.mark.slow
    def test_savings_decline_with_error(self):
        res = fig7a_accuracy.run_fig7a(
            errors=(0.0, 0.2), num_markets=6, weeks=1, seed=3
        )
        assert res.savings_by_error[0.0] >= res.savings_by_error[0.2] - 0.05
        assert "accuracy" in fig7a_accuracy.format_fig7a(res)


class TestFig7b:
    def test_solve_times_bounded(self):
        res = fig7b_scalability.run_fig7b(
            market_counts=(9, 36), horizons=(2, 4), repeats=2
        )
        for (nm, h), (med, mx) in res.times.items():
            assert med < 5.0  # the paper's ceiling
        assert "markets" in fig7b_scalability.format_fig7b(res)


class TestGCloud:
    @pytest.mark.slow
    def test_savings_without_price_dynamics(self):
        res = gcloud.run_gcloud(num_types=6, weeks=1)
        assert res.savings_vs_ondemand > 0.3
        assert res.spotweb.unserved_fraction <= res.exosphere.unserved_fraction + 0.01
        assert "preemptible" in gcloud.format_gcloud(res)


class TestLookahead:
    @pytest.mark.slow
    def test_slow_startup_rewards_lookahead(self):
        res = lookahead.run_lookahead(
            startups=(300.0, 3600.0),
            horizons=(1, 6),
            num_markets=6,
            weeks=1,
        )
        # With slow starts, the long horizon should not be worse by much,
        # and typically helps.
        slow_gain = res.gain_from_lookahead(3600.0)
        fast_gain = res.gain_from_lookahead(300.0)
        assert slow_gain > fast_gain - 0.05
        assert "look-ahead" in lookahead.format_lookahead(res)
