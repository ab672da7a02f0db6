"""Focused tests for the Fig. 6(b) sweep machinery (serial vs parallel)."""

import numpy as np
import pytest

from repro.experiments import fig6b_exosphere as f


@pytest.fixture(scope="module")
def small_sweep():
    return dict(
        market_counts=(6,),
        horizons=(2,),
        weeks=1,
        peak_rps=20_000.0,
        seeds=(3, 17),
    )


class TestFig6bSweep:
    def test_raw_savings_recorded_per_seed(self, small_sweep):
        res = f.run_fig6b(**small_sweep)
        assert (6, 2) in res.raw_savings
        raws = res.raw_savings[(6, 2)]
        assert len(raws) == 2  # one per seed
        assert res.savings[(6, 2)] == pytest.approx(float(np.mean(raws)))

    def test_parallel_matches_serial(self, small_sweep):
        serial = f.run_fig6b(**small_sweep, workers=1)
        par = f.run_fig6b(**small_sweep, workers=2)
        assert serial.savings == par.savings
        assert sorted(serial.raw_savings[(6, 2)]) == sorted(
            par.raw_savings[(6, 2)]
        )

    def test_bootstrap_ci_from_raws(self, small_sweep):
        from repro.analysis import bootstrap_mean_ci

        res = f.run_fig6b(**small_sweep)
        ci = bootstrap_mean_ci(np.array(res.raw_savings[(6, 2)]), seed=0)
        assert ci.lower <= res.savings[(6, 2)] <= ci.upper

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            f.run_fig6b(
                market_counts=(6,),
                horizons=(2,),
                weeks=1,
                seeds=(3,),
                workload="batch",
            )
