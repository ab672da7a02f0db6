"""Focused tests for the Fig. 6(b) sweep machinery (serial vs parallel)."""

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
    def test_parallel_matches_serial(self, small_sweep):
        serial = f.run_fig6b(**small_sweep, workers=1)
        par = f.run_fig6b(**small_sweep, workers=2)
        assert serial.savings == par.savings

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            f.run_fig6b(
                market_counts=(6,),
                horizons=(2,),
                weeks=1,
                seeds=(3,),
                workload="batch",
            )
