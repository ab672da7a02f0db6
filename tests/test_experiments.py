"""Error paths and format smoke for the experiment runners.

What each experiment claims is checked once, by the rows of
:mod:`repro.experiments.claims` (``tests/test_claims.py``); the format
smoke below reads the same quick-grid results.
"""

import pytest

from repro.experiments import fig4bcd_prediction, table1
from repro.experiments.claims import EXPERIMENTS


class TestTable1:
    def test_format_renders(self):
        out = table1.format_table1()
        assert "ExoSphere" in out and "SpotWeb" in out


class TestFig4bcd:
    def test_warmup_covering_the_trace_raises(self):
        from repro.workloads import wikipedia_like

        with pytest.raises(ValueError, match="14-day warm-up .* 14-day trace"):
            fig4bcd_prediction.run_fig4bcd(
                trace=wikipedia_like(2, seed=2), warmup_days=14
            )


@pytest.mark.parametrize(
    "name, title",
    [
        ("fig3", "wikipedia"),
        ("fig4a", "vanilla"),
        ("fig4bcd", "spotweb"),
        ("fig5", "price-awareness"),
        ("fig6a", "constant"),
        ("fig6b", "ExoSphere"),
        ("fig6b_vod", "vod workload"),
        ("fig7a", "accuracy"),
        ("fig7b", "markets"),
        ("gcloud", "preemptible"),
        ("lookahead", "look-ahead"),
        ("ablations", "no-padding"),
        ("shootout", "vod trace"),
    ],
)
def test_format_renders_the_quick_result(name, title, quick_result):
    assert title in EXPERIMENTS[name].format(quick_result(name))
