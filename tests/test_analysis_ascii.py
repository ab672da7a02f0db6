"""Unit tests for ASCII rendering helpers."""

import numpy as np

from repro.textfmt import sparkline


class TestSparkline:
    def test_monotone_series(self):
        s = sparkline(np.arange(8))
        assert s[0] == "▁"
        assert s[-1] == "█"
        assert len(s) == 8

    def test_constant_series(self):
        assert sparkline(np.ones(5)) == "▁▁▁▁▁"

    def test_resampling(self):
        s = sparkline(np.arange(100), width=10)
        assert len(s) == 10

    def test_empty(self):
        assert sparkline(np.array([])) == ""

