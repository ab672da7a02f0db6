"""The Cephes ndtri port returns scipy.special.ndtri's bits."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri as scipy_ndtri

from repro.normal import ndtri

EXP_M2 = math.exp(-2.0)


def assert_same_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    mismatch = got[~nan].view(np.int64) != want[~nan].view(np.int64)
    assert not mismatch.any(), (got[~nan][mismatch][:5], want[~nan][mismatch][:5])


def test_dense_grid_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20190622)
    specials = [
        0.0, -0.0, 1.0, 0.5, 5e-324, 1e-310,
        EXP_M2, np.nextafter(EXP_M2, 0.0), np.nextafter(EXP_M2, 1.0),
        1.0 - EXP_M2, np.nextafter(1.0 - EXP_M2, 0.0), np.nextafter(1.0 - EXP_M2, 1.0),
        math.exp(-32.0), np.nextafter(math.exp(-32.0), 0.0),
        np.nextafter(math.exp(-32.0), 1.0), np.nextafter(1.0, 0.0),
        # out of range
        np.nan, -1.0, -5e-324, np.nextafter(1.0, 2.0), 2.0, np.inf, -np.inf,
    ]
    grid = np.concatenate([
        rng.uniform(0.0, 1.0, 100_000),
        10.0 ** rng.uniform(-300.0, 0.0, 100_000),
        1.0 - rng.uniform(0.0, 1e-17, 1_000),
        1.0 - rng.integers(1, 10_000, 10_000) * 2.0**-53,
        np.array(specials),
    ])
    assert_same_bits(ndtri(grid), scipy_ndtri(grid))


@settings(max_examples=300, deadline=None)
@given(p=st.floats(min_value=0.0, max_value=1.0))
def test_scalar_matches_scipy(p):
    got = ndtri(p)
    assert isinstance(got, float)
    assert_same_bits(got, scipy_ndtri(p))


def test_array_keeps_its_shape():
    p = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    got = ndtri(p)
    assert got.dtype == np.float64
    assert_same_bits(got, scipy_ndtri(p))
    assert ndtri(np.array([])).shape == (0,)
