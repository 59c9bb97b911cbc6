"""Unit tests for trend and seasonality filters (paper §4)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filters import (
    seasonal_smooth,
    symmetric_trend_filter,
    trend_filter,
)
from repro.core.kernels import kernel_vector, tricube


def _symmetric_reference(values: np.ndarray, window: int) -> np.ndarray:
    """Literal per-point loop the vectorized implementation must match."""
    n = values.size
    h = max(1, int(np.ceil(window / 2)))
    offs = np.arange(-h, h + 1)
    w_full = np.asarray(tricube(np.abs(offs) / (h + 1)))
    out = np.empty(n)
    for t in range(n):
        lo, hi = max(0, t - h), min(n, t + h + 1)
        w = w_full[lo - t + h : hi - t + h]
        out[t] = float(w @ values[lo:hi]) / float(w.sum())
    return out


class TestTrendFilter:
    def test_matches_manual_dot(self):
        lam = 5
        k = kernel_vector(lam)
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        expected = float(k @ vals) / float(np.abs(k).sum())
        assert trend_filter(k, float(np.abs(k).sum()), vals) == pytest.approx(expected)

    @pytest.mark.parametrize("lam", [1, 2, 7, 30])
    def test_constant_series_is_fixed_point(self, lam):
        k = kernel_vector(lam)
        out = trend_filter(k, float(np.abs(k).sum()), np.full(lam, 3.5))
        assert out == pytest.approx(3.5)

    def test_weighted_toward_newest(self):
        # Step from 0s to a final 1: the smoothed value must exceed the
        # uniform mean because the newest point carries the largest weight.
        lam = 10
        vals = np.zeros(lam)
        vals[-1] = 1.0
        k = kernel_vector(lam)
        assert trend_filter(k, float(np.abs(k).sum()), vals) > 1.0 / lam

    @given(st.integers(min_value=1, max_value=60))
    @settings(max_examples=25)
    def test_output_within_input_range(self, lam):
        rng = np.random.default_rng(lam)
        vals = rng.normal(size=lam)
        k = kernel_vector(lam)
        out = trend_filter(k, float(np.abs(k).sum()), vals)
        assert vals.min() - 1e-12 <= out <= vals.max() + 1e-12


class TestSymmetricTrendFilter:
    @pytest.mark.parametrize(
        "n,window", [(10, 4), (50, 7), (200, 25), (301, 100), (64, 64)]
    )
    def test_matches_loop_reference(self, n, window):
        rng = np.random.default_rng(n + window)
        y = rng.normal(size=n)
        got = symmetric_trend_filter(y, window)
        np.testing.assert_allclose(got, _symmetric_reference(y, window), atol=1e-10)

    def test_fft_path_matches_reference(self):
        # n * L > 1e6 forces the FFT branch.
        rng = np.random.default_rng(0)
        y = rng.normal(size=3000)
        np.testing.assert_allclose(
            symmetric_trend_filter(y, 900),
            _symmetric_reference(y, 900),
            atol=1e-8,
        )

    def test_constant_preserved(self):
        y = np.full(80, 2.25)
        np.testing.assert_allclose(symmetric_trend_filter(y, 10), y, atol=1e-12)

    def test_smooths_noise(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=500)
        sm = symmetric_trend_filter(y, 50)
        assert np.std(np.diff(sm)) < np.std(np.diff(y)) / 3

    def test_output_length(self):
        assert symmetric_trend_filter(np.ones(33), 8).shape == (33,)


class TestSeasonalSmooth:
    def test_recursion_matches_reference(self):
        rng = np.random.default_rng(2)
        d = rng.normal(size=40)
        m, g = 5, 0.7
        got = seasonal_smooth(d, m, g)
        for k in range(m):
            sub = d[k::m]
            acc = sub[0]
            assert got[k] == pytest.approx(acc)
            for i in range(1, sub.size):
                acc = g * sub[i] + (1 - g) * acc
                assert got[k + i * m] == pytest.approx(acc)

    def test_gamma_one_is_identity(self):
        rng = np.random.default_rng(3)
        d = rng.normal(size=24)
        np.testing.assert_allclose(seasonal_smooth(d, 6, 1.0), d)

    def test_periodic_series_is_fixed_point(self):
        pattern = np.array([1.0, -2.0, 0.5, 0.5])
        d = np.tile(pattern, 6)
        np.testing.assert_allclose(seasonal_smooth(d, 4, 0.7), d, atol=1e-12)

    def test_period_longer_than_series(self):
        d = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(seasonal_smooth(d, 10, 0.5), d)

    @pytest.mark.parametrize("m", [2, 3, 7, 12])
    def test_length_preserved(self, m):
        d = np.arange(50, dtype=float)
        assert seasonal_smooth(d, m, 0.7).shape == (50,)

    def test_constant_preserved(self):
        d = np.full(30, 4.0)
        np.testing.assert_allclose(seasonal_smooth(d, 7, 0.7), d)
