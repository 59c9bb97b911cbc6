"""Unit tests for the tri-cube kernel substrate (paper §4.1.1, eq. 1)."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.kernels import kernel, kernel_vector, tricube


class TestTricube:
    def test_zero(self):
        assert tricube(0.0) == 1.0

    def test_at_one_is_zero(self):
        assert tricube(1.0) == 0.0

    def test_beyond_one_is_zero(self):
        assert tricube(1.5) == 0.0

    def test_negative_is_zero(self):
        # W maps [0,1) -> (0,1]; anything outside gets weight 0 (eq. 1).
        assert tricube(-0.2) == 0.0

    @pytest.mark.parametrize("u", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_closed_form(self, u):
        assert tricube(u) == pytest.approx((1 - u**3) ** 3)

    @pytest.mark.parametrize("u", [0.0, 0.3, 0.6, 0.99])
    def test_range(self, u):
        assert 0.0 < tricube(u) <= 1.0

    def test_monotone_decreasing_on_unit_interval(self):
        u = np.linspace(0, 0.999, 200)
        w = tricube(u)
        assert np.all(np.diff(w) < 0)

    def test_vectorized_matches_scalar(self):
        u = np.array([0.0, 0.5, 1.0, 2.0])
        w = tricube(u)
        assert w.shape == (4,)
        for i, ui in enumerate(u):
            assert w[i] == pytest.approx(tricube(float(ui)))


class TestKernelVector:
    @pytest.mark.parametrize("lam", [1, 2, 3, 7, 48, 100])
    def test_length(self, lam):
        assert kernel_vector(lam).shape == (lam,)

    @pytest.mark.parametrize("lam", [2, 5, 40])
    def test_newest_point_has_weight_one(self, lam):
        # w_k = W(|lam - k| / lam): at k = lam (the incoming point) u = 0.
        assert kernel_vector(lam)[-1] == 1.0

    @pytest.mark.parametrize("lam", [2, 5, 40])
    def test_oldest_point_has_smallest_weight(self, lam):
        k = kernel_vector(lam)
        assert k[0] == np.min(k)

    @pytest.mark.parametrize("lam", [3, 10, 25])
    def test_strictly_increasing_toward_newest(self, lam):
        assert np.all(np.diff(kernel_vector(lam)) > 0)

    @pytest.mark.parametrize("lam", [1, 4, 16])
    def test_all_positive(self, lam):
        # u = |lam - k|/lam < 1 for k >= 1, so every weight is in (0, 1].
        assert np.all(kernel_vector(lam) > 0)

    def test_matches_definition(self):
        lam = 6
        k = kernel_vector(lam)
        for idx in range(lam):
            u = abs(lam - (idx + 1)) / lam
            assert k[idx] == pytest.approx((1 - u**3) ** 3)

    def test_invalid_window_raises(self):
        with pytest.raises(ValueError):
            kernel_vector(0)

    @given(st.integers(min_value=1, max_value=500))
    def test_l1_norm_positive_and_bounded(self, lam):
        k = kernel_vector(lam)
        l1 = np.abs(k).sum()
        assert 0 < l1 <= lam


class TestKernel:
    def test_caches_identity(self):
        k1, _ = kernel(10)
        k2, _ = kernel(10)
        assert k1 is k2

    def test_l1_matches(self):
        k, l1 = kernel(12)
        assert l1 == pytest.approx(np.abs(k).sum())

    def test_distinct_windows_distinct_kernels(self):
        k10, _ = kernel(10)
        k20, _ = kernel(20)
        assert k10.shape != k20.shape

    def test_read_only(self):
        k, _ = kernel(8)
        assert not k.flags.writeable
        with pytest.raises(ValueError):
            k[0] = 0.0
