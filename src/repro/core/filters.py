"""Trend and seasonality filters (paper §4).

``trend_filter`` is the non-symmetric tri-cube kernel filter TF(k_lam, X_t):
a normalized dot product of the pre-stored kernel with the last ``lam``
points. ``symmetric_trend_filter`` is the batch variant used only during
initialization, looking ``w/2`` points to each side (truncated at the
boundaries, which is the standard loess edge behaviour).

``seasonal_smooth`` applies the exponential-smoothing seasonality filter to
each cyclic subseries of a detrended batch (used in init);
the O(1) online update is a single line (Algorithm 1 line 9) done inline in
``online_stl.py``.
"""
from __future__ import annotations

import numpy as np

from repro.core.kernels import tricube


def trend_filter(kernel: np.ndarray, kernel_l1: float, window_vals: np.ndarray) -> float:
    """Non-symmetric TF: weighted average of the last ``lam`` points.

    ``window_vals`` must be the latest ``lam`` values oldest→newest, matching
    the kernel's orientation (kernel[-1] weights the newest point).
    """
    return float(kernel @ window_vals) / kernel_l1


def _correlate_same(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """'same'-mode correlation with a symmetric odd-length kernel.

    Direct ``np.convolve`` for small problems, FFT for large ones (the init
    phase at seasonality 10⁴ correlates 4·10⁴ points with a 10⁴-tap kernel —
    quadratic direct convolution would dominate warm-up time).
    """
    n, L = y.size, w.size
    h = (L - 1) // 2
    if n * L <= 1_000_000:
        # 'full' then slice: np.convolve's 'same' mode re-centers when the
        # kernel is longer than the signal, which would misalign output.
        return np.convolve(y, w)[h : h + n]
    size = n + L - 1
    nfft = 1 << int(np.ceil(np.log2(size)))
    out = np.fft.irfft(np.fft.rfft(y, nfft) * np.fft.rfft(w, nfft), nfft)
    return out[h : h + n]


def symmetric_trend_filter(values: np.ndarray, window: int) -> np.ndarray:
    """Symmetric tri-cube smoothing of a whole batch (init phase only).

    For each index t, weights W(|i - t| / h) are applied over the
    neighborhood ``[t - h, t + h]`` with half-width ``h = ceil(window / 2)``,
    truncated at the array boundary. Implemented as a zero-padded
    correlation normalized by the in-bounds kernel mass, which is exactly
    the truncated weighted average (padding contributes 0 to the numerator
    and is excluded from the denominator).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    h = max(1, int(np.ceil(window / 2)))
    offs = np.arange(-h, h + 1)
    w_full = np.asarray(tricube(np.abs(offs) / (h + 1)))
    num = _correlate_same(values, w_full)
    den = _correlate_same(np.ones(n), w_full)
    return num / den


def seasonal_smooth(detrended: np.ndarray, period: int, gamma: float) -> np.ndarray:
    """Exponentially smooth each cyclic subseries of ``detrended`` (§4.2).

    The k-th cyclic subseries is ``{d_r : r mod m = k}`` (0-indexed here:
    positions k, k+m, k+2m, ...). Smoothing is the recursion
    ``c_{k+(i+1)m} = γ d_{k+(i+1)m} + (1-γ) c_{k+im}`` with ``c_k = d_k``.
    Returns the full-length seasonal series (smoothed values rearranged in
    time order).
    """
    detrended = np.asarray(detrended, dtype=np.float64)
    n = detrended.size
    out = np.empty(n)
    for k in range(min(period, n)):
        sub = detrended[k::period]
        smoothed = np.empty(sub.size)
        acc = sub[0]
        smoothed[0] = acc
        for i in range(1, sub.size):
            acc = gamma * sub[i] + (1.0 - gamma) * acc
            smoothed[i] = acc
        out[k::period] = smoothed
    return out
