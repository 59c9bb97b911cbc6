"""OnlineSTL — the paper's core contribution (§5, Algorithm 1).

One instance decomposes one time series. Lifecycle:

1. ``initialize(first_4m_points)`` — the offline phase (§5.2). Runs the
   STL-skeleton pipeline (symmetric trend filter → cyclic-subseries
   exponential smoothing, twice, per period) to seed the state arrays
   A, K_p, E_{p,S}, E_{p,T}, D.
2. ``update(x)`` per arriving point — the O(1)-per-point online phase
   (§5.3 / Algorithm 1): alternating non-symmetric tri-cube trend filters
   and single-slot exponential seasonal updates, one pass per period.
   ``update_many(xs)`` is the same algorithm over a block of points in
   numpy, bit-identical to ``update`` per point; every bounded and keyed
   caller goes through it.

State is O(4m · k) floats for max period m and k periods — independent of
the number of points seen, as the paper requires of a streaming algorithm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.circular import CircularArray
from repro.core.filters import (
    seasonal_smooth,
    sliding_trend_filter,
    symmetric_trend_filter,
    trend_filter,
)
from repro.core.kernels import kernel


@dataclass
class DecompPoint:
    """Decomposition of a single point: X = trend + sum(seasonal) + residual."""

    trend: float
    seasonal: tuple[float, ...]  # one component per period, in period order
    residual: float


@dataclass
class Decomposition:
    """Batch-shaped decomposition output (arrays aligned with the input)."""

    trend: np.ndarray
    seasonal: list[np.ndarray]  # one array per period, in period order
    residual: np.ndarray


class OnlineSTL:
    """Online seasonal-trend decomposition for one series (Algorithm 1)."""

    def __init__(self, periods: list[int] | tuple[int, ...], gamma: float = 0.7):
        if not periods:
            raise ValueError("at least one seasonality period is required")
        if any(p < 2 for p in periods):
            raise ValueError(f"periods must be >= 2, got {periods}")
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.periods = [int(p) for p in periods]
        self.gamma = float(gamma)
        self.m = max(self.periods)
        self.window = 4 * self.m
        self.n_seen = 0
        self.initialized = False
        # State arrays, created by initialize():
        self.A: CircularArray | None = None
        self.K: list[CircularArray] = []
        self.E_S: list[np.ndarray] = []
        self.E_T: list[np.ndarray] = []
        self.D: CircularArray | None = None

    # ---------------------------------------------------------------- init
    def initialize(self, values: np.ndarray) -> Decomposition:
        """Offline phase (§5.2) over exactly the first ``4m`` points.

        Per period p, on the progressively deseasonalized working series
        (see DESIGN.md ambiguity #3):
          * subtract a symmetric trend filter of window 2·m_p  → T1,
          * exponentially smooth T1's cyclic subseries           → K_p, E_{p,S},
          * subtract a symmetric trend (window 3·m_p/2) of K_p from T1 → D5,
          * exponentially smooth D5's cyclic subseries           → E_{p,T},
          * deseasonalize the working series by the smoothed D5 series.
        Finally D := last m points of the working series.

        Returns the decomposition of the initial batch so callers (e.g. the
        streaming operator) can emit output for warm-up points too.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size != self.window:
            raise ValueError(
                f"initialize() needs exactly 4m={self.window} points, got {values.size}"
            )
        if self.initialized:
            raise RuntimeError("initialize() called twice")
        self.A = CircularArray(self.window, init=values)
        working = values.copy()
        seasonal_out: list[np.ndarray] = []
        for p in self.periods:
            t1_series = symmetric_trend_filter(working, 2 * p)
            T1 = working - t1_series
            k_series = seasonal_smooth(T1, p, self.gamma)
            # Algorithm 1 only reads the last 3p entries of K_p.
            self.K.append(CircularArray(3 * p, init=k_series[-3 * p :]))
            self.E_S.append(self._last_phase_values(k_series, p))
            trend_of_seas = symmetric_trend_filter(k_series, max(1, (3 * p) // 2))
            D5 = T1 - trend_of_seas
            s_series = seasonal_smooth(D5, p, self.gamma)
            self.E_T.append(self._last_phase_values(s_series, p))
            seasonal_out.append(s_series)
            working = working - s_series
        self.D = CircularArray(self.m, init=working[-self.m :])
        self.n_seen = self.window
        self.initialized = True
        # Decomposition for the warm-up batch: final trend is a symmetric
        # smooth (window m) of the fully deseasonalized series.
        trend = symmetric_trend_filter(working, self.m)
        residual = values - trend - np.sum(seasonal_out, axis=0)
        return Decomposition(trend=trend, seasonal=seasonal_out, residual=residual)

    @staticmethod
    def _last_phase_values(series: np.ndarray, period: int) -> np.ndarray:
        """E_p[r] := last value of the r'th smoothed cyclic subseries."""
        out = np.empty(period)
        n = series.size
        for r in range(period):
            # Last index j < n with j % period == r.
            j = n - 1 - ((n - 1 - r) % period)
            out[r] = series[j]
        return out

    # -------------------------------------------------------------- update
    def update(self, x: float) -> DecompPoint:
        """Online phase (Algorithm 1) for one arriving point ``X_i``."""
        if not self.initialized:
            raise RuntimeError("update() before initialize()")
        assert self.A is not None and self.D is not None
        self.n_seen += 1
        i = self.n_seen  # 1-based timestamp of this point
        self.A.append(float(x))
        b = float(x)
        seasonal: list[float] = []
        for idx, p in enumerate(self.periods):
            k4, l4 = kernel(4 * p)
            t1 = trend_filter(k4, l4, self.A.view_last(4 * p))
            d1 = b - t1
            r = (i - 1) % p
            g = self.gamma
            self.E_S[idx][r] = g * d1 + (1.0 - g) * self.E_S[idx][r]
            self.K[idx].append(self.E_S[idx][r])
            k3, l3 = kernel(3 * p)
            t4 = trend_filter(k3, l3, self.K[idx].view_last(3 * p))
            d5 = b - t1 - t4
            self.E_T[idx][r] = g * d5 + (1.0 - g) * self.E_T[idx][r]
            s = self.E_T[idx][r]
            seasonal.append(s)
            b -= s  # deseasonalize for the next period
        self.D.append(b)
        km, lm = kernel(self.m)
        trend = trend_filter(km, lm, self.D.view_last(self.m))
        residual = float(x) - trend - float(np.sum(seasonal))
        return DecompPoint(trend=trend, seasonal=tuple(seasonal), residual=residual)

    def update_many(self, values: np.ndarray) -> Decomposition:
        """Algorithm 1 over a block of points: the outputs and final state
        of ``update`` on each of ``values`` in order, bit for bit.

        Period q reads only the raw points (t1 over A) and what the periods
        before it subtracted, so each period runs over the whole block in
        turn: t1 and t4 are sliding filters, and E_S, E_T are updated in runs
        of p points, within which every phase r = (i - 1) mod p is distinct.
        """
        if not self.initialized:
            raise RuntimeError("update() before initialize()")
        assert self.A is not None and self.D is not None
        values = np.asarray(values, dtype=np.float64)
        n = values.size
        b = values  # deseasonalized by the periods done so far
        seasonal: list[np.ndarray] = []
        for idx, p in enumerate(self.periods):
            phase = (self.n_seen + np.arange(n)) % p
            k4, l4 = kernel(4 * p)
            t1 = sliding_trend_filter(
                k4, l4, np.concatenate([self.A.view_last(4 * p - 1), values])
            )
            d1 = b - t1
            es = self._smooth_phases(self.E_S[idx], d1, phase, p)
            k3, l3 = kernel(3 * p)
            t4 = sliding_trend_filter(
                k3, l3, np.concatenate([self.K[idx].view_last(3 * p - 1), es])
            )
            self.K[idx].extend(es)
            s = self._smooth_phases(self.E_T[idx], d1 - t4, phase, p)
            seasonal.append(s)
            b = b - s
        self.A.extend(values)
        km, lm = kernel(self.m)
        trend = sliding_trend_filter(
            km, lm, np.concatenate([self.D.view_last(self.m - 1), b])
        )
        self.D.extend(b)
        self.n_seen += n
        # Row-wise over (point, period), like update's np.sum per point; a
        # sum over axis 0 would add the periods in another order from 8 up.
        residual = values - trend - np.stack(seasonal, axis=1).sum(axis=1)
        return Decomposition(trend=trend, seasonal=seasonal, residual=residual)

    def _smooth_phases(
        self, E: np.ndarray, d: np.ndarray, phase: np.ndarray, p: int
    ) -> np.ndarray:
        """``E[r] = γ·d + (1-γ)·E[r]`` at each point in turn (Algorithm 1
        lines 9 and 13); returns ``E[r]`` after each point.

        Any p consecutive points have distinct phases, so each run of p
        reads E, or the run before it, elementwise.
        """
        g = self.gamma
        out = np.empty_like(d)
        head = min(d.size, p)
        out[:head] = g * d[:head] + (1.0 - g) * E[phase[:head]]
        for lo in range(p, d.size, p):
            hi = min(lo + p, d.size)
            out[lo:hi] = g * d[lo:hi] + (1.0 - g) * out[lo - p : hi - p]
        E[phase[d.size - head :]] = out[d.size - head :]
        return out

    # ------------------------------------------------------------- helpers
    def state_floats(self) -> int:
        """Number of float64 slots held — the O(4m·k) space claim (§3.2)."""
        if not self.initialized:
            return 0
        n = self.window  # A
        n += sum(k.capacity for k in self.K)
        n += sum(e.size for e in self.E_S) + sum(e.size for e in self.E_T)
        n += self.m  # D
        return n


def decompose_series(
    values: np.ndarray, periods: list[int], gamma: float = 0.7
) -> Decomposition:
    """Run OnlineSTL over a bounded series: init on the first 4m points,
    then one online update per remaining point. Convenience for tests and
    the accuracy tables; the keyed operators drive the same two calls.
    """
    values = np.asarray(values, dtype=np.float64)
    model = OnlineSTL(periods, gamma=gamma)
    w = model.window
    if values.size < w:
        raise ValueError(
            f"series of length {values.size} is shorter than 4m={w}; "
            "OnlineSTL needs one full window to initialize"
        )
    head = model.initialize(values[:w])
    tail = model.update_many(values[w:])
    return Decomposition(
        trend=np.concatenate([head.trend, tail.trend]),
        seasonal=[np.concatenate(hs) for hs in zip(head.seasonal, tail.seasonal)],
        residual=np.concatenate([head.residual, tail.residual]),
    )
