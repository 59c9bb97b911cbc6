"""Synthetic keyed metric-event streams for the streaming tests.

:func:`metric_events_pdf` builds the (series_id, ts, value) frame that the
keyed operators consume. It is deterministic in ``seed``, so the DuckDB
oracle and the Spark side see identical input.
"""
import numpy as np
import pandas as pd


def metric_events_pdf(
    *,
    n_keys: int,
    points_per_key: int,
    periods: list[int],
    noise_std: float = 0.3,
    seed: int = 21,
) -> pd.DataFrame:
    """Keyed DevOps-metric event stream as a pandas frame (series_id, ts, value).

    Each series is trend + one seasonal wave per period + Gaussian noise,
    with per-key random phases/amplitudes — the OnlineSTL deployment shape:
    "a typical data stream contains hundreds of thousands of time-series
    each maintaining a separate key" (paper §6). Deterministic in ``seed``.
    """
    g = np.random.default_rng(seed)
    t = np.arange(points_per_key, dtype=np.float64)
    frames = []
    for k in range(n_keys):
        base = g.uniform(10, 100)
        slope = g.uniform(-0.01, 0.01)
        series = base + slope * t
        for p in periods:
            amp = g.uniform(0.5, 3.0)
            phase = g.uniform(0, 2 * np.pi)
            series = series + amp * np.sin(2 * np.pi * t / p + phase)
        series = series + g.normal(0, noise_std, points_per_key)
        frames.append(
            pd.DataFrame(
                {
                    "series_id": np.full(points_per_key, k, dtype=np.int64),
                    "ts": t.astype(np.int64),
                    "value": series,
                }
            )
        )
    return pd.concat(frames, ignore_index=True)
