"""Distributed keyed OnlineSTL decomposition — the Flink deployment's
Spark Structured Streaming equivalent (paper §6, DESIGN.md substitutions).

Two paths share one per-key step, :func:`_advance`:

* :func:`streaming_decompose` — unbounded: ``groupBy(key)`` +
  ``applyInPandasWithState``; state is the warm-up buffer or the live
  OnlineSTL model (pickled via :mod:`repro.streaming.state_codec`). This is
  the paper's "stateful keyed map function".
* :func:`batch_decompose` — bounded: ``groupBy(key).applyInPandas`` running
  ``_advance`` once per key on a fresh state, parallel across keys. Used by
  correctness tests (its output is oracle-checked and must equal the
  streaming path and the single-threaded core exactly).

Rows are sorted by timestamp inside each (key, micro-batch) group, so
intra-batch disorder is tolerated — the Flink deployment makes the same
event-time assumption. Cross-batch late data would need watermarked
re-ordering, which neither the paper's operator nor this one attempts.
"""
from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
from pyspark.sql.types import (
    BinaryType,
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.core.online_stl import Decomposition, OnlineSTL
from repro.streaming.state_codec import KeyState, decode, encode
from repro.streaming.worker_imports import keep_zip_directories


def output_schema(n_periods: int) -> StructType:
    """Decomposition row schema: one scalar seasonal column per period
    (scalar so the DuckDB oracle can sort/compare rows)."""
    fields = [
        StructField("series_id", LongType()),
        StructField("ts", LongType()),
        StructField("value", DoubleType()),
        StructField("trend", DoubleType()),
    ]
    fields += [
        StructField(f"seasonal_{j}", DoubleType()) for j in range(n_periods)
    ]
    fields.append(StructField("residual", DoubleType()))
    return StructType(fields)


STATE_SCHEMA = StructType([StructField("blob", BinaryType())])


def _rows(
    series_id: int, ts: np.ndarray, values: np.ndarray, d: Decomposition
) -> pd.DataFrame:
    cols: dict[str, np.ndarray] = {
        "series_id": np.full(len(ts), series_id, dtype=np.int64),
        "ts": np.asarray(ts, dtype=np.int64),
        "value": values,
        "trend": d.trend,
    }
    for j, s in enumerate(d.seasonal):
        cols[f"seasonal_{j}"] = s
    cols["residual"] = d.residual
    return pd.DataFrame(cols)


def _advance(
    state: KeyState, ts: np.ndarray, vals: np.ndarray, series_id: int
) -> pd.DataFrame:
    """Feed ordered points through a KeyState; return emitted decomposition
    rows. Shared by the streaming and batch paths — the warm-up buffer
    fills until 4m points, init emits the warm-up batch, then the rest go
    through ``OnlineSTL.update_many``."""
    out: list[pd.DataFrame] = []
    window = 4 * max(state.periods)
    i = 0
    n = len(vals)
    if state.model is None:
        take = min(n, window - len(state.buffer_vals))
        state.buffer_ts.extend(int(t) for t in ts[:take])
        state.buffer_vals.extend(float(v) for v in vals[:take])
        i = take
        if len(state.buffer_vals) == window:
            model = OnlineSTL(state.periods, gamma=state.gamma)
            buf_vals = np.asarray(state.buffer_vals)
            head = model.initialize(buf_vals)
            out.append(_rows(series_id, np.asarray(state.buffer_ts), buf_vals, head))
            state.model = model
            state.buffer_ts = []
            state.buffer_vals = []
    if state.model is not None and i < n:
        tail = state.model.update_many(vals[i:])
        out.append(_rows(series_id, ts[i:], vals[i:], tail))
    if not out:
        return pd.DataFrame()
    return pd.concat(out, ignore_index=True)


def streaming_decompose(
    events: DataFrame,
    periods: list[int],
    gamma: float = 0.7,
) -> DataFrame:
    """Stateful keyed decomposition of an unbounded (series_id, ts, value)
    stream. Returns the streaming DataFrame of decomposition rows."""
    schema = output_schema(len(periods))

    def fn(
        key: tuple, pdfs: Iterable[pd.DataFrame], state: GroupState
    ) -> Iterator[pd.DataFrame]:
        keep_zip_directories()
        (series_id,) = key
        if state.exists:
            (blob,) = state.get
            ks = decode(bytes(blob))
        else:
            ks = KeyState(periods=list(periods), gamma=gamma)
        chunks = [p for p in pdfs if len(p)]
        if chunks:
            pdf = pd.concat(chunks, ignore_index=True).sort_values("ts")
            out = _advance(
                ks,
                pdf["ts"].to_numpy(np.int64),
                pdf["value"].to_numpy(np.float64),
                int(series_id),
            )
            state.update((encode(ks),))
            if len(out):
                yield out

    return (
        events.groupBy("series_id")
        .applyInPandasWithState(
            fn,
            outputStructType=schema,
            stateStructType=STATE_SCHEMA,
            outputMode="append",
            timeoutConf=GroupStateTimeout.NoTimeout,
        )
    )


def batch_decompose(
    events: DataFrame,
    periods: list[int],
    gamma: float = 0.7,
) -> DataFrame:
    """Bounded keyed decomposition: one :func:`_advance` per key, on a fresh
    state, via ``applyInPandas`` (keys run in parallel across cores). Keys
    with fewer than 4m points cannot be initialized and emit no rows."""

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        keep_zip_directories()
        pdf = pdf.sort_values("ts")
        return _advance(
            KeyState(periods=list(periods), gamma=gamma),
            pdf["ts"].to_numpy(np.int64),
            pdf["value"].to_numpy(np.float64),
            int(pdf["series_id"].iloc[0]),
        )

    return events.groupBy("series_id").applyInPandas(
        fn, schema=output_schema(len(periods))
    )
