"""Distributed experiment grid for the accuracy tables.

Tables 3 and 4 evaluate a (dataset × algorithm × offline/online) grid where
each cell is an independent, CPU-heavy decomposition. The grid runs as a
Spark job: one row per cell in a spec DataFrame, ``applyInPandas`` per cell
(datasets are regenerated inside the worker from their deterministic
generator name, so only tiny specs are shuffled). A sequential fallback
(spark=None) exists for debugging single cells.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql.types import DoubleType, LongType, StringType, StructField, StructType

from repro.baselines import REGISTRY, online_counterpart
from repro.core import Decomposition, decompose_series
from repro.streaming.worker_imports import keep_zip_directories

#: Table-3/4 column order for the batch algorithms (paper's order).
BATCH_ALGOS = ["stl", "SSA", "STR", "TBATS", "RobustSTL"]

GRID_RESULT_SCHEMA = StructType(
    [
        StructField("dataset", StringType()),
        StructField("algorithm", StringType()),
        StructField("mode", StringType()),
        StructField("mase_res", DoubleType()),
        StructField("log_smooth", DoubleType()),
        StructField("mase_s0", DoubleType()),
        StructField("mase_s1", DoubleType()),
        StructField("mase_trend", DoubleType()),
        StructField("smooth", DoubleType()),
        StructField("n_points", LongType()),
    ]
)


def decompose_cell(
    values: np.ndarray,
    periods: list[int],
    algorithm: str,
    mode: str,
    *,
    max_online_points: int | None,
) -> Decomposition:
    """Decompose one grid cell.

    ``algorithm`` is a BATCH_ALGOS name or "OnlineSTL"; ``mode`` is
    "offline" (whole-series batch fit) or "online" (sliding 4m-window
    re-run per point, capped at ``max_online_points`` re-runs — the cap
    bounds the otherwise quadratic cost of the slowest baselines; metrics
    ignore the NaN tail past the cap).
    """
    if algorithm == "OnlineSTL":
        return decompose_series(values, periods)
    fn = REGISTRY[algorithm]
    if mode == "offline":
        return fn(values, periods)
    if mode == "online":
        return online_counterpart(
            fn, values, periods, max_points=max_online_points
        )
    raise ValueError(f"unknown mode {mode!r}")


def evaluate_cell(
    name: str,
    values: np.ndarray,
    periods: list[int],
    algorithm: str,
    mode: str,
    truth: dict[str, np.ndarray] | None,
    max_online_points: int | None,
) -> dict:
    """Run one cell and compute every metric either table needs."""
    from repro.metrics import (
        log_trend_smoothness,
        mase_residual,
        mase_vs_true,
        trend_smoothness,
    )

    d = decompose_cell(
        values, periods, algorithm, mode, max_online_points=max_online_points
    )
    scale_period = periods[0]
    row = {
        "dataset": name,
        "algorithm": algorithm,
        "mode": mode,
        "mase_res": mase_residual(values, d.residual, scale_period),
        "log_smooth": log_trend_smoothness(d.trend),
        "mase_s0": float("nan"),
        "mase_s1": float("nan"),
        "mase_trend": float("nan"),
        "smooth": trend_smoothness(d.trend),
        "n_points": int(np.isfinite(d.residual).sum()),
    }
    if truth is not None:
        row["mase_s0"] = mase_vs_true(
            d.seasonal[0], truth["seasonal_0"], values, scale_period
        )
        if len(periods) > 1 and "seasonal_1" in truth:
            row["mase_s1"] = mase_vs_true(
                d.seasonal[1], truth["seasonal_1"], values, periods[1]
            )
        row["mase_trend"] = mase_vs_true(
            d.trend, truth["trend"], values, scale_period
        )
    return row


def run_grid(
    spark: SparkSession | None,
    cells: list[dict],
    loader: Callable[[str], tuple[np.ndarray, list[int], dict | None]],
    *,
    max_online_points: int | None,
) -> pd.DataFrame:
    """Evaluate all cells, on Spark when a session is given.

    ``cells``: dicts with dataset/algorithm/mode. ``loader`` maps a dataset
    name to (values, periods, truth-dict-or-None) and must be importable on
    workers (module-level function) since it is shipped in the closure.
    """
    if spark is None:
        rows = [evaluate_cell_args(loader, c, max_online_points) for c in cells]
        return pd.DataFrame(rows)

    spec = pd.DataFrame(cells)
    spec["cell_id"] = np.arange(len(spec))
    spec_df = spark.createDataFrame(spec)

    def eval_one(pdf: pd.DataFrame) -> pd.DataFrame:
        keep_zip_directories()
        out = []
        for _, c in pdf.iterrows():
            values, periods, truth = loader(c["dataset"])
            out.append(
                evaluate_cell(
                    c["dataset"],
                    values,
                    periods,
                    c["algorithm"],
                    c["mode"],
                    truth,
                    max_online_points,
                )
            )
        return pd.DataFrame(out)

    result = (
        spec_df.repartition(len(spec), "cell_id")
        .groupBy("cell_id")
        .applyInPandas(eval_one, schema=GRID_RESULT_SCHEMA)
    )
    return result.toPandas()


def evaluate_cell_args(loader, c, max_online_points):
    """Load a cell's dataset and evaluate it (sequential-path helper)."""
    values, periods, truth = loader(c["dataset"])
    return evaluate_cell(
        c["dataset"], values, periods, c["algorithm"], c["mode"], truth,
        max_online_points,
    )
