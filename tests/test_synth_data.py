"""Tests for the synthetic data generators, with DuckDB-oracle checks on the
Spark aggregations they feed."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.synth_data import metric_events_pdf


class TestMetricEventsPdf:
    def test_shape(self):
        pdf = metric_events_pdf(n_keys=4, points_per_key=50, periods=[10])
        assert len(pdf) == 200
        assert set(pdf.columns) == {"series_id", "ts", "value"}

    def test_deterministic(self):
        a = metric_events_pdf(n_keys=3, points_per_key=30, periods=[7], seed=5)
        b = metric_events_pdf(n_keys=3, points_per_key=30, periods=[7], seed=5)
        assert a.equals(b)

    def test_per_key_timestamps_dense(self):
        pdf = metric_events_pdf(n_keys=3, points_per_key=40, periods=[10])
        for k, grp in pdf.groupby("series_id"):
            assert sorted(grp["ts"]) == list(range(40))

    def test_keys_distinct_series(self):
        pdf = metric_events_pdf(n_keys=2, points_per_key=60, periods=[10], seed=1)
        a = pdf[pdf.series_id == 0]["value"].to_numpy()
        b = pdf[pdf.series_id == 1]["value"].to_numpy()
        assert not np.allclose(a, b)

    def test_seasonal_signal_present(self):
        pdf = metric_events_pdf(
            n_keys=1, points_per_key=400, periods=[20], noise_std=0.05, seed=2
        )
        y = pdf["value"].to_numpy()
        y = y - np.convolve(y, np.ones(41) / 41, mode="same")
        r = np.corrcoef(y[:-20], y[20:])[0, 1]
        # Per-key amplitude is drawn from [0.5, 3] so the bar is modest.
        assert r > 0.25


@pytest.mark.spark
class TestMetricEventsSpark:
    def test_value_stats_oracle(self, spark):
        pdf = metric_events_pdf(n_keys=4, points_per_key=25, periods=[5], seed=9)
        ev = spark.createDataFrame(pdf)
        got = ev.groupBy("series_id").agg(
            F.round(F.sum("value"), 6).alias("s"),
            F.round(F.avg("value"), 6).alias("m"),
        )
        assert_equivalent(
            got,
            "SELECT series_id, round(sum(value), 6) AS s, round(avg(value), 6) AS m "
            "FROM ev GROUP BY series_id",
            ev=pdf,
        )

