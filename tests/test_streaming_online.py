"""Tests for the unbounded Structured Streaming path: the stateful keyed
operator must produce byte-identical results to the bounded path, across
micro-batch boundaries, with state round-tripping through the codec."""
import numpy as np
import pandas as pd
import pytest
from pyspark.errors import StreamingQueryException

from repro.streaming import (
    KeyState,
    batch_decompose,
    decode,
    encode,
    replay_files,
    streaming_decompose,
)
from repro.streaming import (
    measure_streaming_throughput,
    state_bytes_per_key,
    state_codec,
)
from repro.streaming.throughput import steady_rows_per_sec
from repro.streaming.keyed_decompose import _advance
from repro.core import OnlineSTL, decompose_series
from repro.synth_data import metric_events_pdf

PERIODS = [10]
WINDOW = 4 * 10


class TestStateCodec:
    def test_roundtrip_empty(self):
        ks = KeyState(periods=[7], gamma=0.7)
        out = decode(encode(ks))
        assert out.periods == [7]
        assert out.model is None
        assert out.buffer_vals == []

    def test_roundtrip_with_buffer(self):
        ks = KeyState(periods=[7], gamma=0.7, buffer_ts=[0, 1], buffer_vals=[1.0, 2.0])
        out = decode(encode(ks))
        assert out.buffer_ts == [0, 1]
        assert out.buffer_vals == [1.0, 2.0]

    def test_roundtrip_with_live_model(self):
        rng = np.random.default_rng(0)
        model = OnlineSTL([5])
        model.initialize(rng.normal(size=20))
        model.update(1.0)
        ks = KeyState(periods=[5], gamma=0.7, model=model)
        out = decode(encode(ks))
        # The decoded model must continue the sequence identically.
        a = model.update(2.0)
        b = out.model.update(2.0)
        assert a.trend == pytest.approx(b.trend)
        assert a.residual == pytest.approx(b.residual)

    def test_version_guard(self):
        import pickle

        blob = pickle.dumps((999, KeyState(periods=[5], gamma=0.7)))
        with pytest.raises(ValueError):
            decode(blob)

    def test_type_guard(self):
        import pickle

        blob = pickle.dumps((state_codec._VERSION, {"not": "a KeyState"}))
        with pytest.raises(TypeError):
            decode(blob)

    def test_live_blob_holds_only_model_floats(self):
        """No kernels or spare ring slots: the blob is the model's floats
        plus a small pickle envelope."""
        rng = np.random.default_rng(0)
        ks = KeyState(periods=[1440], gamma=0.7)
        _advance(ks, np.arange(4 * 1440 + 8), rng.normal(size=4 * 1440 + 8), 0)
        assert ks.model is not None
        assert len(encode(ks)) <= 1.02 * ks.model.state_floats() * 8


class TestAdvance:
    """The shared per-key kernel, exercised without Spark."""

    def _events(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return np.arange(n), rng.normal(size=n) + 5.0

    def test_buffers_until_window(self):
        ks = KeyState(periods=PERIODS, gamma=0.7)
        ts, vals = self._events(WINDOW - 1)
        out = _advance(ks, ts, vals, 0)
        assert len(out) == 0
        assert ks.model is None
        assert len(ks.buffer_vals) == WINDOW - 1

    def test_emits_warmup_batch_on_init(self):
        ks = KeyState(periods=PERIODS, gamma=0.7)
        ts, vals = self._events(WINDOW)
        out = _advance(ks, ts, vals, 0)
        assert len(out) == WINDOW
        assert ks.model is not None
        assert ks.buffer_vals == []

    def test_incremental_equals_oneshot(self):
        """Feeding points in arbitrary chunkings gives identical output."""
        ts, vals = self._events(WINDOW + 30, seed=1)
        one = KeyState(periods=PERIODS, gamma=0.7)
        out_one = _advance(one, ts, vals, 0)
        chunked = KeyState(periods=PERIODS, gamma=0.7)
        outs = []
        for lo, hi in [(0, 13), (13, WINDOW + 2), (WINDOW + 2, WINDOW + 30)]:
            o = _advance(chunked, ts[lo:hi], vals[lo:hi], 0)
            if len(o):
                outs.append(o)
        out_chunked = pd.concat(outs, ignore_index=True)
        pd.testing.assert_frame_equal(out_one, out_chunked)

    def test_matches_decompose_series(self):
        ts, vals = self._events(WINDOW + 25, seed=2)
        ks = KeyState(periods=PERIODS, gamma=0.7)
        out = _advance(ks, ts, vals, 7)
        d = decompose_series(vals, PERIODS)
        np.testing.assert_allclose(out["trend"].to_numpy(), d.trend, atol=1e-9)
        np.testing.assert_allclose(
            out["seasonal_0"].to_numpy(), d.seasonal[0], atol=1e-9
        )
        assert (out["series_id"] == 7).all()


@pytest.mark.spark
class TestStreamingEndToEnd:
    def _run_stream(self, spark, events, tmpdir, n_chunks=4, sort=True):
        stream = replay_files(
            spark, events, str(tmpdir / "in"), n_chunks=n_chunks, sort=sort
        )
        name = f"dec_{abs(hash(str(tmpdir))) % 10**8}"
        q = (
            streaming_decompose(stream, PERIODS)
            .writeStream.format("memory")
            .queryName(name)
            .outputMode("append")
            .option("checkpointLocation", str(tmpdir / "ckpt"))
            .start()
        )
        try:
            q.processAllAvailable()
        finally:
            q.stop()
        return (
            spark.table(name)
            .toPandas()
            .sort_values(["series_id", "ts"])
            .reset_index(drop=True)
        )

    def test_stream_equals_batch(self, spark, tmp_path):
        events = metric_events_pdf(
            n_keys=3, points_per_key=WINDOW + 30, periods=PERIODS, seed=4
        )
        got = self._run_stream(spark, events, tmp_path)
        want = (
            batch_decompose(spark.createDataFrame(events), PERIODS)
            .toPandas()
            .sort_values(["series_id", "ts"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)

    def test_state_survives_many_microbatches(self, spark, tmp_path):
        """8 chunks → ≥8 micro-batches → state round-trips repeatedly."""
        events = metric_events_pdf(
            n_keys=2, points_per_key=WINDOW + 16, periods=PERIODS, seed=5
        )
        got = self._run_stream(spark, events, tmp_path, n_chunks=8)
        assert len(got) == len(events)
        lhs = got["value"].to_numpy()
        rhs = (got["trend"] + got["seasonal_0"] + got["residual"]).to_numpy()
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_intra_batch_disorder_tolerated(self, spark, tmp_path):
        """Rows shuffled within chunks (the operator sorts by ts per batch)."""
        events = metric_events_pdf(
            n_keys=2, points_per_key=WINDOW + 12, periods=PERIODS, seed=6
        )
        # Shuffle rows within each time-half so each chunk is internally
        # disordered, while chunk boundaries still respect per-key time
        # order (cross-batch late data is out of scope, as for Flink).
        events = events.sort_values("ts", kind="stable").reset_index(drop=True)
        half = len(events) // 2
        events = pd.concat(
            [
                events.iloc[:half].sample(frac=1.0, random_state=0),
                events.iloc[half:].sample(frac=1.0, random_state=1),
            ],
            ignore_index=True,
        )
        got = self._run_stream(spark, events, tmp_path, n_chunks=2, sort=False)
        want = (
            batch_decompose(spark.createDataFrame(events), PERIODS)
            .toPandas()
            .sort_values(["series_id", "ts"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)


class TestThroughputAccounting:
    def test_rows_over_duration_not_mean_of_rates(self):
        """Two steady batches of 100 rows in 0.1 s and 0.9 s: 200 rows/s,
        where the mean of per-batch rates would say 555."""
        progress = [
            {"numInputRows": 400, "batchDuration": 5000},  # warm-up
            {"numInputRows": 100, "batchDuration": 100},
            {"numInputRows": 0, "batchDuration": 50},
            {"numInputRows": 100, "batchDuration": 900},
            {"numInputRows": 100, "batchDuration": None},
        ]
        assert steady_rows_per_sec(progress, warmup_rows=400) == (200.0, 2)

    def test_no_steady_batch(self):
        progress = [{"numInputRows": 40, "batchDuration": 900}]
        assert steady_rows_per_sec(progress, warmup_rows=40) == (0.0, 0)

    def test_state_bytes_are_a_live_keys_blob(self):
        ks = KeyState(periods=PERIODS, gamma=0.7)
        vals = np.random.default_rng(0).normal(size=WINDOW + 3)
        _advance(ks, np.arange(vals.size), vals, 1)
        assert ks.model is not None
        assert state_bytes_per_key(PERIODS[0]) == len(encode(ks))


@pytest.mark.spark
class TestThroughputHarness:
    def test_crashed_query_raises(self, spark):
        """OnlineSTL([1]) raises on init in the worker; the harness must
        surface that instead of reporting 0 rows/s."""
        with pytest.raises(StreamingQueryException, match="periods must be >= 2"):
            measure_streaming_throughput(
                spark, seasonality=1, n_keys=2, run_seconds=120, rows_per_batch=16
            )

    def test_unfinished_warmup_raises(self, spark):
        """Warm-up needs 4·10⁴·2 rows; 16-row batches cannot bring them in
        3 s, so no steady batch is measured and no rate may be reported."""
        with pytest.raises(RuntimeError, match="no steady-state batch"):
            measure_streaming_throughput(
                spark, seasonality=10_000, n_keys=2, run_seconds=3, rows_per_batch=16
            )
