"""Runs a workload on Spark and collects engine-side measurements.

A workload runs as one closed-loop query: the ``rate-micro-batch`` source
hands every trigger exactly ``rows_per_batch`` rows, and the next trigger
starts only after the previous batch has committed.

Every output row is checked: ``DataFrame.observe`` counts the rows out and
the rows that break ``|value - trend - sum(seasonal) - residual| <= 1e-9``,
and the run reads both from each batch's ``StreamingQueryProgress``.
"""
from __future__ import annotations

import datetime as dt
import os
import shutil
import time
from dataclasses import dataclass, field

from pyspark.sql import Column, SparkSession
from pyspark.sql import functions as F

from repro.streaming.keyed_decompose import streaming_decompose
from workloads import Workload, events

IDENTITY_TOL = 1e-9
POLL_S = 0.05


class RunFailed(RuntimeError):
    """A batch failed, or the run could not measure enough of them."""

    def __init__(self, msg: str, attempted: int = 1):
        super().__init__(msg)
        self.attempted = attempted  # batches completed plus the failed one


def new_session(workdir: str, slots: int) -> SparkSession:
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(slots))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.streaming.numRecentProgressUpdates", "100000")
        .config("spark.local.dir", os.path.join(workdir, "local"))
        .config("spark.sql.warehouse.dir", os.path.join(workdir, "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _check_columns(periods: tuple[int, ...]) -> list[Column]:
    seasonal = sum(F.col(f"seasonal_{j}") for j in range(len(periods)))
    err = F.abs(F.col("value") - F.col("trend") - seasonal - F.col("residual"))
    # NaN and null errors count as bad: neither compares <= the tolerance.
    bad = F.when(err <= IDENTITY_TOL, 0).otherwise(1)
    return [
        F.count(F.lit(1)).alias("rows"),
        F.coalesce(F.sum(bad), F.lit(0)).alias("bad"),
    ]


@dataclass
class Batch:
    """One completed micro-batch, as ``StreamingQueryProgress`` reports it."""

    batch_id: int
    rows_in: int
    rows_out: int
    bad_rows: int
    duration_ms: int
    end_s: float  # epoch seconds at which the batch completed
    add_batch_ms: int
    query_planning_ms: int
    wal_commit_ms: int
    commit_offsets_ms: int
    state_update_ms: int
    state_commit_ms: int
    state_memory_bytes: int
    state_rows: int


def _batch(p) -> Batch:
    start = dt.datetime.fromisoformat(p.timestamp.replace("Z", "+00:00"))
    check = p.observedMetrics["check"]
    op = p.stateOperators[0]
    d = p.durationMs
    return Batch(
        batch_id=p.batchId,
        rows_in=p.numInputRows,
        rows_out=check["rows"],
        bad_rows=check["bad"],
        duration_ms=p.batchDuration,
        end_s=start.timestamp() + p.batchDuration / 1000.0,
        add_batch_ms=d.get("addBatch", 0),
        query_planning_ms=d.get("queryPlanning", 0),
        wal_commit_ms=d.get("walCommit", 0),
        commit_offsets_ms=d.get("commitOffsets", 0),
        state_update_ms=op.allUpdatesTimeMs,
        state_commit_ms=op.commitTimeMs,
        state_memory_bytes=op.memoryUsedBytes,
        state_rows=op.numRowsTotal,
    )


@dataclass
class StreamRun:
    setup_s: list[float] = field(default_factory=list)
    batches: list[Batch] = field(default_factory=list)
    warmup_s: float = 0.0
    steady: list[Batch] = field(default_factory=list)
    rows_off: int = 0  # rows missing or extra, summed over batches


def _start_query(
    spark: SparkSession, w: Workload, seed: int, ckpt: str, once: bool
):
    raw = (
        spark.readStream.format("rate-micro-batch")
        .option("rowsPerBatch", w.rows_per_batch)
        .load()
    )
    out = streaming_decompose(
        raw.select(*events(F.col("value"), w.n_keys, w.periods, seed)),
        list(w.periods),
    )
    writer = (
        out.observe("check", *_check_columns(w.periods))
        .writeStream.format("noop")
        .option("checkpointLocation", ckpt)
        .outputMode("append")
    )
    return writer.trigger(once=True).start() if once else writer.start()


def _wait_batch(query, batch_id: int, deadline: float) -> None:
    """Block until ``batch_id`` has completed; raise if the query died."""
    while True:
        p = query.lastProgress
        done = p.batchId + 1 if p is not None else 0
        if query.exception() is not None:
            raise RunFailed(f"query failed: {query.exception()}", done + 1)
        if done > batch_id:
            return
        if time.monotonic() > deadline:
            raise RunFailed(f"batch {batch_id} did not complete in time", done + 1)
        time.sleep(POLL_S)


def _measure(query, w: Workload, seconds: float, deadline: float) -> list:
    """Run through warm-up, then ``seconds`` and at least ``min_samples``
    steady batches; return the progress of every completed batch."""
    _wait_batch(query, w.warm_batch, deadline)
    t_steady = time.monotonic()
    last = w.warm_batch
    while time.monotonic() - t_steady < seconds or last - w.warm_batch < w.min_samples:
        _wait_batch(query, last + 1, deadline)
        last = query.lastProgress.batchId
    return query.recentProgress


def expected_rows_out(w: Workload, batch_id: int) -> int:
    """Rows the operator must have emitted up to and including
    ``batch_id``: every point of a key that has reached its 4m warm-up
    points, none before."""
    n = (batch_id + 1) * w.points_per_key_per_batch
    return w.n_keys * n if n >= w.window else 0


def run_stream(
    w: Workload,
    seed: int,
    seconds: float,
    setup_reps: int,
    workdir: str,
    slots: int,
    deadline: float,
) -> tuple[StreamRun, SparkSession]:
    """Start ``setup_reps`` queries, the first on a new session, and time
    each to its first batch. Keep the last one running past warm-up, then
    measure steady batches for ``seconds``."""
    run = StreamRun()
    t0 = time.time()
    spark = new_session(workdir, slots)
    for rep in range(setup_reps):
        last_rep = rep == setup_reps - 1
        if rep:
            t0 = time.time()
        ckpt = os.path.join(workdir, f"ckpt-{rep}")
        # Set-up-only queries run one batch and end by themselves.
        query = _start_query(spark, w, seed, ckpt, once=not last_rep)
        try:
            _wait_batch(query, 0, deadline)
            run.setup_s.append(_batch(query.recentProgress[0]).end_s - t0)
            if last_rep:
                progress = _measure(query, w, seconds, deadline)
        finally:
            # Stopping interrupts the batch in flight; only completed
            # batches, whose progress is already reported, are measured.
            query.stop()
        shutil.rmtree(ckpt, ignore_errors=True)

    run.batches = [_batch(p) for p in progress]
    ids = [b.batch_id for b in run.batches]
    if ids != list(range(len(ids))):
        raise RunFailed(f"progress is missing batches: {ids}")
    warm = run.batches[w.warm_batch]
    run.warmup_s = warm.end_s - run.batches[0].end_s
    run.steady = run.batches[w.warm_batch + 1 :]
    if len(run.steady) < w.min_samples:
        raise RunFailed(
            f"only {len(run.steady)} steady batches, need {w.min_samples}"
        )
    for b in run.batches:
        want = expected_rows_out(w, b.batch_id) - expected_rows_out(w, b.batch_id - 1)
        run.rows_off += abs(b.rows_out - want)
    return run, spark
