"""Benchmark of the keyed OnlineSTL operator on Spark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream-m10-manykeys --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end
metrics. ``--trace 1`` runs the query for the engine's per-batch numbers,
then replays the same per-key work in-process with spans, and prints the
per-layer metrics. The last line of standard output is the result object;
the line before it holds the run's details and host facts. The exit code
is 0 only if every batch succeeded and every output was correct.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A whole run must end well inside three minutes.
RUN_BUDGET_S = 165.0
SETUP_REPS = 5


def _configure(slots: int, workdir: Path) -> None:
    """Environment for the JVM and the Python workers, set before pyspark
    is imported (the JVM reads it at launch)."""
    # A run killed earlier may have left checkpoints a new query would resume.
    shutil.rmtree(workdir, ignore_errors=True)
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = str(SRC)
    # A pandas FutureWarning raised in pyspark's per-group conversion would
    # repeat for every group of every batch on stderr.
    os.environ["PYTHONWARNINGS"] = "ignore::FutureWarning"
    # -XX:-UsePerfData keeps the JVMs (spark-submit's launcher and the
    # driver) out of /tmp. -XX:UseAVX=2 avoids a JIT crash of OpenJDK 17's
    # AVX-512 array-copy stubs seen on some hosts.
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    java = f"-XX:UseAVX=2 -XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{slots}]",
            "--driver-memory 2g",
            f"--driver-java-options '{java}'",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )


def _stop_jvm() -> None:
    """Shut the JVM pyspark launched and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway  # noqa: SLF001
    if gateway is None:
        return
    gateway.shutdown()
    gateway.proc.stdin.close()  # the JVM exits when its stdin closes
    gateway.proc.wait(timeout=60)


def host_facts(spark, slots: int) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "master": spark.sparkContext.master,
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
        "slots": slots,
        "python": platform.python_version(),
        "spark": spark.version,
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ------------------------------------------------------------ end to end
def end_to_end(run) -> tuple[dict, dict]:
    durations = [b.duration_ms for b in run.steady]
    last = run.batches[-1]
    rows_in = sum(b.rows_in for b in run.batches)
    rows_out = sum(b.rows_out for b in run.batches)
    bad = sum(b.bad_rows for b in run.batches)
    metrics = {
        "rows_per_s": _metric(
            sum(b.rows_out for b in run.steady) / (sum(durations) / 1000.0), "rows/s"
        ),
        "batch_p50_ms": _metric(statistics.median(durations), "ms"),
        "setup_s": _metric(statistics.median(run.setup_s), "s"),
        "warmup_s": _metric(run.warmup_s, "s"),
        "state_bytes_per_key": _metric(
            last.state_memory_bytes / last.state_rows, "bytes"
        ),
    }
    detail = {
        "attempted": len(run.batches),
        "failed": 0,
        "steady_samples": len(durations),
        "batch_ms": [b.duration_ms for b in run.batches],
        "setup_samples_s": run.setup_s,
        "rows_in": rows_in,
        "rows_out": rows_out,
        "rows_missing_or_extra": run.rows_off,
        "rows_bad_identity": bad,
        "bad_row_share": (run.rows_off + bad) / rows_in,
        "failed_share": 0.0,
    }
    return metrics, detail


# -------------------------------------------------------------- per layer
def partition_skew(spark, n_keys: int, partitions: int) -> float:
    """Max over mean keys per shuffle partition. The stateful operator
    hash-partitions on series_id like Spark's HashPartitioning:
    pmod(murmur3(series_id), partitions)."""
    from pyspark.sql import functions as F

    counts = (
        spark.range(n_keys)
        .groupBy(F.pmod(F.hash(F.col("id")), F.lit(partitions)).alias("p"))
        .count()
        .collect()
    )
    return max(r["count"] for r in counts) / (n_keys / partitions)


def layer_metrics(rep, steady: range) -> dict:
    """Core, codec and keyed_decompose metrics from the traced replay."""
    ns, calls = Counter(), Counter()
    for b in steady:
        ns.update(rep.spans[b].ns)
        calls.update(rep.spans[b].calls)
    init_ns = sum(s.ns["core.initialize"] for s in rep.spans)
    init_calls = sum(s.calls["core.initialize"] for s in rep.spans)
    core_ns = ns["core.update"] + ns["core.initialize"]
    busy_ns = sum(
        ns[k]
        for k in (
            "state_codec.decode",
            "keyed_decompose.frame",
            "keyed_decompose.advance",
            "state_codec.encode",
        )
    )
    rows = ns["keyed_decompose.rows"]
    per = lambda k: ns[k] / calls[k] / 1e3 if calls[k] else 0.0  # noqa: E731
    return {
        "core.update_us": _metric(per("core.update"), "us"),
        "core.busy_share": _metric(core_ns / busy_ns, "share"),
        "core.initialize_ms": _metric(init_ns / init_calls / 1e6, "ms"),
        "state_codec.decode_us": _metric(per("state_codec.decode"), "us"),
        "state_codec.encode_us": _metric(per("state_codec.encode"), "us"),
        "state_codec.blob_bytes": _metric(rep.blob_bytes, "bytes"),
        "state_codec.blob_to_model_ratio": _metric(
            rep.blob_bytes / rep.model_bytes if rep.model_bytes else 0.0, "ratio"
        ),
        "keyed_decompose.advance_self_us_per_row": _metric(
            (ns["keyed_decompose.advance"] - core_ns) / rows / 1e3, "us"
        ),
        "keyed_decompose.calls": _metric(
            calls["keyed_decompose.advance"] / len(steady), "count"
        ),
        "trace.overhead_share": _metric(
            sum(rep.traced_ns) / sum(rep.plain_ns) - 1.0, "share"
        ),
    }


def layers(spark, w, seed, run, slots) -> tuple[dict, bool]:
    from pyspark.sql import functions as F

    from replay import replay_stream
    from workloads import events

    n_batches = min(len(run.batches), w.warm_batch + 1 + w.replay_steady_batches)
    rows = (
        spark.range(n_batches * w.rows_per_batch)
        .select(*events(F.col("id"), w.n_keys, w.periods, seed))
        .toPandas()
    )
    skew = partition_skew(spark, w.n_keys, slots)
    spark.stop()  # the replay runs alone on the host
    rep = replay_stream(w, rows)
    steady = range(w.warm_batch + 1, n_batches)
    metrics = layer_metrics(rep, steady)
    med = lambda f: statistics.median(f(b) for b in run.steady)  # noqa: E731
    task_ms = med(lambda b: b.state_update_ms)
    replay_ms = statistics.median(rep.plain_ns[b] for b in steady) / 1e6
    last = run.batches[-1]
    metrics.update(
        {
            "engine.add_batch_ms": _metric(med(lambda b: b.add_batch_ms), "ms"),
            "engine.query_planning_ms": _metric(med(lambda b: b.query_planning_ms), "ms"),
            "engine.wal_commit_ms": _metric(med(lambda b: b.wal_commit_ms), "ms"),
            "engine.commit_offsets_ms": _metric(med(lambda b: b.commit_offsets_ms), "ms"),
            "engine.state_update_task_ms": _metric(task_ms, "ms"),
            "engine.state_commit_ms": _metric(med(lambda b: b.state_commit_ms), "ms"),
            "engine.state_memory_bytes": _metric(last.state_memory_bytes, "bytes"),
            "engine.state_rows": _metric(last.state_rows, "count"),
            "engine.gap_share": _metric(1.0 - replay_ms / task_ms, "share"),
            "engine.slots_busy": _metric(
                med(lambda b: b.state_update_ms / b.duration_ms), "slots"
            ),
            "engine.partition_skew": _metric(skew, "ratio"),
        }
    )
    return metrics, rep.exact


# ------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true", help="few-second sizes, for the smoke test"
    )
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    if not (SRC / "repro" / "streaming" / "keyed_decompose.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    slots = min(4, len(os.sched_getaffinity(0)))
    workdir = ROOT / ".perfbench_work"
    _configure(slots, workdir)

    import engine
    from workloads import WORKLOADS, tiny

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    deadline = t_start + RUN_BUDGET_S
    reps = 1 if args.trace or args.tiny else SETUP_REPS
    result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    detail: dict = {"workload": w.name, "seed": args.seed, "trace": args.trace}
    spark = None
    try:
        run, spark = engine.run_stream(
            w, args.seed, args.seconds, reps, str(workdir), slots, deadline
        )
        detail["host"] = host_facts(spark, slots)
        metrics, d = end_to_end(run)
        if args.trace:
            metrics, exact = layers(spark, w, args.seed, run, slots)
        detail.update(d)
        if args.trace:
            detail["replay_exact"] = exact
        correct = d["bad_row_share"] == 0 and (not args.trace or exact)
        result = {
            "correct": correct,
            "attempted": d["attempted"],
            "failed": 0,
            "metrics": metrics,
        }
    except engine.RunFailed as e:
        detail["error"] = str(e)
        result["attempted"] = e.attempted
    finally:
        if spark is not None:
            spark.stop()
        _stop_jvm()
        shutil.rmtree(workdir, ignore_errors=True)
    detail["wall_s"] = time.monotonic() - t_start
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
