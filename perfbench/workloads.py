"""Workload definitions and the seeded event generator.

Every workload feeds the operator only generated ``(series_id, ts, value)``
rows. Row number ``v`` of the stream belongs to key ``v mod n_keys`` at
per-key timestamp ``v div n_keys``, so with a fixed number of rows per
micro-batch every key receives the same number of points per batch.

The value is computed by Catalyst expressions from ``v`` and the seed, so
the generator costs the engine almost nothing and the same expressions over
``spark.range`` give the replay exactly the rows the query saw.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from pyspark.sql import Column
from pyspark.sql import functions as F


@dataclass(frozen=True)
class Workload:
    name: str
    periods: tuple[int, ...]
    n_keys: int
    rows_per_batch: int
    # Steady batches the run must measure at least; fewer is a failed run,
    # not a smaller sample.
    min_samples: int = 5
    # Steady batches the traced replay re-runs after warm-up.
    replay_steady_batches: int = 8

    @property
    def window(self) -> int:
        return 4 * max(self.periods)

    @property
    def points_per_key_per_batch(self) -> int:
        return self.rows_per_batch // self.n_keys

    @property
    def warm_batch(self) -> int:
        """Index of the micro-batch in which every key has its 4m points."""
        return math.ceil(self.window / self.points_per_key_per_batch) - 1


WORKLOADS = {
    w.name: w
    for w in (
        # Per-key fixed costs matter most: decode/encode, pandas concat/sort,
        # output DataFrame building and the engine's per-group framing; the
        # core does little per key.
        Workload(
            "stream-m10-manykeys",
            (10,),
            n_keys=256,
            rows_per_batch=8 * 256,
        ),
        # The core update loop dominates the operator's own time, state is
        # ~220 KB per key, and 16 keys on the shuffle partitions show skew.
        Workload(
            "stream-m1440-fewkeys",
            (1440,),
            n_keys=16,
            rows_per_batch=1024 * 16,
            replay_steady_batches=2,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """A few-second version of ``w`` for the smoke test."""
    keys = min(w.n_keys, 4)
    return replace(
        w,
        n_keys=keys,
        rows_per_batch=keys * w.points_per_key_per_batch,
        min_samples=2,
        replay_steady_batches=2,
    )


def events(rows: Column, n_keys: int, periods: tuple[int, ...], seed: int):
    """Generated ``(series_id, ts, value)`` columns for stream row ``rows``.

    Each key gets its own seeded level, amplitude and phase; the value is a
    sum of one wave per period, a slow trend wave and seeded noise.
    """
    sid = (rows % n_keys).cast("long")
    ts = (rows / n_keys).cast("long")
    s = F.lit(seed).cast("long")

    def unit(*cols: Column) -> Column:
        """Seeded uniform in [0, 1) from a 64-bit hash."""
        return F.pmod(F.xxhash64(s, *cols), F.lit(1 << 20)).cast("double") / (1 << 20)

    t = ts.cast("double")
    value = unit(sid, F.lit(0)) * 10.0
    for j, p in enumerate(periods):
        amp = 0.5 + unit(sid, F.lit(j + 1))
        phase = unit(sid, F.lit(j + 101)) * (2.0 * math.pi)
        value = value + amp * F.sin(t * (2.0 * math.pi / p) + phase)
    value = value + F.sin(t * (2.0 * math.pi / (20 * max(periods))))
    value = value + (unit(rows) - 0.5) * 0.6
    return [sid.alias("series_id"), ts.alias("ts"), value.alias("value")]
