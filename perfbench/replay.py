"""Single-threaded, in-process replay of a workload's per-key work.

The replay feeds each key the same points, in the same micro-batches, that
the Spark query saw, and does per (key, batch) what the operator's group
function does: ``decode`` -> concat/sort -> ``_advance`` -> ``encode``.

Each batch is replayed twice, interleaved: once bare, timed only as a
whole, and once with spans around every layer call, including every
``OnlineSTL.initialize``/``update``. The bare pass gives the busy time
compared with the engine's task time; the ratio of the two passes is the
tracing overhead.
"""
from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np
import pandas as pd

from repro.core.online_stl import OnlineSTL, decompose_series
from repro.streaming.keyed_decompose import _advance
from repro.streaming.state_codec import KeyState, decode, encode
from workloads import Workload

# streaming_decompose's default, which the engine run also uses.
GAMMA = 0.7


@dataclass
class Spans:
    """Nanoseconds and call counts per span name, for one batch."""

    ns: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)

    def add(self, name: str, ns: int) -> None:
        self.ns[name] += ns
        self.calls[name] += 1


@contextmanager
def core_spans(sink: list[Spans]):
    """Time every OnlineSTL.initialize/update call into ``sink[0]``."""
    init, update = OnlineSTL.initialize, OnlineSTL.update

    def timed_init(self, values):
        t = perf_counter_ns()
        out = init(self, values)
        sink[0].add("core.initialize", perf_counter_ns() - t)
        return out

    def timed_update(self, x):
        t = perf_counter_ns()
        out = update(self, x)
        sink[0].add("core.update", perf_counter_ns() - t)
        return out

    OnlineSTL.initialize, OnlineSTL.update = timed_init, timed_update
    try:
        yield
    finally:
        OnlineSTL.initialize, OnlineSTL.update = init, update


def stream_step(
    w: Workload, sid: int, blob: bytes | None, frame: pd.DataFrame, spans: Spans | None
) -> tuple[bytes, pd.DataFrame]:
    """One key's micro-batch, as streaming_decompose's group function does it."""
    had_state = blob is not None
    t0 = perf_counter_ns()
    ks = decode(blob) if had_state else KeyState(list(w.periods), GAMMA)
    t1 = perf_counter_ns()
    pdf = pd.concat([frame], ignore_index=True).sort_values("ts")
    ts = pdf["ts"].to_numpy(np.int64)
    vals = pdf["value"].to_numpy(np.float64)
    t2 = perf_counter_ns()
    out = _advance(ks, ts, vals, sid)
    t3 = perf_counter_ns()
    blob = encode(ks)
    if spans is not None:
        t4 = perf_counter_ns()
        if had_state:
            spans.add("state_codec.decode", t1 - t0)
        spans.add("keyed_decompose.frame", t2 - t1)
        spans.add("keyed_decompose.advance", t3 - t2)
        spans.add("state_codec.encode", t4 - t3)
        spans.ns["keyed_decompose.rows"] += len(vals)
    return blob, out


def split_batches(w: Workload, rows: pd.DataFrame) -> list[dict[int, pd.DataFrame]]:
    """Per micro-batch, each key's rows; stream row v is in batch v // R."""
    v = rows["ts"].to_numpy() * w.n_keys + rows["series_id"].to_numpy()
    batch = v // w.rows_per_batch
    out = []
    for b in range(int(batch.max()) + 1):
        part = rows[batch == b]
        out.append({int(k): g for k, g in part.groupby("series_id", sort=True)})
    return out


@dataclass
class Replay:
    plain_ns: list[int] = field(default_factory=list)  # per batch
    traced_ns: list[int] = field(default_factory=list)  # per batch
    spans: list[Spans] = field(default_factory=list)  # per batch
    exact: bool = True
    blob_bytes: float = 0.0  # mean stored blob per key after the last batch
    model_bytes: float = 0.0  # mean state_floats() * 8 per key


def replay_stream(w: Workload, rows: pd.DataFrame) -> Replay:
    batches = split_batches(w, rows)
    plain: dict[int, bytes] = {}
    traced: dict[int, bytes] = {}
    # Both passes keep their output, so both do the same bookkeeping.
    plain_out: dict[int, list[pd.DataFrame]] = defaultdict(list)
    traced_out: dict[int, list[pd.DataFrame]] = defaultdict(list)
    rep = Replay()
    sink = [Spans()]

    def bare(groups: dict[int, pd.DataFrame]) -> None:
        t = perf_counter_ns()
        for sid, frame in groups.items():
            plain[sid], out = stream_step(w, sid, plain.get(sid), frame, None)
            plain_out[sid].append(out)
        rep.plain_ns.append(perf_counter_ns() - t)

    def spanned(groups: dict[int, pd.DataFrame]) -> None:
        sink[0] = Spans()
        with core_spans(sink):
            t = perf_counter_ns()
            for sid, frame in groups.items():
                traced[sid], out = stream_step(w, sid, traced.get(sid), frame, sink[0])
                traced_out[sid].append(out)
            rep.traced_ns.append(perf_counter_ns() - t)
        rep.spans.append(sink[0])

    for b, groups in enumerate(batches):
        # Alternate which pass goes first, so neither always runs on caches
        # the other has warmed.
        for replay_pass in (bare, spanned) if b % 2 == 0 else (spanned, bare):
            replay_pass(groups)

    # stream == core: each key's output across all micro-batches must equal
    # decompose_series over its whole series, bit for bit.
    for sid, g in rows.groupby("series_id"):
        sid = int(sid)
        got = pd.concat(plain_out[sid], ignore_index=True)
        series = g.sort_values("ts")
        ref = decompose_series(series["value"].to_numpy(np.float64), list(w.periods), GAMMA)
        want = {"ts": series["ts"].to_numpy(), "trend": ref.trend, "residual": ref.residual}
        want.update({f"seasonal_{j}": s for j, s in enumerate(ref.seasonal)})
        same = len(got) == len(series) and all(
            np.array_equal(got[col].to_numpy(), v) for col, v in want.items()
        )
        same = same and got.equals(pd.concat(traced_out[sid], ignore_index=True))
        rep.exact = rep.exact and same and traced[sid] == plain[sid]

    live = [decode(b) for b in plain.values()]
    rep.blob_bytes = statistics.fmean(len(b) for b in plain.values())
    rep.model_bytes = statistics.fmean(
        ks.model.state_floats() * 8 if ks.model is not None else 0 for ks in live
    )
    return rep
